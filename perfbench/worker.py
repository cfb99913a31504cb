"""Benchmark worker: one client running a workload's jobs in a closed loop.

Started by ``run.py`` as ``python perfbench/worker.py SPEC.json`` with
``PYTHONPATH=src`` and the BLAS thread count pinned.  The next job starts
only after the previous one has finished.

* ``warm`` mode imports ``ncrkhs.cli`` once and calls ``cli.main(argv)`` in
  process; a job's time runs from that call to the payload being written.
* ``cold`` mode starts one fresh ``python -m ncrkhs.cli`` process per job;
  a job's time runs from spawning the process to reaping it.

The loop makes whole passes over the job list, so every job class keeps its
share of the samples, until ``seconds`` have passed and ``min_jobs`` jobs
have run.  With tracing, untraced and traced passes alternate, and the run
ends after a traced pass once at least two have run.

Right before every job the worker times a fixed calibration task that does
not involve ncrkhs (:func:`calibration_task`); ``run.py`` uses it to correct
job times for the machine's speed at that moment.

The worker writes the exit code, time, calibration time and a digest of the
output of every job, and the output text once per distinct (job, digest),
to the result file; ``run.py`` validates the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_CALIBRATIONS = 5


class Recorder:
    def __init__(self):
        self.records = []   # [pass, index, traced, ns, calibration ns, exit code, digest]
        self.texts = {}     # "index:digest" -> [stdout, stderr]

    def add(self, pass_no, index, traced, ns, cal_ns, code, stdout, stderr):
        digest = hashlib.sha1((stdout + "\0" + stderr).encode()).hexdigest()
        self.records.append([pass_no, index, int(traced), ns, cal_ns, code, digest])
        self.texts.setdefault(f"{index}:{digest}", [stdout, stderr])


def calibration_task():
    """A fixed mix of interpreted loops and small numpy products, as in ncrkhs.

    Returns a function that runs it and returns its wall time in ns.  The
    task is the benchmark's own reference series evaluation on constant
    inputs, so no change to ncrkhs changes its cost; only the machine does.
    """
    import numpy as np

    import workloads

    rng = np.random.default_rng(0)
    terms = workloads.random_series(rng, 2, 6, 2, 2)
    point = workloads.gaussian_point(rng, 2, 6)

    def run():
        start = time.perf_counter_ns()
        workloads.series_value(terms, point)
        return time.perf_counter_ns() - start

    return run


# ---------------------------------------------------------------------------
# warm: in-process cli.main
# ---------------------------------------------------------------------------

def run_in_process(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:   # argparse rejects the arguments
            code = exc.code
        except Exception:           # noqa: BLE001 - a crash is a failed job, not a crashed benchmark
            code = None
            traceback.print_exc()
        ns = time.perf_counter_ns() - start
    return ns, code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# cold: one process per job
# ---------------------------------------------------------------------------

def run_process(argv, scratch, env):
    """Spawn argv with stdout/stderr in files; returns (ns, code, out, err, maxrss_kb)."""
    out_path, err_path = os.path.join(scratch, "stdout"), os.path.join(scratch, "stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter_ns()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    ns = time.perf_counter_ns() - start
    with open(out_path, encoding="utf-8") as fh:
        out = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        err = fh.read()
    return ns, os.waitstatus_to_exitcode(status), out, err, usage.ru_maxrss


def cold_argv(argv, traced, dump_path, job_no):
    if traced:
        return [os.path.join(HERE, "coldjob.py"), dump_path, str(job_no), *argv]
    return ["-m", "ncrkhs.cli", *argv]


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def passes(spec):
    """Yield (pass number, traced) until the run's time and job floors are met."""
    start = time.perf_counter()
    done = traced_done = 0
    pass_no = 0
    while True:
        traced = spec["trace"] and pass_no % 2 == 1
        yield pass_no, traced
        done += len(spec["jobs"])
        traced_done += traced
        pass_no += 1
        enough = time.perf_counter() - start >= spec["seconds"] and done >= spec["min_jobs"]
        if enough and (not spec["trace"] or (traced and traced_done >= 2)):
            return


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {}
    rec = Recorder()
    scratch = spec["scratch"]
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ)

    if spec["mode"] == "warm":
        start = time.perf_counter_ns()
        from ncrkhs import cli
        result["import_ms"] = (time.perf_counter_ns() - start) / 1e6
        src = os.path.join(spec["root"], "src")
        if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
            sys.exit(f"ncrkhs was imported from {cli.__file__}, not from {src}")
        _, code, out, err = run_in_process(cli, spec["warmup"])
    else:
        _, code, out, err, _ = run_process(cold_argv(spec["warmup"], False, None, None), scratch, env)
    result["ready"] = time.monotonic()
    result["warmup"] = [code, out, err]
    calibrate = calibration_task()
    result["setup_calibration_ns"] = sorted(calibrate() for _ in range(SETUP_CALIBRATIONS))[SETUP_CALIBRATIONS // 2]
    if spec["setup_only"]:
        write(spec, result)
        return

    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
    peak_kb = 0
    dumps = []
    for pass_no, traced in passes(spec):
        if traced and spec["mode"] == "warm":
            tracer.install()
        for index, argv in enumerate(spec["jobs"]):
            job_no = pass_no * len(spec["jobs"]) + index
            cal_ns = calibrate()
            if spec["mode"] == "warm":
                if traced:
                    tracer.begin_job(job_no)
                ns, code, out, err = run_in_process(cli, argv)
                if traced:
                    tracer.end_job()
            else:
                dump = os.path.join(scratch, f"trace{job_no}.npz")
                ns, code, out, err, kb = run_process(cold_argv(argv, traced, dump, job_no), scratch, env)
                if traced:
                    dumps.append(dump)
                else:
                    peak_kb = max(peak_kb, kb)
            rec.add(pass_no, index, traced, ns, cal_ns, code, out, err)
        if traced and spec["mode"] == "warm":
            tracer.uninstall()

    if spec["mode"] == "warm":
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            path = os.path.join(scratch, "trace.npz")
            tracer.dump(path)
            dumps.append(path)
    result.update(records=rec.records, texts=rec.texts, peak_rss_kb=peak_kb, trace_dumps=dumps,
                  env=environment())
    write(spec, result)


def write(spec, result):
    tmp = spec["out"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["out"])


if __name__ == "__main__":
    main(sys.argv[1])
