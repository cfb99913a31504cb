"""ncrkhs benchmark: seeded certificate and factorization jobs, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is the checkout's
own ``src/ncrkhs``; there is nothing to build.  The benchmark

1. generates the workload's input files and expectations from ``--seed``
   (``workloads.py``), outside any timed region;
2. starts the worker (``worker.py``) SETUP_SPAWNS times; each start is one
   ``setup_s`` sample, from spawning the process to the end of an untimed
   warm-up job, and the last worker goes on to run the timed closed loop;
3. validates every job's output (``validate.py``);
4. prints a human-readable report, then one JSON line: with ``--trace 0``
   the end-to-end metrics, with ``--trace 1`` the per-layer metrics from a
   run whose traced passes alternate with untraced ones.

Machine-speed correction.  On a shared machine the speed available to one
process swings by 30-45 % within tens of seconds, as neighbours load the
cores.  The worker therefore times a fixed calibration task, which does not
involve ncrkhs, right before every job.  The end-to-end times
(``setup_s``, ``job_ms.*``, ``jobs_per_s``) are wall times scaled by
REFERENCE_CALIBRATION_MS / (calibration time around the job), i.e. wall
times at the machine speed at which the calibration takes its reference
time.  The benchmark pins itself, and so every process it starts, to one
CPU, so that the calibration measures the CPU the jobs run on.  A change to
ncrkhs moves these times exactly as it moves wall time; a change of machine
speed mostly cancels.  Measured on a shared two-core Xeon machine, this cut
the spread of 10-second medians of one job from 25 % to 5 %.  The
uncorrected wall times are printed as ``wall.*`` report lines.

The metric names printed in the JSON line are those listed in
``BENCHMARK.json``; other figures are printed as "report only" lines.
Layer times that some workload never exercises (``formal.*`` and
``series.nilpotency_order.ms`` on functional-cert, for instance) are
reported that way, since a time that reads zero on every run of a workload
carries no signal.  Call counts, such as ``series.nilpotency_order.calls``,
are listed for every workload.  Without ``src/ncrkhs`` the benchmark exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from validate import validate  # noqa: E402

# One BLAS/OpenMP thread: the workloads are single-client, and a second
# thread on a shared two-core machine adds noise rather than speed.
BLAS_THREADS = 1
SETUP_SPAWNS = 5
REFERENCE_CALIBRATION_MS = 3.0   # the calibration task on a quiet two-core Xeon machine
CALIBRATION_WINDOW = 5           # jobs whose calibrations are pooled (median) per job
MIN_JOBS = 100          # p90 then has at least ten samples above it
DEADLINE_S = 170        # the whole run must end within 180 s
WORK_DIR = ".perfbench_work"


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def pin_to_one_cpu():
    """Keep the benchmark and every process it starts on one CPU.

    The calibration task then measures the speed of the CPU the jobs run on;
    on a machine with hyperthreads the two logical CPUs can differ in speed
    by tens of percent at the same moment.  Returns the CPU, or None where
    affinity cannot be set.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

def start_worker(spec: dict, spec_path: str, env: dict, root: str, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and its spawn time."""
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    spawned = time.monotonic()
    # a session of its own, so a timeout also stops the job processes it started
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), spec_path], env=env, cwd=root,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("worker did not finish before the run deadline") from None
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    with open(spec["out"], encoding="utf-8") as fh:
        return json.load(fh), spawned


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def speed_factors(calibration_ns):
    """REFERENCE / (median calibration of the jobs around each job), in run order."""
    half = CALIBRATION_WINDOW // 2
    return [REFERENCE_CALIBRATION_MS * 1e6 / statistics.median(calibration_ns[max(0, i - half):i + half + 1])
            for i in range(len(calibration_ns))]


def end_to_end(records, setup, setup_calibration_ns, peak_kb):
    wall = [r[3] / 1e6 for r in records]
    ms = [w * f for w, f in zip(wall, speed_factors([r[4] for r in records]))]
    setup_ref = [s * REFERENCE_CALIBRATION_MS * 1e6 / c for s, c in zip(setup, setup_calibration_ns)]
    return {
        "setup_s": (statistics.median(setup_ref), "s", len(setup)),
        "job_ms.p50": (percentile(ms, 50), "ms", len(ms)),
        "job_ms.p90": (percentile(ms, 90), "ms", len(ms)),
        "jobs_per_s": (len(ms) / (sum(ms) / 1e3), "1/s", len(ms)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
        "wall.setup_s": (statistics.median(setup), "s", len(setup)),
        "wall.job_ms.p50": (percentile(wall, 50), "ms", len(wall)),
        "wall.job_ms.p90": (percentile(wall, 90), "ms", len(wall)),
        "wall.jobs_per_s": (len(wall) / (sum(wall) / 1e3), "1/s", len(wall)),
        "calibration_ms": (statistics.median(r[4] for r in records) / 1e6, "ms", len(records)),
    }


def per_layer(jobs, records, texts, dumps, import_ms):
    """Per-layer metrics from the traced passes.

    Work counts and sizes come from the first traced pass and must repeat
    exactly in every other one; ``drift`` names those that do not.  Layer
    times are medians over traced passes of the uncorrected wall ms spent in
    the layer per pass; ``trace.overhead_ratio`` compares speed-corrected
    pass times of each traced pass and the untraced pass before it.
    """
    n_jobs = len(jobs)
    per_job: dict[int, dict] = {}
    for path in dumps:
        spans, meta = tracing.load(path)
        totals = tracing.job_totals(spans, meta["layers"])
        for job, counts in meta["counts"].items():
            per_job.setdefault(int(job), {}).update(counts)
        for job, values in totals.items():
            per_job.setdefault(job, {}).update(values)
        if "import_ms" in meta:
            import_ms.append(meta["import_ms"])

    traced = [r for r in records if r[2]]
    by_pass: dict[int, dict] = {}
    for pass_no, index, _, _, _, _, digest in traced:
        agg = by_pass.setdefault(pass_no, {"serialize.bytes_in": 0, "serialize.bytes_out": 0})
        agg["serialize.bytes_in"] += sum(os.path.getsize(p) for p in jobs[index].inputs)
        agg["serialize.bytes_out"] += len(texts[f"{index}:{digest}"][0].encode())
        for key, value in per_job.get(pass_no * n_jobs + index, {}).items():
            if key in tracing.MAX_COUNTS:
                agg[key] = max(agg.get(key, 0), value)
            else:
                agg[key] = agg.get(key, 0) + value
    passes = [by_pass[p] for p in sorted(by_pass)]

    exact = [k for k in set().union(*passes) if not k.endswith("ms")]
    drift = [k for k in exact if len({p.get(k, 0) for p in passes}) > 1]

    first = passes[0]

    def count(key):
        return first.get(key, 0)

    def ms(key):
        return statistics.median(p.get(key, 0.0) for p in passes)

    def ratio(num, den):
        return count(num) / count(den) if count(den) else 0.0

    metrics = {}
    for layer in ("series.evaluate", "core.kron", "series.nilpotency_order", "core.word_eval", "kernels.evaluate",
                  "core.psd_factor", "linalg.eigh", "linalg.lstsq"):
        metrics[f"{layer}.calls"] = (count(f"{layer}.calls"), "count")
    for key in ("series.evaluate.ms", "core.kron.ms", "series.nilpotency_order.ms", "core.word_eval.ms",
                "formal.moment_matrix.ms", "formal.formal_kolmogorov_truncated.self_ms",
                "formal.nilpotent_positivity_check.ms", "kernels.evaluate.self_ms", "kernels.cp_certificate.ms",
                "kernels.kolmogorov_at_sample.ms", "core.psd_factor.ms", "linalg.eigh.ms", "linalg.svd.ms",
                "linalg.lstsq.ms", "rkhs.RkhsModel.init.ms", "rkhs.lifted_norm.ms",
                "multipliers.contractivity_certificate.ms", "multipliers.brangesian.ms", "cpmaps.ms",
                "serialize.decode.ms", "serialize.encode.ms", "cli.build_parser.ms", "cli.main.self_ms"):
        metrics[key] = (ms(key), "ms")
    metrics["series.evaluate.terms"] = (count("series.evaluate.terms"), "count")
    metrics["series.evaluate.distinct_ratio"] = (ratio("series.evaluate.distinct", "series.evaluate.calls"), "ratio")
    metrics["series.nilpotency_order.distinct_ratio"] = (
        ratio("series.nilpotency_order.distinct", "series.nilpotency_order.calls"), "ratio")
    metrics["series.nilpotency_order.max_n"] = (count("series.nilpotency_order.max_n"), "n")
    metrics["kernels.gram_dim.max"] = (count("kernels.gram_dim.max"), "dim")
    metrics["linalg.eigh.max_dim"] = (count("linalg.eigh.max_dim"), "dim")
    metrics["serialize.bytes_in"] = (count("serialize.bytes_in"), "B")
    metrics["serialize.bytes_out"] = (count("serialize.bytes_out"), "B")
    metrics["startup.import_ms"] = (statistics.median(import_ms), "ms")

    main_ms: dict[str, list] = {}
    for pass_no, index, *_ in traced:
        value = per_job.get(pass_no * n_jobs + index, {}).get("cli.main.ms")
        if value is not None:
            main_ms.setdefault(jobs[index].subcommand, []).append(value)
    for sub, values in sorted(main_ms.items()):
        metrics[f"cli.{sub}.ms"] = (statistics.median(values), "ms")

    walls: dict[int, float] = {}
    for (pass_no, _, _, ns, *_), factor in zip(records, speed_factors([r[4] for r in records])):
        walls[pass_no] = walls.get(pass_no, 0.0) + ns * factor
    overhead = [walls[p] / walls[p - 1] for p in sorted(by_pass) if p - 1 in walls]
    metrics["trace.overhead_ratio"] = (statistics.median(overhead), "ratio")
    return metrics, drift, len(passes)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(root: str, trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args, root: str, work: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    jobs, warmup = workloads.build(args.workload, args.seed, os.path.join(work, "inputs"))
    env = worker_env(root)
    base = {
        "mode": "cold" if args.workload == "cli-cold" else "warm",
        "root": root,
        "jobs": [job.argv for job in jobs],
        "warmup": warmup.argv,
        "seconds": args.seconds,
        "min_jobs": MIN_JOBS,
        "trace": bool(args.trace),
        "scratch": os.path.join(work, "scratch"),
    }

    setup, setup_calibration, import_ms, warmups = [], [], [], []
    for i in range(SETUP_SPAWNS):
        last = i == SETUP_SPAWNS - 1
        spec = dict(base, setup_only=not last, out=os.path.join(work, f"result{i}.json"))
        result, spawned = start_worker(spec, os.path.join(work, f"spec{i}.json"), env, root, deadline)
        setup.append(result["ready"] - spawned)
        setup_calibration.append(result["setup_calibration_ns"])
        if "import_ms" in result:
            import_ms.append(result["import_ms"])
        warmups.append(result["warmup"])

    records, texts = result["records"], result["texts"]
    verdicts = {}
    failures = []
    for code, out, err in warmups:
        reason = validate(warmup, code, out, err)
        if reason:
            failures.append(("warmup", reason))
    for pass_no, index, traced, ns, cal_ns, code, digest in records:
        key = f"{index}:{digest}"
        if key not in verdicts:
            verdicts[key] = validate(jobs[index], code, *texts[key])
        if verdicts[key]:
            failures.append((jobs[index].cls, verdicts[key]))

    attempted = len(records) + len(warmups)
    report = {
        "env": {**result["env"], "nproc": os.cpu_count(), "cpu": cpu_model(), "blas_threads": BLAS_THREADS,
                "seed": args.seed, "workload": args.workload},
        "attempted": attempted,
        "failures": failures,
        "jobs": jobs,
        "records": records,
    }
    untraced = [r for r in records if not r[2]]
    if args.trace:
        metrics, drift, n_passes = per_layer(jobs, records, texts, result["trace_dumps"], import_ms)
        report.update(metrics={k: (v, u, n_passes) for k, (v, u) in metrics.items()}, drift=drift)
    else:
        report.update(metrics=end_to_end(untraced, setup, setup_calibration, result["peak_rss_kb"]), drift=[])
    return report


def print_report(report, names):
    print(f"env {json.dumps(report['env'], sort_keys=True)}")
    jobs, records = report["jobs"], [r for r in report["records"] if not r[2]]
    by_class: dict[str, list] = {}
    for r in records:
        by_class.setdefault(jobs[r[1]].cls, []).append(r[3] / 1e6)
    print(f"{'class':28s} {'jobs':>5s} {'share':>6s} {'median ms':>10s}")
    for cls, ms in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"{cls:28s} {len(ms):5d} {len(ms) / len(records):6.1%} {statistics.median(ms):10.2f}")
    failed = len(report["failures"])
    print(f"fail_ratio = {failed / report['attempted']:.4f} ({failed} of {report['attempted']} jobs)")
    for cls, reason in report["failures"][:20]:
        print(f"FAILED {cls}: {reason}")
    for key in report["drift"]:
        print(f"DRIFT work count {key} differs between traced passes")
    for name, (value, unit, samples) in report["metrics"].items():
        mark = "" if name in names else "  (report only)"
        print(f"metric {name} = {value:.6g} {unit} (samples={samples}){mark}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ncrkhs", "cli.py")):
        print("perfbench: no src/ncrkhs in the current directory; run from the root of an ncrkhs checkout",
              file=sys.stderr)
        return 2
    names = declared_metrics(root, bool(args.trace))
    cpu = pin_to_one_cpu()
    # relative to the checkout root, the working directory of every process,
    # so that the generated job arguments name files inside the checkout
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        report = run(args, root, work)
        report["env"]["pinned_cpu"] = cpu
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    print_report(report, names)
    wrong = [n for n, unit in names.items() if report["metrics"].get(n, (0, None))[1] != unit]
    if wrong:
        print(f"perfbench: this run does not produce {wrong} with the units BENCHMARK.json gives", file=sys.stderr)
        return 1
    correct = not report["failures"] and not report["drift"]
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": {n: {"value": report["metrics"][n][0], "unit": report["metrics"][n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
