"""One traced CLI job in a fresh process, for traced runs of the cli-cold workload.

    python perfbench/coldjob.py DUMP.npz JOB_NO SUBCOMMAND [ARGS...]

Imports ``ncrkhs.cli`` (timed as ``startup.import_ms``), installs the tracer,
runs ``cli.main`` on the arguments and writes the spans to DUMP.npz.  Stdout
and the exit code are those of ``python -m ncrkhs.cli``.
"""

import sys
import time


def main():
    dump, job_no, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter_ns()
    from ncrkhs import cli
    import_ms = (time.perf_counter_ns() - start) / 1e6

    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_job(job_no)
    try:
        code = cli.main(argv)
    finally:
        tracer.end_job()
        tracer.uninstall()
        tracer.dump(dump, {"import_ms": import_ms})
    return code


if __name__ == "__main__":
    sys.exit(main())
