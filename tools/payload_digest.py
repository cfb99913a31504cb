"""Print the exit code and stdout digest of every benchmark job, run in-process.

    python tools/payload_digest.py --seed 7 > digest.json
    python tools/payload_digest.py --seed 7 --against digest.json

Runs each job of each workload in perfbench/workloads.py through
``ncrkhs.cli.main`` against this checkout's ``src/`` and prints one JSON
object mapping ``<workload>/<index>/<class>`` to ``[exit code, sha256 of
stdout]``.  Two checkouts print the same object exactly when their CLI
payloads are byte-identical for that seed.  With ``--against DIGEST.json``
it prints instead each key whose exit code or digest differs from that file
(or is missing from one side), and exits 1 if there is any.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from ncrkhs.cli import main  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--against", metavar="DIGEST.json", help="report the keys that differ from this digest")
args = parser.parse_args()
seed = args.seed
digests = {}
with tempfile.TemporaryDirectory() as root:
    for workload in WORKLOADS:
        jobs, _ = build(workload, seed, os.path.join(root, workload))
        for i, job in enumerate(jobs):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(job.argv)
            digests[f"{workload}/{i}/{job.cls}"] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
if args.against is None:
    print(json.dumps(digests, indent=1, sort_keys=True))
    sys.exit(0)
with open(args.against, encoding="utf-8") as fh:
    reference = json.load(fh)
differ = sorted(key for key in digests.keys() | reference.keys() if digests.get(key) != reference.get(key))
for key in differ:
    print(key)
sys.exit(1 if differ else 0)
