"""Print the exit code and stdout digest of every benchmark job, run in-process.

    python tools/payload_digest.py --seed 7 > digest.json
    python tools/payload_digest.py --seed 7 --against digest.json
    python tools/payload_digest.py --seed 7 --keep payloads.json > digest.json
    python tools/payload_digest.py --seed 7 --rel payloads.json

Runs each job of each workload in perfbench/workloads.py through
``ncrkhs.cli.main`` against this checkout's ``src/`` and prints one JSON
object mapping ``<workload>/<index>/<class>`` to ``[exit code, sha256 of
stdout]``.  Two checkouts print the same object exactly when their CLI
payloads are byte-identical for that seed.  With ``--against DIGEST.json``
it prints instead each key whose exit code or digest differs from that file
(or is missing from one side), and exits 1 if there is any.

``--keep PAYLOADS.json`` also writes every job's ``[exit code, stdout]`` to
that file.  ``--rel PAYLOADS.json`` compares this checkout's payloads with
such a file, kept by another checkout on the same seed: for each key whose
stdout differs it prints the field whose floats drift most, with their
largest relative difference (each float measured against the largest
magnitude in that top-level field) and absolute difference, then the
largest relative difference over all keys.  Floats may drift; everything else
must not, so it exits 1 and names the first mismatch if an exit code, a
string (a status, an error text), a boolean, an integer (a rank, a size, a
seed) or the shape of a payload differs.
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


def numbers(a, b, where):
    """(where, x, y) for each pair of floats at the same place in two JSON values.

    Raises ValueError naming the first place where anything else differs.
    """
    if isinstance(a, float) or isinstance(b, float):
        if type(a) not in (int, float) or type(b) not in (int, float):
            raise ValueError(f"{where}: {a!r} against {b!r}")
        yield where, a, b
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise ValueError(f"{where}: fields {sorted(a)} against {sorted(b)}")
        for key in a:
            yield from numbers(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise ValueError(f"{where}: {len(a)} entries against {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            yield from numbers(x, y, f"{where}[{i}]")
    elif type(a) is not type(b) or a != b:
        raise ValueError(f"{where}: {a!r} against {b!r}")


def drift(a, b) -> tuple[float, float, str]:
    """(relative, absolute difference, field) for the field of two payloads whose floats drift most.

    Each float is measured against the largest magnitude in its top-level field.
    """
    fields: dict[str, list[tuple[float, float]]] = {}
    for where, x, y in numbers(a, b, ""):
        fields.setdefault(where.split(".")[1].split("[")[0], []).append((x, y))
    worst = (0.0, 0.0, "")
    for field, pairs in fields.items():
        scale = max(max(abs(x), abs(y)) for x, y in pairs)
        gap = max(abs(x - y) for x, y in pairs)
        if scale > 0:
            worst = max(worst, (gap / scale, gap, field))
    return worst


parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--against", metavar="DIGEST.json", help="report the keys that differ from this digest")
parser.add_argument("--keep", metavar="PAYLOADS.json", help="also write every job's exit code and stdout here")
parser.add_argument("--rel", metavar="PAYLOADS.json", help="report the float drift from these kept payloads")
args = parser.parse_args()
seed = args.seed
digests, payloads = {}, {}
with tempfile.TemporaryDirectory() as root:
    for workload in WORKLOADS:
        jobs, _ = build(workload, seed, os.path.join(root, workload))
        for i, job in enumerate(jobs):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(job.argv)
            key = f"{workload}/{i}/{job.cls}"
            digests[key] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
            payloads[key] = [code, out.getvalue()]
if args.keep is not None:
    with open(args.keep, "w", encoding="utf-8") as fh:
        json.dump(payloads, fh, indent=1, sort_keys=True)
if args.rel is not None:
    with open(args.rel, encoding="utf-8") as fh:
        reference = json.load(fh)
    if payloads.keys() != reference.keys():
        print(f"job keys differ: {sorted(payloads.keys() ^ reference.keys())}")
        sys.exit(1)
    worst = 0.0
    for key in sorted(payloads):
        (code, text), (ref_code, ref_text) = payloads[key], reference[key]
        if code != ref_code:
            print(f"{key}: exit code {code} against {ref_code}")
            sys.exit(1)
        if text == ref_text:
            continue
        try:
            rel, gap, field = drift(json.loads(text), json.loads(ref_text))
        except ValueError as err:
            print(f"{key}{err}")
            sys.exit(1)
        worst = max(worst, rel)
        print(f"{key} {field}: relative {rel:.2e}, absolute {gap:.2e}")
    print(f"largest relative difference {worst:.2e}")
    sys.exit(0)
if args.against is None:
    print(json.dumps(digests, indent=1, sort_keys=True))
    sys.exit(0)
with open(args.against, encoding="utf-8") as fh:
    reference = json.load(fh)
differ = sorted(key for key in digests.keys() | reference.keys() if digests.get(key) != reference.get(key))
for key in differ:
    print(key)
sys.exit(1 if differ else 0)
