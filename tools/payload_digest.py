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
must not: it names every place where an exit code, a string (a status, an
error text), a boolean, an integer (a rank, a size, a seed) or the shape of
a payload (a field set, a list length, a type) differs, in every key, and
then exits 1 if there was any.
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


def compare(a, b, where, floats, shapes):
    """Collect the pairs of floats at the same place in two JSON values, and every other difference.

    ``floats`` gets (where, x, y) for each pair; ``shapes`` gets a line for
    each place where anything else differs: a field set, a list length, a
    type or a value that is not a float.  The common fields and entries of
    such a place are compared on.
    """
    if isinstance(a, float) or isinstance(b, float):
        if type(a) in (int, float) and type(b) in (int, float):
            floats.append((where, a, b))
        else:
            shapes.append(f"{where}: {a!r} against {b!r}")
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            shapes.append(f"{where}: fields {sorted(a)} against {sorted(b)}")
        for key in [k for k in a if k in b]:
            compare(a[key], b[key], f"{where}.{key}", floats, shapes)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            shapes.append(f"{where}: {len(a)} entries against {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, f"{where}[{i}]", floats, shapes)
    elif type(a) is not type(b) or a != b:
        shapes.append(f"{where}: {a!r} against {b!r}")


def drift(floats) -> tuple[float, float, str]:
    """(relative, absolute difference, field) for the top-level field whose floats drift most.

    Each float is measured against the largest magnitude in its top-level field.
    """
    fields: dict[str, list[tuple[float, float]]] = {}
    for where, x, y in floats:
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
    changed = False
    for key in sorted(payloads.keys() ^ reference.keys()):
        print(f"{key}: only in {'this checkout' if key in payloads else 'the kept payloads'}")
        changed = True
    worst = 0.0
    for key in sorted(payloads.keys() & reference.keys()):
        (code, text), (ref_code, ref_text) = payloads[key], reference[key]
        if code != ref_code:
            print(f"{key}: exit code {code} against {ref_code}")
            changed = True
        if text == ref_text:
            continue
        floats, shapes = [], []
        compare(json.loads(text), json.loads(ref_text), "", floats, shapes)
        for line in shapes:
            print(f"{key}{line}")
        changed = changed or bool(shapes)
        rel, gap, field = drift(floats)
        worst = max(worst, rel)
        if field or not shapes:
            print(f"{key} {field}: relative {rel:.2e}, absolute {gap:.2e}")
    print(f"largest relative difference {worst:.2e}")
    sys.exit(1 if changed else 0)
if args.against is None:
    print(json.dumps(digests, indent=1, sort_keys=True))
    sys.exit(0)
with open(args.against, encoding="utf-8") as fh:
    reference = json.load(fh)
differ = sorted(key for key in digests.keys() | reference.keys() if digests.get(key) != reference.get(key))
for key in differ:
    print(key)
sys.exit(1 if differ else 0)
