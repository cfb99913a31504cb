"""Seeded fuzzing of every CLI subcommand through damaged input files.

Each subcommand runs on small valid inputs, then once per input file and
damage kind with that one file replaced by a damaged copy:

- malformed: the JSON text cut short, or one field turned into a string,
  deleted, or changed into an array or a null;
- non-finite: one matrix entry set to NaN or +-Infinity (JSON literals);
- overflowing: every matrix entry scaled by 1e150 to 1e300, or one set to 1e308;
- fractional integer: one integer field (a size, a letter, d, k, ...) plus 0.5.

Every run must end with an exit code the README lists, print one JSON
document without NaN or Infinity, and leave no traceback.  A second sweep
sets every integer option of every subcommand to 0 and to -1 on the valid
inputs, with the same demands; -1 is never a valid count, size or seed.
"""

import argparse
import json
import warnings

import numpy as np
import pytest

from ncrkhs import cli
from ncrkhs.core import MatrixTuple
from ncrkhs.cpmaps import CpMap
from ncrkhs.kernels import AlgebraSpec, KolmogorovKernel, szego_kernel
from ncrkhs.serialize import (
    encode_cp_map,
    encode_formal_kernel,
    encode_kernel,
    encode_matrix,
    encode_series,
    encode_tuple,
)
from ncrkhs.series import NcSeries

J2 = np.array([[0.0, 1.0], [0.0, 0.0]])
SERIES = encode_series(NcSeries(2, 1, 1, {(): [[1.0]], (1,): [[0.5]], (2, 1): [[0.25]]}))
POINT = encode_tuple(MatrixTuple((J2, 0.5 * J2)))
SZEGO = encode_kernel(szego_kernel(1, 2))
KOLMOGOROV = encode_kernel(KolmogorovKernel(AlgebraSpec(), NcSeries(1, 1, 1, {(): [[1.0]], (1,): [[0.5]]})))
TARGET = {"samples": [{"point": encode_tuple(MatrixTuple((J2,))), "u": encode_matrix(np.ones((2, 1))),
                       "value": encode_matrix(np.array([[1.5], [1.0]]))}]}
MODEL = {"algebra": {"kind": "scalar", "k": 1, "r": 1}, "y_dim": 1,
         "basis": [encode_series(NcSeries.constant(1, [[1.0]])), encode_series(NcSeries.monomial(1, (1,), [[1.0]]))],
         "gram": encode_matrix(np.array([[2.0, 0.5], [0.5, 1.0]]))}
CONTRACTION = {"a": encode_matrix(np.array([[0.5, 0.0], [0.25, 0.5]])),
               "gram_src": encode_matrix(np.diag([1.0, 2.0]))}
CP_MAP = encode_cp_map(CpMap.from_kraus([np.array([[1.0, 0.5], [0.0, 1.0]])]))
HALF = encode_series(NcSeries.constant(1, [[0.5]]))
SAMPLING = ["--points", "2", "--sizes", "1,2", "--seed", "1"]

# subcommand -> (options, {file flag: valid payload})
COMMANDS = {
    "eval": ([], {"series": SERIES, "point": POINT}),
    "nilp-eval": ([], {"series": SERIES, "point": POINT}),
    "extract-coeffs": (["--max-len", "2"], {"series": SERIES}),
    "check-ncfun": (["--samples", "2", "--max-size", "2", "--seed", "1"], {"series": SERIES}),
    "check-kernel": (["--samples", "1", "--sizes", "1,2", "--seed", "1"], {"kernel": SZEGO}),
    "cp-certify": (SAMPLING, {"kernel": SZEGO}),
    "kolmogorov": (["--points", "2", "--sizes", "1,2", "--seed", "1"], {"kernel": SZEGO}),
    "kernel-from-basis": ([], {"model": MODEL}),
    "bergman": ([], {"model": MODEL}),
    "lifted-norm": ([], {"kernel": KOLMOGOROV, "target": TARGET}),
    "multiplier-check": (SAMPLING, {"source": SZEGO, "target": SZEGO, "s": HALF}),
    "brangesian": (["--vectors", "2", "--splits", "2", "--seed", "1"], {"contraction": CONTRACTION}),
    "containment": (SAMPLING, {"kprime": SZEGO, "k": SZEGO}),
    "formal-factor": (["--L", "1"], {"kernel": encode_formal_kernel(szego_kernel(1, 2))}),
    "formal-positivity": (["--L", "1", "--seed", "1"], {"kernel": encode_formal_kernel(szego_kernel(1, 2))}),
    "stinespring": ([], {"map": CP_MAP}),
    "cb-norm": (["--samples", "2", "--seed", "1"], {"map": CP_MAP}),
    "effros-ruan": (["--samples", "2", "--seed", "1"], {"map": CP_MAP}),
}


def _leaves(node, path=(), in_data=False):
    """(path, value, is_entry) for every number, string and null; entries sit inside a "data" array."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,), in_data or key == "data")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,), in_data)
    else:
        yield path, node, in_data


def _nodes(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


_DELETE = object()


def _set(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced (or deleted, for _DELETE)."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _malformed(rng, doc):
    if rng.random() < 0.3:
        text = json.dumps(doc)
        return text[: int(rng.integers(len(text)))]
    path = _pick(rng, list(_nodes(doc)))
    options = ["x", [], {}, None] + ([_DELETE] if path and isinstance(path[-1], str) else [])
    return json.dumps(_set(doc, path, _pick(rng, options)))


def _non_finite(rng, doc):
    entries = [path for path, value, is_entry in _leaves(doc) if is_entry]
    return json.dumps(_set(doc, _pick(rng, entries), _pick(rng, [float("nan"), float("inf"), -float("inf")])))


def _overflowing(rng, doc):
    entries = [(path, value) for path, value, is_entry in _leaves(doc) if is_entry]
    if rng.random() < 0.5:
        return json.dumps(_set(doc, _pick(rng, entries)[0], 1e308))
    factor = 10.0 ** int(rng.integers(150, 301))
    for path, value in entries:
        doc = _set(doc, path, value * factor)
    return json.dumps(doc)


def _fractional(rng, doc):
    fields = [(path, value) for path, value, is_entry in _leaves(doc)
              if not is_entry and type(value) is int]
    path, value = _pick(rng, fields)
    return json.dumps(_set(doc, path, value + 0.5))


DAMAGE = {"malformed": _malformed, "non-finite": _non_finite, "overflowing": _overflowing,
          "fractional-integer": _fractional}
# draws per damage kind and input file
DRAWS = 3


def _reject_constant(name):
    raise ValueError(f"bare {name} in the payload")


def _run(capsys, argv, label):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2, 3, 4), (label, code)
    assert not caught, (label, [f"{w.category.__name__}: {w.message}" for w in caught])
    payload = json.loads(captured.out, parse_constant=_reject_constant)
    assert cli.EXIT_CODES[payload["status"]] == code, label
    # stderr holds the summary line alone: no traceback and no warning
    assert captured.err == f"ncrkhs {argv[0]}: {payload['status']}\n", (label, captured.err)
    return code


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_damaged_inputs_give_typed_outcomes(tmp_path, capsys, command):
    options, files = COMMANDS[command]
    paths = {}
    for flag, payload in files.items():
        paths[flag] = tmp_path / f"{flag}.json"
        paths[flag].write_text(json.dumps(payload))

    def argv():
        return [command, *options, *[part for flag, path in paths.items() for part in (f"--{flag}", str(path))]]

    assert _run(capsys, argv(), "valid inputs") == 0
    rng = np.random.default_rng([sorted(COMMANDS).index(command), 2016])
    for flag, payload in files.items():
        valid = paths[flag]
        for kind, damage in DAMAGE.items():
            for draw in range(DRAWS):
                paths[flag] = tmp_path / f"{flag}-{kind}-{draw}.json"
                text = damage(rng, payload)
                paths[flag].write_text(text)
                _run(capsys, argv(), f"--{flag} {kind}: {text[:300]}")
        paths[flag] = valid


def _integer_options(command):
    subs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(COMMANDS)
    return [a.option_strings[0] for a in subs.choices[command]._actions if a.type is int]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_integer_options_out_of_range_give_typed_outcomes(tmp_path, capsys, command):
    options, files = COMMANDS[command]
    paths = []
    for flag, payload in files.items():
        path = tmp_path / f"{flag}.json"
        path.write_text(json.dumps(payload))
        paths += [f"--{flag}", str(path)]
    for option in _integer_options(command):
        for value in ("0", "-1"):
            changed = list(options)
            if option in changed:
                changed[changed.index(option) + 1] = value
            else:
                changed += [option, value]
            code = _run(capsys, [command, *changed, *paths], f"{option} {value}")
            assert value == "0" or code == 2, (option, value)
