"""JSON encoding of matrices, words, series, kernels and cp maps.

Complex scalars are two-element arrays [re, im]; matrices are row-major.
Serialized words use the stored (product-order) convention.  The canonical
dumper renders floats with 17 significant digits so that identical inputs
and seeds produce byte-identical payloads.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .core import DEFAULT_TOL, InputError, MatrixTuple, Tolerances, as_cmatrix, validate_word
from .cpmaps import CpMap
from .kernels import (
    FULL_MATRIX,
    SCALAR,
    AlgebraSpec,
    GramBasisKernel,
    KernelBase,
    KolmogorovKernel,
    MomentKernel,
)
from .rkhs import RkhsModel
from .series import NcSeries


# ---------------------------------------------------------------------------
# canonical dumping
# ---------------------------------------------------------------------------

def _render_float(x: float) -> str:
    if x == 0.0:
        return "0"
    if not math.isfinite(x):
        # JSON has no NaN or Infinity; such a value comes from overflow
        raise InputError(f"cannot encode the non-finite number {x} (the computation overflowed)")
    return format(float(x), ".17g")


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: dict order preserved, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _render_float(float(obj))
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{dumps_canonical(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# scalars, matrices, words, tuples
# ---------------------------------------------------------------------------

def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(data, where: str = "scalar") -> complex:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise InputError(f"{where}: complex scalar must be a two-element [re, im] array")
    try:
        return complex(float(data[0]), float(data[1]))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: non-numeric complex scalar") from exc


def _integral(value) -> int | None:
    """``value`` as an int when it is an integral number (not a boolean), else None."""
    if type(value) is int:
        return value
    if isinstance(value, (bool, np.bool_)):
        return None
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    return None


def decode_int(data: dict, key: str, where: str, default: int | None = None) -> int:
    """The integer field ``key`` of a JSON object, or ``default`` when it is absent."""
    value = data.get(key, default)
    number = _integral(value)
    if number is None:
        raise InputError(f"{where}: field {key!r} must be an integer, got {value!r}")
    return number


def encode_matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [encode_complex(z) for z in m.reshape(-1)],
    }


def decode_matrix(data, where: str = "matrix") -> np.ndarray:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object with rows/cols/data")
    rows = decode_int(data, "rows", where)
    cols = decode_int(data, "cols", where)
    if rows < 0 or cols < 0:
        raise InputError(f"{where}: rows and cols must be >= 0")
    entries = data.get("data")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise InputError(f"{where}: data must hold rows*cols = {rows * cols} entries")
    values = [decode_complex(e, where) for e in entries]
    return as_cmatrix(np.array(values, dtype=np.complex128).reshape(rows, cols))


def decode_objects(data, where: str) -> list[dict]:
    """A JSON array whose entries are all objects."""
    if not isinstance(data, list):
        raise InputError(f"{where}: expected an array")
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise InputError(f"{where}[{i}]: expected an object")
    return data


def encode_word(w) -> list[int]:
    return [int(l) for l in w]


def decode_word(data, d: int, where: str = "word"):
    if not isinstance(data, list):
        raise InputError(f"{where}: a word is an array of integers")
    letters = [l if type(l) is int else _integral(l) for l in data]
    if None in letters:
        raise InputError(f"{where}: non-integer letter")
    return validate_word(letters, d)


def encode_tuple(z: MatrixTuple) -> dict:
    return {
        "d": z.d,
        "n": z.n,
        "coords": [encode_matrix(c) for c in z.coords],
    }


def decode_tuple(data, where: str = "point") -> MatrixTuple:
    if not isinstance(data, dict) or "coords" not in data:
        raise InputError(f"{where}: expected an object with d/n/coords")
    coords = [decode_matrix(c, f"{where}.coords[{i}]")
              for i, c in enumerate(decode_objects(data["coords"], f"{where}.coords"))]
    z = MatrixTuple(tuple(coords))
    if decode_int(data, "d", where, z.d) != z.d:
        raise InputError(f"{where}: declared d={data['d']} but {z.d} coordinates given")
    if decode_int(data, "n", where, z.n) != z.n:
        raise InputError(f"{where}: declared n={data['n']} but coordinates are {z.n}x{z.n}")
    return z


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def encode_series(f: NcSeries) -> dict:
    return {
        "d": f.d,
        "p": f.out_dim,
        "q": f.in_dim,
        "terms": [
            {"word": encode_word(w), "coeff": encode_matrix(c)} for w, c in f.terms.items()
        ],
    }


def decode_series(data, where: str = "series") -> NcSeries:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object with d/p/q/terms")
    d = decode_int(data, "d", where)
    p = decode_int(data, "p", where)
    q = decode_int(data, "q", where)
    terms = {}
    for i, item in enumerate(decode_objects(data.get("terms"), f"{where}.terms")):
        word = decode_word(item.get("word"), d, f"{where}.terms[{i}].word")
        if word in terms:
            raise InputError(f"{where}.terms[{i}]: duplicate word {list(word)}")
        terms[word] = decode_matrix(item.get("coeff"), f"{where}.terms[{i}].coeff")
    return NcSeries(d, p, q, terms)


# ---------------------------------------------------------------------------
# algebras and kernels
# ---------------------------------------------------------------------------

def encode_algebra(a: AlgebraSpec) -> dict:
    return {"kind": a.kind, "k": a.k, "r": a.r}


def decode_algebra(data, where: str = "algebra") -> AlgebraSpec:
    if data is None:
        return AlgebraSpec(SCALAR)
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object with kind/k/r")
    kind = data.get("kind", SCALAR)
    if kind not in (SCALAR, FULL_MATRIX):
        raise InputError(f"{where}: unknown algebra kind {kind!r}")
    return AlgebraSpec(kind, decode_int(data, "k", where, 1), decode_int(data, "r", where, 1))


def _encode_moment_table(moments) -> list[dict]:
    return [
        {"row_word": encode_word(wa), "col_word": encode_word(wb), "coeff": encode_matrix(c)}
        for (wa, wb), c in moments.items()
    ]


def _decode_moment_kernel(data, where: str, tol: Tolerances) -> MomentKernel:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object with d/y_dim/max_len/moments")
    d = decode_int(data, "d", where)
    y_dim = decode_int(data, "y_dim", where)
    max_len = decode_int(data, "max_len", where)
    moments = {}
    for i, item in enumerate(decode_objects(data.get("moments", []), f"{where}.moments")):
        at = f"{where}.moments[{i}]"
        wa = decode_word(item.get("row_word"), d, f"{at}.row_word")
        wb = decode_word(item.get("col_word"), d, f"{at}.col_word")
        if (wa, wb) in moments:
            raise InputError(f"{at}: duplicate moment pair")
        moments[(wa, wb)] = decode_matrix(item.get("coeff"), f"{at}.coeff")
    return MomentKernel(d, y_dim, moments, max_len, tol)


def encode_kernel(kernel: KernelBase) -> dict:
    if isinstance(kernel, MomentKernel):
        return {
            "form": "moment",
            "d": kernel.d,
            "y_dim": kernel.y_dim,
            "max_len": kernel.max_len,
            "moments": _encode_moment_table(kernel.moments),
        }
    if isinstance(kernel, KolmogorovKernel):
        return {
            "form": "kolmogorov",
            "algebra": encode_algebra(kernel.algebra),
            "s": kernel.s,
            "h": encode_series(kernel.h),
        }
    if isinstance(kernel, GramBasisKernel):
        return {
            "form": "gram_basis",
            "algebra": encode_algebra(kernel.algebra),
            "basis": [encode_series(f) for f in kernel.basis],
            "gram": encode_matrix(kernel.gram),
        }
    raise InputError(f"kernel of type {type(kernel).__name__} has no file form")


def decode_kernel(data, where: str = "kernel", tol: Tolerances = DEFAULT_TOL) -> KernelBase:
    if not isinstance(data, dict) or "form" not in data:
        raise InputError(f"{where}: expected an object with a 'form' field")
    form = data["form"]
    if form == "moment":
        return _decode_moment_kernel(data, where, tol)
    if form == "kolmogorov":
        algebra = decode_algebra(data.get("algebra"), f"{where}.algebra")
        h = decode_series(data.get("h"), f"{where}.h")
        s = decode_int(data, "s", where, max(1, h.in_dim // max(1, algebra.rep_dim)))
        return KolmogorovKernel(algebra, h, s)
    if form == "gram_basis":
        algebra = decode_algebra(data.get("algebra"), f"{where}.algebra")
        basis = [decode_series(b, f"{where}.basis[{i}]")
                 for i, b in enumerate(decode_objects(data.get("basis", []), f"{where}.basis"))]
        gram = decode_matrix(data.get("gram"), f"{where}.gram")
        return GramBasisKernel(algebra, basis, gram, tol)
    raise InputError(f"{where}: unknown kernel form {form!r}")


def encode_formal_kernel(kernel: MomentKernel) -> dict:
    """The moment form of :func:`encode_kernel`, marked ``"formal": true``."""
    return {"formal": True, **encode_kernel(kernel)}


def decode_formal_kernel(data, where: str = "formal kernel",
                         tol: Tolerances = DEFAULT_TOL) -> MomentKernel:
    """A moment table read as a formal kernel; the "form" and "formal" fields are optional."""
    return _decode_moment_kernel(data, where, tol)


# ---------------------------------------------------------------------------
# RKHS models and cp maps
# ---------------------------------------------------------------------------

def encode_model(m: RkhsModel) -> dict:
    return {
        "algebra": encode_algebra(m.algebra),
        "y_dim": m.y_dim,
        "basis": [encode_series(f) for f in m.basis],
        "gram": encode_matrix(m.gram),
    }


def decode_model(data, where: str = "model", tol: Tolerances = DEFAULT_TOL) -> RkhsModel:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object with algebra/basis/gram")
    algebra = decode_algebra(data.get("algebra"), f"{where}.algebra")
    basis = [decode_series(b, f"{where}.basis[{i}]")
             for i, b in enumerate(decode_objects(data.get("basis", []), f"{where}.basis"))]
    if not basis:
        raise InputError(f"{where}: model needs a nonempty basis")
    gram = decode_matrix(data.get("gram"), f"{where}.gram")
    return RkhsModel(algebra, basis, gram, tol)


def encode_cp_map(phi: CpMap) -> dict:
    return {
        "k": phi.k,
        "m": phi.m,
        "units": [
            [encode_matrix(phi.unit_values[(p, q)]) for q in range(phi.k)] for p in range(phi.k)
        ],
    }


def decode_cp_map(data, where: str = "map", tol: Tolerances = DEFAULT_TOL) -> CpMap:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object with k/m/units")
    k = decode_int(data, "k", where)
    m = decode_int(data, "m", where)
    rows = data.get("units")
    if not isinstance(rows, list) or len(rows) != k or any(not isinstance(r, list) or len(r) != k for r in rows):
        raise InputError(f"{where}: units must be a {k} x {k} grid of matrices")
    units = {
        (p, q): decode_matrix(rows[p][q], f"{where}.units[{p}][{q}]")
        for p in range(k)
        for q in range(k)
    }
    return CpMap(k, m, units, tol)
