"""JSON encoding of matrices, words, series, kernels and cp maps.

Complex scalars are two-element arrays [re, im]; matrices are row-major.
Serialized words use the stored (product-order) convention.  The canonical
dumper renders floats with 17 significant digits so that identical inputs
and seeds produce byte-identical payloads.

Each table (a matrix's entries, a series' terms, a moment table) is
converted once, end to end: the decoders read every coefficient of a
table into one numpy array, check the letters of all its words in one
pass, and hand those keys and that array to the series' or kernel's
constructor core, which keeps the array (sorting it only when the words
are out of graded order) instead of checking and stacking it again.
Only input that pass does not accept is walked entry by entry, which
names the bad entry.

The dumper also takes numpy arrays, each rendered as the matrix object that
:func:`encode_matrix` builds, and formats every float of a payload, those of
its arrays included, with one format call.  The CLI therefore hands it the
arrays themselves.  An array holding many exact zeros (a signed
permutation, a block triangular value) writes them as the literal ``0``
that ``%.17g`` would print, and formats only its nonzero floats.  The
public ``encode_*`` functions keep returning JSON-native objects (lists of
Python floats); they and the CLI build each file form with the same private
builder, which takes the matrix leaf as an argument.

The codec of an object kind imports that kind's module when it is called,
so reading a series or a cp map runs no kernel code.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Any

import numpy as np

from .core import (
    DEFAULT_TOL,
    InputError,
    MatrixTuple,
    Tolerances,
    _integral,
    as_cmatrix,
    int_words,
    validate_word,
)

if TYPE_CHECKING:
    from .cpmaps import CpMap
    from .kernels import AlgebraSpec, KernelBase, MomentKernel
    from .rkhs import RkhsModel
    from .series import NcSeries


# ---------------------------------------------------------------------------
# canonical dumping
# ---------------------------------------------------------------------------

def _layout(obj: Any, text: list[str], numbers: list) -> None:
    """Append the JSON text of ``obj`` to ``text``, each float as a ``%.17g`` slot.

    The floats go to ``numbers`` in document order: a Python float as it
    is, an array's entries as one float64 array of [re, im] pairs.
    Literal text has its ``%`` doubled.  The kind of an object of a plain
    type is looked up by its exact type; only a subclass, such as a numpy
    scalar, walks the ``isinstance`` chain of :func:`_kind`.

    An array with at least ``_ZERO_LITERALS`` exact-zero floats is written
    pair by pair from the four templates of ``_PAIRS``, a zero as the literal
    ``0`` (which ``%.17g`` also prints for 0.0 and, after the dumper adds
    0.0, for -0.0), and only its nonzero floats become slots; NaN and
    Infinity are nonzero, so they still reach the finiteness check.  Below
    that count the template lookup costs more than the slots it saves, and
    the array keeps one slot per float.
    """
    kind = _KINDS.get(type(obj)) or _kind(obj)
    if kind is dict:
        text.append("{")
        sep = ""
        for key, value in obj.items():
            text.append(sep + _key_text(key))
            sep = ","
            _layout(value, text, numbers)
        text.append("}")
    elif kind is list and set(map(type, obj)) == {int}:
        text.append("[" + ",".join(map(str, obj)) + "]")  # a word, in one join
    elif kind is list:
        text.append("[")
        for i, value in enumerate(obj):
            if i:
                text.append(",")
            _layout(value, text, numbers)
        text.append("]")
    elif kind is float:
        text.append("%.17g")
        numbers.append(float(obj))
    elif kind is str:
        text.append(json.dumps(obj).replace("%", "%%"))
    elif kind is int:
        text.append(str(int(obj)))
    elif kind is bool:
        text.append("true" if obj else "false")
    elif kind is type(None):
        text.append("null")
    elif obj.ndim in (1, 2) and obj.dtype.kind in "biufc":
        # the object encode_matrix builds: a 1-D array is a column, entries are complex
        rows, cols = obj.shape if obj.ndim == 2 else (obj.shape[0], 1)
        values = np.ascontiguousarray(obj, dtype=np.complex128).reshape(-1).view(np.float64)
        # an array of fewer floats cannot hold _ZERO_LITERALS zeros, so it is not counted
        if values.size >= _ZERO_LITERALS and values.size - np.count_nonzero(values) >= _ZERO_LITERALS:
            nonzero = values != 0
            pairs = nonzero.reshape(-1, 2)
            data = ",".join(_PAIRS[2 * pairs[:, 0] + pairs[:, 1]].tolist())
            values = values[nonzero]
        else:
            data = ",".join(["[%.17g,%.17g]"] * obj.size)
        text.append(f'{{"rows":{rows},"cols":{cols},"data":[' + data + "]}")
        numbers.append(values)
    else:
        raise InputError(f"cannot serialize object of type {type(obj).__name__}")


# the exact-zero floats from which an array writes its zeros as literals: below
# this count the per-pair template lookup costs more than the "%.17g" slots it saves
_ZERO_LITERALS = 32
# an [re, im] pair's template, indexed by 2 * (re != 0) + (im != 0)
_PAIRS = np.array(["[0,0]", "[0,%.17g]", "[%.17g,0]", "[%.17g,%.17g]"], dtype=object)

# the kind _layout renders each plain type as
_KINDS: dict[type, type] = {dict: dict, list: list, tuple: list, float: float, str: str, int: int,
                            bool: bool, type(None): type(None), np.ndarray: np.ndarray}


def _kind(obj: Any) -> type:
    """The kind of an object whose type is not in ``_KINDS``: the first plain type it is an instance of."""
    for kinds, kind in ((str, str), ((int, np.integer), int), ((float, np.floating), float), (dict, dict),
                        ((list, tuple), list), (np.ndarray, np.ndarray)):
        if isinstance(obj, kinds):
            return kind
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


@lru_cache(maxsize=1024, typed=True)
def _key_text(key) -> str:
    """``"key":`` as the dumper writes a dict key, ``%`` doubled; payloads repeat a few field names."""
    return json.dumps(str(key)).replace("%", "%%") + ":"


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: dict order preserved, floats at 17 significant digits.

    A numpy array renders as its :func:`encode_matrix` object.  ``%.17g``
    renders a float as ``format(x, ".17g")`` does; adding 0.0 maps -0.0,
    which it would print as "-0", to 0.
    """
    text: list[str] = []
    numbers: list = []
    _layout(obj, text, numbers)
    flat = np.hstack(numbers) + 0.0 if numbers else np.zeros(0)
    finite = np.isfinite(flat)
    if not finite.all():
        # JSON has no NaN or Infinity; such a value comes from overflow
        bad = float(flat[np.argmin(finite)])
        raise InputError(f"cannot encode the non-finite number {bad} (the computation overflowed)")
    return "".join(text) % tuple(flat.tolist())


# ---------------------------------------------------------------------------
# scalars, matrices, words, tuples
# ---------------------------------------------------------------------------

def decode_complex(data, where: str = "scalar") -> complex:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise InputError(f"{where}: complex scalar must be a two-element [re, im] array")
    try:
        return complex(float(data[0]), float(data[1]))
    except OverflowError as exc:
        raise InputError(f"{where}: complex scalar overflows double precision") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: non-numeric complex scalar") from exc


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
        "data": np.ascontiguousarray(m.reshape(-1)).view(np.float64).reshape(-1, 2).tolist(),
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
    # numeric [re, im] pairs are converted and checked as one array; the
    # per-entry walk runs only to name what is wrong
    try:
        pairs = np.array(entries)
    except (ValueError, OverflowError):
        pairs = None
    if (pairs is None or pairs.dtype.kind not in "biuf" or pairs.shape != (rows * cols, 2)
            or not np.isfinite(pairs).all()):
        values = [decode_complex(e, where) for e in entries]
        return as_cmatrix(np.array(values, dtype=np.complex128).reshape(rows, cols))
    return pairs.astype(np.float64, copy=False).view(np.complex128).reshape(rows, cols)


def _decode_table(items, word_fields: tuple[str, ...], rows: int, cols: int, d: int, build):
    """``build(keys, block)`` from an array of table entries read in one pass, or None.

    A key is the entry's word, or its tuple of words when ``word_fields``
    names more than one; ``block`` is the read-only (len(items), rows, cols)
    array of the coefficients, which ``build`` (the series' or kernel's
    constructor core) keeps.  None, for the caller to walk the entries one
    by one and name the bad one, unless every entry is an object whose words
    are arrays of ints in 1..d and whose ``coeff`` is a finite numeric rows x
    cols matrix, no key repeats, and ``build`` accepts the table.  An empty
    table takes the walk too.
    """
    if type(items) is not list or set(map(type, items)) != {dict}:
        return None
    words = [[item.get(field) for item in items] for field in word_fields]
    coeffs = [item.get("coeff") for item in items]
    if set(map(type, chain.from_iterable(words))) != {list} or set(map(type, coeffs)) != {dict}:
        return None
    try:
        dims = list(map(itemgetter("rows", "cols"), coeffs))
        data = list(map(itemgetter("data"), coeffs))
    except KeyError:
        return None
    if (dims != [(rows, cols)] * len(coeffs) or set(map(type, chain.from_iterable(dims))) != {int}
            or set(map(type, data)) != {list}):
        return None
    try:
        pairs = np.array(data)
    except (ValueError, OverflowError):
        return None
    if (pairs.dtype.kind not in "biuf" or pairs.shape != (len(items), rows * cols, 2)
            or not np.isfinite(pairs).all()):
        return None
    # the letters of every field, checked in one pass
    flat = int_words(chain.from_iterable(words), d)
    if flat is None:
        return None
    m = len(items)
    keys = list(zip(*(flat[i * m:(i + 1) * m] for i in range(len(word_fields))))) if len(word_fields) > 1 else flat
    if len(set(keys)) < m:
        return None
    block = pairs.astype(np.float64, copy=False).view(np.complex128).reshape(m, rows, cols)
    block.setflags(write=False)
    try:
        return build(keys, block)
    # a table ``build`` rejects: the walk raises the same error again
    except InputError:
        return None


def decode_objects(data, where: str) -> list[dict]:
    """A JSON array whose entries are all objects."""
    if not isinstance(data, list):
        raise InputError(f"{where}: expected an array")
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise InputError(f"{where}[{i}]: expected an object")
    return data


def encode_word(w) -> list[int]:
    return list(map(int, w))


def decode_word(data, d: int, where: str = "word"):
    if not isinstance(data, list):
        raise InputError(f"{where}: a word is an array of integers")
    try:
        return validate_word(data, d)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _tuple_form(z: MatrixTuple, leaf) -> dict:
    """The file form of a tuple, each coordinate rendered by ``leaf``."""
    return {
        "d": z.d,
        "n": z.n,
        "coords": [leaf(c) for c in z.coords],
    }


def encode_tuple(z: MatrixTuple) -> dict:
    return _tuple_form(z, encode_matrix)


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

def _series_form(f: NcSeries, leaf) -> dict:
    """The file form of a series, each coefficient rendered by ``leaf``."""
    return {
        "d": f.d,
        "p": f.out_dim,
        "q": f.in_dim,
        "terms": [
            {"word": encode_word(w), "coeff": leaf(c)} for w, c in f.terms.items()
        ],
    }


def encode_series(f: NcSeries) -> dict:
    return _series_form(f, encode_matrix)


def decode_series(data, where: str = "series") -> NcSeries:
    from .series import NcSeries

    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object with d/p/q/terms")
    d = decode_int(data, "d", where)
    p = decode_int(data, "p", where)
    q = decode_int(data, "q", where)
    series = _decode_table(data.get("terms"), ("word",), p, q, d,
                           lambda words, block: NcSeries._of_table(d, p, q, words, block))
    if series is not None:
        return series
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
    from .kernels import FULL_MATRIX, SCALAR, AlgebraSpec

    if data is None:
        return AlgebraSpec(SCALAR)
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object with kind/k/r")
    kind = data.get("kind", SCALAR)
    if kind not in (SCALAR, FULL_MATRIX):
        raise InputError(f"{where}: unknown algebra kind {kind!r}")
    return AlgebraSpec(kind, decode_int(data, "k", where, 1), decode_int(data, "r", where, 1))


def _decode_moment_kernel(data, where: str, tol: Tolerances) -> MomentKernel:
    from .kernels import MomentKernel

    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object with d/y_dim/max_len/moments")
    d = decode_int(data, "d", where)
    y_dim = decode_int(data, "y_dim", where)
    max_len = decode_int(data, "max_len", where)
    kernel = _decode_table(data.get("moments", []), ("row_word", "col_word"), y_dim, y_dim, d,
                           lambda keys, block: MomentKernel._of_table(d, y_dim, keys, block, max_len, tol))
    if kernel is not None:
        return kernel
    moments = {}
    for i, item in enumerate(decode_objects(data.get("moments", []), f"{where}.moments")):
        at = f"{where}.moments[{i}]"
        wa = decode_word(item.get("row_word"), d, f"{at}.row_word")
        wb = decode_word(item.get("col_word"), d, f"{at}.col_word")
        if (wa, wb) in moments:
            raise InputError(f"{at}: duplicate moment pair")
        moments[(wa, wb)] = decode_matrix(item.get("coeff"), f"{at}.coeff")
    return MomentKernel(d, y_dim, moments, max_len, tol)


def _kernel_form(kernel: KernelBase, leaf) -> dict:
    """The file form of a kernel, each matrix rendered by ``leaf``."""
    from .kernels import GramBasisKernel, KolmogorovKernel, MomentKernel

    if isinstance(kernel, MomentKernel):
        return {
            "form": "moment",
            "d": kernel.d,
            "y_dim": kernel.y_dim,
            "max_len": kernel.max_len,
            "moments": [
                {"row_word": encode_word(wa), "col_word": encode_word(wb), "coeff": leaf(c)}
                for (wa, wb), c in kernel.moments.items()
            ],
        }
    if isinstance(kernel, KolmogorovKernel):
        return {
            "form": "kolmogorov",
            "algebra": encode_algebra(kernel.algebra),
            "s": kernel.s,
            "h": _series_form(kernel.h, leaf),
        }
    if isinstance(kernel, GramBasisKernel):
        return {
            "form": "gram_basis",
            "algebra": encode_algebra(kernel.algebra),
            "basis": [_series_form(f, leaf) for f in kernel.basis],
            "gram": leaf(kernel.gram),
        }
    raise InputError(f"kernel of type {type(kernel).__name__} has no file form")


def encode_kernel(kernel: KernelBase) -> dict:
    return _kernel_form(kernel, encode_matrix)


def decode_kernel(data, where: str = "kernel", tol: Tolerances = DEFAULT_TOL) -> KernelBase:
    from .kernels import GramBasisKernel, KolmogorovKernel

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
    from .rkhs import RkhsModel

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
    from .cpmaps import CpMap

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
