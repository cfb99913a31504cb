"""Dense complex matrix arithmetic, free-monoid words and the tolerance policy.

Everything downstream works with plain ``numpy`` arrays of dtype complex128.
Words over the alphabet ``{1, ..., d}`` are stored as tuples of integers in
*product order*: the stored sequence ``(l_1, ..., l_N)`` denotes the matrix
product ``Z_{l_1} @ Z_{l_2} @ ... @ Z_{l_N}``.  The transpose of a word is the
reversal of the stored tuple.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

Word = tuple[int, ...]

EMPTY_WORD: Word = ()


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class NcrkhsError(Exception):
    """Base class for all library errors."""


class InputError(NcrkhsError):
    """Malformed input data (bad JSON, non-finite entries, bad shapes at parse)."""


class DimMismatch(NcrkhsError):
    """Operands have incompatible dimensions."""


class ShapeMismatch(DimMismatch):
    """Coefficient shapes do not compose."""


class NonSquare(NcrkhsError):
    """A square matrix was required."""


class NotPsd(NcrkhsError):
    """Matrix fails the positive-semidefinite floor."""

    def __init__(self, min_eig: float, floor: float):
        self.min_eig = float(min_eig)
        self.floor = float(floor)
        super().__init__(f"matrix is not PSD: min eigenvalue {min_eig:.6e} below floor {-floor:.6e}")


class LetterOutOfRange(NcrkhsError):
    """A word letter lies outside 1..d."""


class NotNilpotent(NcrkhsError):
    """Matrix tuple is not jointly nilpotent."""


class BadIntertwiner(NcrkhsError):
    """Supplied (Z, Z~, alpha) does not satisfy alpha Z = Z~ alpha."""


class InconsistentEvaluator(NcrkhsError):
    """Coefficient reads disagree across probes."""


class TruncationRefused(NcrkhsError):
    """Moment-form evaluation at a non-nilpotent point without the truncation flag."""


class TruncationTooShort(NcrkhsError):
    """Sampled nilpotency order exceeds the stored truncation length."""


class SamplerUnavailable(NcrkhsError):
    """No point sampler matches the kernel's domain."""


class MissingPair(NcrkhsError):
    """A needed generator pair is absent from an envelope kernel table."""


class NotInTarget(NcrkhsError):
    """A multiplied function does not lie in the target span."""

    def __init__(self, residual: float, message: str = ""):
        self.residual = float(residual)
        super().__init__(message or f"function not representable in target span (residual {residual:.3e})")


class NotContraction(NcrkhsError):
    """Operator norm exceeds one beyond the PSD floor."""


class NotCp(NcrkhsError):
    """Linear map fails the complete-positivity certificate."""

    def __init__(self, min_eig: float):
        self.min_eig = float(min_eig)
        super().__init__(f"Choi matrix has negative eigenvalue {min_eig:.6e}")


class Infeasible(NcrkhsError):
    """Linear system is inconsistent beyond tolerance."""

    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(f"target values are infeasible (residual {residual:.3e})")


class DependentBasis(NcrkhsError):
    """Basis coefficient vectors are linearly dependent."""


def check_positive(count: int, what: str) -> None:
    """Raise :class:`InputError` unless a certificate's count of ``what`` is at least one."""
    if count < 1:
        raise InputError(f"a certificate needs at least one {what}, got {count}")


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

class Record:
    """A record whose attributes are set once, by its ``__init__`` through :meth:`_set`.

    Assigning or deleting an attribute raises :class:`AttributeError`.  The
    records are plain classes rather than dataclasses: every start of the
    command-line tool creates each class again, and a plain class statement
    generates no code.
    """

    __slots__ = ()

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Record):
    """A record that compares, hashes and prints by its fields, in the order ``__init__`` sets them."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


# ---------------------------------------------------------------------------
# tolerances
# ---------------------------------------------------------------------------

class Tolerances(Value):
    """Numerical policy shared by all checks.

    eq_rel     relative Frobenius threshold for equality of matrices
    psd_floor  minimum-eigenvalue floor, relative to max(1, ||m||_2)
    """

    def __init__(self, eq_rel: float = 1e-10, psd_floor: float = 1e-9):
        for name, value in (("eq_rel", eq_rel), ("psd_floor", psd_floor)):
            if not value > 0:
                raise InputError(f"tolerance {name} must be strictly positive")
        self._set(eq_rel=eq_rel, psd_floor=psd_floor)


DEFAULT_TOL = Tolerances()

# Fixed multiples and cuts of the policy.  An equality check passes when
# rel_err(x, s) <= eq_rel * slack, with slack 1 unless named here.

# a side computed by a solve (least squares, or Z~ = S Z S^-1 through a
# rounded inverse) matches its target only to a multiple of eq_rel
SOLVE_SLACK = 100
# range membership in a Brangesian decomposition goes through gramian square
# roots and an SVD, which lose more digits than one solve
RANGE_SLACK = 1e3
# singular values and defect values at or below this are exact zeros
RANK_CUT = 1e-13
# an eigenvalue of P_M P_H P_M above this marks a direction in both ranges
OVERLAP_CUT = 1.0 - 1e-9
# a Frobenius norm below this may have lost digits to entries whose squares
# underflow (sqrt(tiny) / eps, about 6.7e-139); frobenius recomputes it scaled
NORM_UNDERFLOW = float(np.sqrt(np.finfo(np.float64).tiny) / np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def as_cmatrix(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a complex128 2-d array and validate finiteness."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise DimMismatch(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimMismatch(f"expected {cols} columns, got {m.shape[1]}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InputError("matrix has non-finite entries")
    return m


def _stacked(mats) -> np.ndarray | None:
    """``mats`` converted together to one finite complex128 array, or None where that fails."""
    try:
        block = np.array(mats, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        return None
    return block if np.isfinite(block).all() else None


def sorted_table(keys: Sequence, mats: Sequence, rows: int, cols: int, sort_key) -> tuple[list, np.ndarray]:
    """The keys ordered by ``sort_key``, and their ``as_cmatrix(mat, rows, cols)`` in that order.

    The matrices are converted and checked as one stacked array, returned
    read-only with shape (len(keys), rows, cols).  Only when that check
    fails is each matrix checked on its own, in the order given, so that the
    first bad one raises its own :func:`as_cmatrix` error.
    """
    block = _stacked(mats)
    if block is None or block.shape != (len(mats), rows, cols):
        checked = [as_cmatrix(m, rows, cols) for m in mats]
        block = np.array(checked, dtype=np.complex128).reshape(len(mats), rows, cols)
    ranks = list(map(sort_key, keys))
    order = sorted(range(len(keys)), key=ranks.__getitem__)
    if order != list(range(len(order))):
        block = block[order]
    block.setflags(write=False)
    return [keys[i] for i in order], block


def frozen(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i, j) equals a[i, j] * b."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def frobenius(m: np.ndarray, axis: tuple[int, int] | None = None):
    """The Frobenius norm of ``m``, or with ``axis`` that of each block over those two axes.

    Squaring entries beyond about 1e154 overflows, and squaring entries
    below about 1e-154 underflows, so a norm that comes out infinite for a
    finite ``m``, or below :data:`NORM_UNDERFLOW` for nonzero entries, is
    recomputed as ``s * ||m / s||`` with ``s = max|m|`` over the same
    entries; every other norm keeps its exact bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the rescale below replaces an overflow
        norm = np.linalg.norm(m, axis=axis)
    low, high = (norm, norm) if axis is None else (norm.min(initial=np.inf), norm.max(initial=0.0))
    if low < NORM_UNDERFLOW or high == np.inf:
        redo = np.isinf(norm) | ((norm < NORM_UNDERFLOW) & m.any(axis=axis))
        if redo.any() and np.isfinite(m).all():
            s = np.max(np.abs(m), axis=axis, keepdims=True)
            s = np.where(s > 0.0, s, 1.0)
            norm = np.where(redo, np.squeeze(s, axis) * np.linalg.norm(m / s, axis=axis), norm)
    return float(norm) if axis is None else norm


def spec_norm(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def require_finite(m: np.ndarray, what: str) -> None:
    """Raise :class:`InputError` on NaN or Infinity, which here come from overflow.

    An eigensolver fails or returns garbage on them, and JSON cannot carry them.
    """
    if not np.all(np.isfinite(m)):
        raise InputError(f"{what} met non-finite entries (the computation overflowed)")


def hermitize(m: np.ndarray, what: str) -> np.ndarray:
    """(m + m*)/2, the only input to an eigensolve; raises :class:`InputError` when it overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite reports the overflow
        h = (m + m.conj().T) / 2.0
    require_finite(h, what)
    return h


def rel_err(diff, scale):
    """``diff / max(1, scale)``, elementwise for arrays: the one relative test.

    Checks compare it with ``eq_rel`` times a named slack.  A NaN or Infinity
    in ``diff`` or ``scale`` is an overflowed norm, against which no check
    can fail, so it raises :class:`InputError`.
    """
    if not (np.all(np.isfinite(diff)) and np.all(np.isfinite(scale))):
        raise InputError("an equality test met a non-finite norm (the computation overflowed)")
    return diff / np.maximum(1.0, scale)


def psd_factor(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Factor a PSD matrix as m = F F* by eigendecomposition.

    Negative eigenvalues within the floor are clipped to zero; the rank of F
    is the number of eigenvalues above ``psd_floor * ||m||_2``.  Raises
    :class:`NotPsd` when an eigenvalue falls below ``-psd_floor * max(1, ||m||_2)``.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquare(f"psd_factor needs a square matrix, got shape {m.shape}")
    if m.size == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    vals, vecs = np.linalg.eigh(hermitize(m, "the PSD test"))
    norm = float(np.max(np.abs(vals)))
    floor = tol.psd_floor * max(1.0, norm)
    if vals[0] < -floor:
        raise NotPsd(float(vals[0]), floor)
    keep = vals > tol.psd_floor * norm
    return vecs[:, keep] * np.sqrt(vals[keep])


class PsdVerdict(NamedTuple):
    """Outcome of the PSD-floor test over a family of matrices."""

    passed: bool
    min_eig: float
    witness: np.ndarray | None


def psd_verdict(mats: Iterable[np.ndarray], tol: Tolerances = DEFAULT_TOL) -> PsdVerdict:
    """PSD-floor test of each (m + m*)/2: smallest eigenvalue >= -psd_floor * max(1, ||m||_2).

    The matrix whose smallest eigenvalue is lowest relative to its own scale
    decides the verdict and gives ``min_eig``; on a failure the witness is
    its eigenvector for that eigenvalue.
    """
    worst = None
    for m in mats:
        vals, vecs = np.linalg.eigh(hermitize(m, "the PSD test"))
        scale = max(1.0, float(np.max(np.abs(vals))))
        if worst is None or float(vals[0]) / scale < worst[0] / worst[1]:
            worst = (float(vals[0]), scale, vecs[:, 0])
    if worst is None:
        raise InputError("the PSD test needs at least one matrix")
    min_eig, scale, vec = worst
    passed = bool(min_eig >= -tol.psd_floor * scale)
    return PsdVerdict(passed, min_eig, None if passed else vec)


def direct_sum_matrices(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Block-diagonal direct sum of matrices."""
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols), dtype=np.complex128)
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


# ---------------------------------------------------------------------------
# free-monoid words
# ---------------------------------------------------------------------------

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


def validate_word(w: Iterable[int], d: int) -> Word:
    """The word as a tuple of ints in 1..d; a letter that is not an integral number is an input error."""
    word = []
    for letter in w:
        number = _integral(letter)
        if number is None:
            raise InputError(f"non-integer letter {letter!r}")
        if not 1 <= number <= d:
            raise LetterOutOfRange(f"letter {number} outside 1..{d}")
        word.append(number)
    return tuple(word)


def int_words(words: Iterable, d: int) -> list[Word] | None:
    """The words as tuples when every letter is an ``int`` in 1..d, checked in one pass; else None.

    Callers then check word by word with :func:`validate_word`, which also
    accepts integral floats and names the first bad letter.
    """
    words = list(words)
    letters = list(chain.from_iterable(words))
    if set(map(type, letters)) <= {int}:
        values = set(letters)
        if min(values, default=1) >= 1 and max(values, default=d) <= d:
            return list(map(tuple, words))
    return None


def word_transpose(w: Word) -> Word:
    """Reversal of the stored sequence."""
    return tuple(reversed(w))


def word_key(w: Word) -> tuple[int, Word]:
    """Graded lexicographic sort key."""
    return (len(w), w)


def words_up_to(d: int, max_len: int) -> list[Word]:
    """All words of length <= max_len in graded lexicographic order."""
    if d < 1:
        raise InputError("alphabet size d must be >= 1")
    if max_len < 0:
        raise InputError(f"word length bound must be >= 0, got {max_len}")
    out: list[Word] = [EMPTY_WORD]
    layer: list[Word] = [EMPTY_WORD]
    for _ in range(max_len):
        layer = [w + (j,) for w in layer for j in range(1, d + 1)]
        out.extend(layer)
    return out


# ---------------------------------------------------------------------------
# matrix tuples
# ---------------------------------------------------------------------------

class MatrixTuple(Record):
    """A point Z: d square complex matrices sharing size n x n.

    A point also remembers values computed at it (see :meth:`cached` and
    :func:`cached_at`), so a function sampled at the same point many times is
    evaluated once.  ``stacked`` is the read-only d x n x n array whose
    slices are ``coords``.
    """

    def __init__(self, coords: tuple[np.ndarray, ...]):
        if len(coords) < 1:
            raise InputError("a matrix tuple needs at least one coordinate")
        # one check of the stacked coordinates; each coordinate is a view into it
        block = _stacked(coords)
        if block is None or block.ndim != 3 or block.shape[1] != block.shape[2]:
            coords = [as_cmatrix(c) for c in coords]
            n = coords[0].shape[0]
            for c in coords:
                if c.shape != (n, n):
                    raise DimMismatch("all coordinates must be square of the same size")
            block = np.array(coords)
        block.setflags(write=False)
        self._set(coords=tuple(block), stacked=block, _values={})

    @property
    def d(self) -> int:
        return len(self.coords)

    @property
    def n(self) -> int:
        return self.coords[0].shape[0]

    @cached_property
    def strictly_triangular(self) -> bool:
        """True when every coordinate is exactly strictly upper triangular, or every one strictly lower.

        Such a point is jointly nilpotent of order <= max(n, 1) at any
        tolerance (see :func:`ncrkhs.series.nilpotency_orders`).  The test
        is exact and made once per point.
        """
        s = self.stacked
        return np.array_equal(s, np.triu(s, 1)) or np.array_equal(s, np.tril(s, -1))

    def coord(self, letter: int) -> np.ndarray:
        """Coordinate for a 1-based letter."""
        if not 1 <= letter <= self.d:
            raise LetterOutOfRange(f"letter {letter} outside 1..{self.d}")
        return self.coords[letter - 1]

    def scaled(self, t: float) -> "MatrixTuple":
        return MatrixTuple(tuple(t * c for c in self.coords))

    def cached(self, key, compute: Callable[[], object]):
        """``compute()`` for this point, computed once per ``key`` object.

        Entries are keyed by identity and keep ``key`` alive, so its id cannot
        be reused while the point lives, and equal but distinct keys never
        share an entry.  Array values are returned read-only.
        """
        entry = self._values.get(id(key))
        if entry is None:
            entry = self._keep(key, compute())
        return entry[1]

    def _keep(self, key, value) -> tuple:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        entry = self._values[id(key)] = (key, value)
        return entry


def cached_at(points: Sequence[MatrixTuple], key, compute: Callable[[list[MatrixTuple]], Sequence]) -> list:
    """Each point's :meth:`MatrixTuple.cached` value under ``key``.

    The distinct points that hold none get theirs from one call
    ``compute(missing)``, which returns their values in the order given.
    """
    k = id(key)
    missing = list({id(z): z for z in points if k not in z._values}.values())
    if missing:
        for z, value in zip(missing, compute(missing)):
            z._keep(key, value)
    return [z._values[k][1] for z in points]


def word_eval(w: Iterable[int], z: MatrixTuple) -> np.ndarray:
    """Ordered product of coordinates along the stored word; empty word -> I_n."""
    out = np.eye(z.n, dtype=np.complex128)
    for letter in w:
        out = out @ z.coord(int(letter))
    return out


def direct_sum(tuples: Sequence[MatrixTuple]) -> MatrixTuple:
    """Coordinate-wise block-diagonal tuple."""
    if not tuples:
        raise InputError("direct_sum of an empty sequence")
    d = tuples[0].d
    for z in tuples:
        if z.d != d:
            raise DimMismatch("direct_sum needs tuples with the same number of coordinates")
    coords = tuple(
        direct_sum_matrices([z.coords[j] for z in tuples]) for j in range(d)
    )
    return MatrixTuple(coords)


def zero_tuple(d: int, n: int) -> MatrixTuple:
    return MatrixTuple(tuple(np.zeros((n, n), dtype=np.complex128) for _ in range(d)))


def check_intertwiner(alpha, z: MatrixTuple, zt: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """``alpha`` as a zt.n x z.n matrix; raises :class:`BadIntertwiner` unless alpha Z_j = Z~_j alpha."""
    alpha = as_cmatrix(alpha, zt.n, z.n)
    scale = spec_norm(alpha)
    for j in range(z.d):
        gap = frobenius(alpha @ z.coords[j] - zt.coords[j] @ alpha)
        if rel_err(gap, scale * spec_norm(z.coords[j])) > tol.eq_rel * SOLVE_SLACK:
            raise BadIntertwiner(f"alpha Z_{j + 1} != Z~_{j + 1} alpha (gap {gap:.3e})")
    return alpha
