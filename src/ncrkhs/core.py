"""Dense complex matrix arithmetic, free-monoid words and the tolerance policy.

Everything downstream works with plain ``numpy`` arrays of dtype complex128.
Words over the alphabet ``{1, ..., d}`` are stored as tuples of integers in
*product order*: the stored sequence ``(l_1, ..., l_N)`` denotes the matrix
product ``Z_{l_1} @ Z_{l_2} @ ... @ Z_{l_N}``.  The transpose of a word is the
reversal of the stored tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

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


# ---------------------------------------------------------------------------
# tolerances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by all checks.

    eq_rel     relative Frobenius threshold for equality of matrices
    psd_floor  minimum-eigenvalue floor, relative to max(1, ||m||_2)
    cond_max   condition-number cap for generated similarities
    """

    eq_rel: float = 1e-10
    psd_floor: float = 1e-9
    cond_max: float = 1e3

    def __post_init__(self):
        for name in ("eq_rel", "psd_floor", "cond_max"):
            if not getattr(self, name) > 0:
                raise InputError(f"tolerance {name} must be strictly positive")


DEFAULT_TOL = Tolerances()


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


def frozen(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i, j) equals a[i, j] * b."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, "fro"))


def spec_norm(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def rel_err(diff: float, scale: float) -> float:
    return diff / max(1.0, scale)


def min_eig_hermitian(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of the symmetrized matrix (m + m*)/2."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquare(f"min_eig_hermitian needs a square matrix, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(hermitize(m))[0])


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
    _require_finite(m)
    vals, vecs = np.linalg.eigh(hermitize(m))
    norm = float(np.max(np.abs(vals)))
    floor = tol.psd_floor * max(1.0, norm)
    if vals[0] < -floor:
        raise NotPsd(float(vals[0]), floor)
    keep = vals > tol.psd_floor * norm
    return vecs[:, keep] * np.sqrt(vals[keep])


def _require_finite(m: np.ndarray) -> None:
    # an eigensolver fails or returns garbage on NaN/Inf, which come from overflow
    if not np.all(np.isfinite(m)):
        raise InputError("the PSD test met non-finite entries (the computation overflowed)")


@dataclass(frozen=True)
class PsdVerdict:
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
        _require_finite(m)
        vals, vecs = np.linalg.eigh(hermitize(m))
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

def validate_word(w: Iterable[int], d: int) -> Word:
    word = tuple(int(l) for l in w)
    for letter in word:
        if not 1 <= letter <= d:
            raise LetterOutOfRange(f"letter {letter} outside 1..{d}")
    return word


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
    out: list[Word] = [EMPTY_WORD]
    layer: list[Word] = [EMPTY_WORD]
    for _ in range(max_len):
        layer = [w + (j,) for w in layer for j in range(1, d + 1)]
        out.extend(layer)
    return out


# ---------------------------------------------------------------------------
# matrix tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixTuple:
    """A point Z: d square complex matrices sharing size n x n.

    A point also remembers values computed at it (see :meth:`cached`), so a
    function sampled at the same point many times is evaluated once.
    """

    coords: tuple[np.ndarray, ...]
    _values: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coords) < 1:
            raise InputError("a matrix tuple needs at least one coordinate")
        coords = tuple(frozen(as_cmatrix(c)) for c in self.coords)
        n = coords[0].shape[0]
        for c in coords:
            if c.shape != (n, n):
                raise DimMismatch("all coordinates must be square of the same size")
        object.__setattr__(self, "coords", coords)

    @property
    def d(self) -> int:
        return len(self.coords)

    @property
    def n(self) -> int:
        return self.coords[0].shape[0]

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
            value = compute()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            entry = self._values[id(key)] = (key, value)
        return entry[1]


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
