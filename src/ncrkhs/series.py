"""Noncommutative polynomials and truncated series with operator coefficients.

A series ``f(z) = sum_w f_w z^w`` is a finitely supported map from stored
words to ``out_dim x in_dim`` coefficient matrices.  Evaluation at a point
``Z`` of size n returns the ``(n*out_dim) x (n*in_dim)`` matrix
``sum_w Z^w (x) f_w`` with the point index outermost.

Evaluation streams along shared word prefixes: the support is walked in
lexicographic order, i.e. depth-first over its prefix trie, with a stack of
the prefix products ``Z^{w[:k]}``, so every trie node costs one ``n x n``
product and at most ``degree + 1`` products are held at a time.  The point
keeps each finished value (:meth:`MatrixTuple.cached`), so a series is
evaluated once per point however often a kernel or certificate asks for it;
returned values are read-only.  The same walk gives the value of a
:class:`WordIndicator` (a moment table's factor), writing each ``Z^w`` into
its own column block instead of summing one-hot coefficients.

The joint nilpotency order (:func:`nilpotency_order`) follows the descending
flag ``V_{L+1} = sum_j Z_j V_L`` through one ``n x (d n)`` factor per length,
so it costs O(d n^4) however many words there are; a jointly nilpotent tuple
is one that is simultaneously strictly upper-triangularizable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    EMPTY_WORD,
    BadIntertwiner,
    DimMismatch,
    InconsistentEvaluator,
    InputError,
    MatrixTuple,
    NotNilpotent,
    Tolerances,
    Word,
    as_cmatrix,
    frobenius,
    frozen,
    kron,
    rel_err,
    spec_norm,
    validate_word,
    word_key,
    words_up_to,
)


@dataclass(frozen=True)
class NcSeries:
    """Finitely supported word -> coefficient matrix association."""

    d: int
    out_dim: int
    in_dim: int
    terms: Mapping[Word, np.ndarray]

    def __post_init__(self):
        if self.d < 1:
            raise InputError("d must be >= 1")
        if self.out_dim < 1 or self.in_dim < 1:
            raise InputError("coefficient dimensions must be >= 1")
        clean: dict[Word, np.ndarray] = {}
        for w, c in self.terms.items():
            word = validate_word(w, self.d)
            if word in clean:
                raise InputError(f"duplicate word {word}")
            clean[word] = frozen(as_cmatrix(c, self.out_dim, self.in_dim))
        object.__setattr__(self, "terms", dict(sorted(clean.items(), key=lambda kv: word_key(kv[0]))))

    def coefficient(self, w) -> np.ndarray:
        word = validate_word(w, self.d)
        c = self.terms.get(word)
        if c is None:
            return np.zeros((self.out_dim, self.in_dim), dtype=np.complex128)
        return c

    @property
    def support(self) -> list[Word]:
        return list(self.terms.keys())

    @property
    def degree(self) -> int:
        """Largest word length in the support; -1 for the zero series."""
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    @staticmethod
    def zero(d: int, out_dim: int, in_dim: int) -> "NcSeries":
        return NcSeries(d, out_dim, in_dim, {})

    @staticmethod
    def constant(d: int, coeff) -> "NcSeries":
        c = as_cmatrix(coeff)
        return NcSeries(d, c.shape[0], c.shape[1], {EMPTY_WORD: c})

    @staticmethod
    def monomial(d: int, word, coeff) -> "NcSeries":
        c = as_cmatrix(coeff)
        return NcSeries(d, c.shape[0], c.shape[1], {tuple(word): c})


def add(f: NcSeries, g: NcSeries) -> NcSeries:
    if (f.d, f.out_dim, f.in_dim) != (g.d, g.out_dim, g.in_dim):
        raise DimMismatch("series shapes differ")
    terms = {w: np.array(c) for w, c in f.terms.items()}
    for w, c in g.terms.items():
        terms[w] = terms.get(w, 0) + c
    return NcSeries(f.d, f.out_dim, f.in_dim, terms)


def scale(f: NcSeries, a: complex) -> NcSeries:
    return NcSeries(f.d, f.out_dim, f.in_dim, {w: a * c for w, c in f.terms.items()})


def truncate(f: NcSeries, max_len: int) -> NcSeries:
    return NcSeries(f.d, f.out_dim, f.in_dim, {w: c for w, c in f.terms.items() if len(w) <= max_len})


def multiply(f: NcSeries, g: NcSeries) -> NcSeries:
    """Noncommutative product: coefficient on a word is the sum over its splittings.

    Compatible with evaluation: ``evaluate(multiply(f, g), Z) =
    evaluate(f, Z) @ evaluate(g, Z)``.
    """
    from .core import ShapeMismatch

    if f.d != g.d:
        raise DimMismatch("series over different alphabets")
    if f.in_dim != g.out_dim:
        raise ShapeMismatch(f"coefficient shapes {f.out_dim}x{f.in_dim} and {g.out_dim}x{g.in_dim} do not compose")
    terms: dict[Word, np.ndarray] = {}
    for wa, ca in f.terms.items():
        for wb, cb in g.terms.items():
            w = wa + wb
            prod = ca @ cb
            terms[w] = terms.get(w, 0) + prod
    return NcSeries(f.d, f.out_dim, g.in_dim, terms)


def linear_combination(series: Sequence[NcSeries], coeffs: Sequence[complex]) -> NcSeries:
    if len(series) != len(coeffs):
        raise DimMismatch("one coefficient per series required")
    out = NcSeries.zero(series[0].d, series[0].out_dim, series[0].in_dim)
    for f, a in zip(series, coeffs):
        out = add(out, scale(f, a))
    return out


def evaluate(f: NcSeries, z: MatrixTuple) -> np.ndarray:
    """sum_w Z^w (x) f_w, a read-only (n p) x (n q) matrix, computed once per (f, Z)."""
    if z.d != f.d:
        raise DimMismatch(f"series over {f.d} variables evaluated at a {z.d}-tuple")
    return z.cached(f, lambda: _stream(f, z))


def _powers(words, z: MatrixTuple):
    """(w, Z^w) for each word, in lexicographic order: a depth-first walk of the prefix trie."""
    prefix = [np.eye(z.n, dtype=np.complex128)]  # prefix[k] = Z^{prev[:k]}
    prev: Word = EMPTY_WORD
    for w in sorted(words):
        shared = 0
        while shared < min(len(prev), len(w)) and prev[shared] == w[shared]:
            shared += 1
        del prefix[shared + 1:]
        for letter in w[shared:]:
            prefix.append(prefix[-1] @ z.coords[letter - 1])
        yield w, prefix[-1]
        prev = w


def _stream(f: NcSeries, z: MatrixTuple) -> np.ndarray:
    """Accumulate Z^w (x) f_w along the prefix trie of the support."""
    n = z.n
    # out[a, s, b, t] = sum_w Z^w[a, b] f_w[s, t] is the Kronecker layout
    out = np.zeros((n, f.out_dim, n, f.in_dim), dtype=np.complex128)
    for w, power in _powers(f.terms, z):
        out += power[:, None, :, None] * f.terms[w][None, :, None, :]
    return out.reshape(n * f.out_dim, n * f.in_dim)


@dataclass(frozen=True, eq=False)
class WordIndicator:
    """The series sum_a z^a (e_a^T (x) I_y) over distinct ``words``.

    Its value at Z is the block row ``[Z^a (x) I_y]_a``, one column block per
    word in the given order, so a word-indexed table of y x y blocks acts on
    it as a middle matrix.  :func:`factor_value` writes each ``Z^a`` into its
    block instead of summing one-hot coefficients.
    """

    d: int
    y_dim: int
    words: tuple[Word, ...]

    def as_series(self) -> NcSeries:
        """The same function as an :class:`NcSeries` (one-hot coefficients)."""
        m = len(self.words)
        eye = np.eye(m * self.y_dim, dtype=np.complex128)
        return NcSeries(self.d, self.y_dim, m * self.y_dim, {
            w: eye[i * self.y_dim:(i + 1) * self.y_dim] for i, w in enumerate(self.words)
        })


def factor_value(f: NcSeries | WordIndicator, z: MatrixTuple) -> np.ndarray:
    """The value of a kernel factor at Z, read-only and computed once per (f, Z)."""
    if isinstance(f, NcSeries):
        return evaluate(f, z)
    if z.d != f.d:
        raise DimMismatch(f"series over {f.d} variables evaluated at a {z.d}-tuple")
    return z.cached(f, lambda: _word_blocks(f, z))


def _word_blocks(f: WordIndicator, z: MatrixTuple) -> np.ndarray:
    n, y = z.n, f.y_dim
    column = {w: i for i, w in enumerate(f.words)}
    blocks = np.empty((n, n, len(f.words)), dtype=np.complex128)  # [a, b, word]
    for w, power in _powers(f.words, z):
        blocks[:, :, column[w]] = power
    if y == 1:
        return blocks.reshape(n, n * len(f.words))
    out = blocks[:, None, :, :, None] * np.eye(y)[None, :, None, None, :]
    return out.reshape(n * y, n * len(f.words) * y)


# ---------------------------------------------------------------------------
# executable nc-function axioms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    max_violation: float
    threshold: float
    witness: object | None = None


def check_respects_direct_sums(
    f: NcSeries,
    samples: Sequence[tuple[MatrixTuple, MatrixTuple]],
    tol: Tolerances = DEFAULT_TOL,
    evaluator: Callable[[MatrixTuple], np.ndarray] | None = None,
) -> AxiomReport:
    """Verify f(Z (+) W) = f(Z) (+) f(W) on the given pairs.

    ``evaluator`` overrides the series evaluation (used for negative controls).
    """
    from .core import direct_sum, direct_sum_matrices

    ev = evaluator if evaluator is not None else (lambda point: evaluate(f, point))
    worst = 0.0
    witness = None
    for z, w in samples:
        lhs = ev(direct_sum([z, w]))
        rhs = direct_sum_matrices([ev(z), ev(w)])
        violation = rel_err(frobenius(lhs - rhs), frobenius(lhs))
        if violation > worst:
            worst = violation
            witness = (z, w)
    passed = worst <= tol.eq_rel
    return AxiomReport(passed, worst, tol.eq_rel, None if passed else witness)


def check_respects_intertwinings(
    f: NcSeries,
    triples: Sequence[tuple[MatrixTuple, MatrixTuple, np.ndarray]],
    tol: Tolerances = DEFAULT_TOL,
    evaluator: Callable[[MatrixTuple], np.ndarray] | None = None,
) -> AxiomReport:
    """Verify (alpha (x) I) f(Z) = f(Z~) (alpha (x) I) on intertwining triples."""
    ev = evaluator if evaluator is not None else (lambda point: evaluate(f, point))
    worst = 0.0
    witness = None
    for z, zt, alpha in triples:
        alpha = as_cmatrix(alpha, zt.n, z.n)
        scale_a = spec_norm(alpha)
        for j in range(z.d):
            gap = frobenius(alpha @ z.coords[j] - zt.coords[j] @ alpha)
            if gap > tol.eq_rel * max(1.0, scale_a * spec_norm(z.coords[j])) * 100:
                raise BadIntertwiner(f"alpha Z_{j + 1} != Z~_{j + 1} alpha (gap {gap:.3e})")
        lhs = kron(alpha, np.eye(f.out_dim)) @ ev(z)
        rhs = ev(zt) @ kron(alpha, np.eye(f.in_dim))
        violation = rel_err(frobenius(lhs - rhs), frobenius(lhs))
        if violation > worst:
            worst = violation
            witness = (z, zt, alpha)
    passed = worst <= tol.eq_rel
    return AxiomReport(passed, worst, tol.eq_rel, None if passed else witness)


# ---------------------------------------------------------------------------
# nilpotent evaluation
# ---------------------------------------------------------------------------

def nilpotency_order(z: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> int:
    """Smallest L with all length-L coordinate products numerically zero.

    Works on the point scaled by ``max(1, max ||Z_j||_2)`` through one factor
    ``b`` with ``b b* = sum_{|w|=L} Z^w Z^w*`` there: a step is ``b -> [Z_1 b, ...,
    Z_d b]``, and a thin SVD recompresses ``b`` to n columns without changing
    ``b b*``.  L is the order once ``||b||_F <= eq_rel``, at O(d n^3) per step.
    Bounded above by the matrix size; raises :class:`NotNilpotent` otherwise.
    """
    scale = max(1.0, max(spec_norm(c) for c in z.coords))
    coords = [c / scale for c in z.coords]
    b = np.eye(z.n, dtype=np.complex128)
    # a 0 x 0 point has order 1, like the zero tuple
    for length in range(1, max(z.n, 1) + 1):
        b = np.hstack([c @ b for c in coords])
        if frobenius(b) <= tol.eq_rel:
            return length
        u, s, _ = np.linalg.svd(b, full_matrices=False)
        b = u * s
    raise NotNilpotent(f"tuple of size {z.n} has nonvanishing products of length {z.n}")


def evaluate_on_nilpotent(f: NcSeries, z: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Exact evaluation on a jointly nilpotent tuple: only words of length < L survive."""
    order = nilpotency_order(z, tol)
    # truncate only when words go, so the point keeps the value under f itself
    return evaluate(f if f.degree < order else truncate(f, order - 1), z)


# ---------------------------------------------------------------------------
# coefficient extraction via the truncated free shift
# ---------------------------------------------------------------------------

def truncated_shift_tuple(d: int, max_len: int) -> MatrixTuple:
    """Left creation operators on the span of words of length <= max_len.

    Coordinate j maps the basis vector of w to the basis vector of j.w
    (and to 0 when the result exceeds max_len).  Jointly nilpotent of order
    max_len + 1; evaluating a series here exposes all coefficients of
    degree <= max_len as blocks.
    """
    words = words_up_to(d, max_len)
    index = {w: i for i, w in enumerate(words)}
    m = len(words)
    coords = []
    for j in range(1, d + 1):
        s = np.zeros((m, m), dtype=np.complex128)
        for w, i in index.items():
            if len(w) < max_len:
                s[index[(j,) + w], i] = 1.0
        coords.append(s)
    return MatrixTuple(tuple(coords))


def _read_coefficients(
    value: np.ndarray, words: list[Word], out_dim: int, in_dim: int
) -> dict[Word, np.ndarray]:
    coeffs = {}
    for i, w in enumerate(words):
        block = value[i * out_dim:(i + 1) * out_dim, 0:in_dim]
        coeffs[w] = block
    return coeffs


def extract_taylor_coefficients(
    evaluator: Callable[[MatrixTuple], np.ndarray],
    d: int,
    max_len: int,
    out_dim: int,
    in_dim: int,
    tol: Tolerances = DEFAULT_TOL,
) -> NcSeries:
    """Recover the coefficients of an nc-function evaluator up to degree max_len.

    The evaluator is probed on the truncated free shift; the block in word row
    w, empty-word column equals the coefficient of w.  Reads from probes of
    two adjacent sizes must agree, else :class:`InconsistentEvaluator`.
    """
    words = words_up_to(d, max_len)
    value = np.asarray(evaluator(truncated_shift_tuple(d, max_len)), dtype=np.complex128)
    expect = (len(words) * out_dim, len(words) * in_dim)
    if value.shape != expect:
        raise DimMismatch(f"evaluator returned shape {value.shape}, expected {expect}")
    coeffs = _read_coefficients(value, words, out_dim, in_dim)

    if max_len >= 1:
        small_words = words_up_to(d, max_len - 1)
        small = np.asarray(evaluator(truncated_shift_tuple(d, max_len - 1)), dtype=np.complex128)
        small_coeffs = _read_coefficients(small, small_words, out_dim, in_dim)
        scale_v = max(1.0, max(frobenius(c) for c in coeffs.values()))
        for w, c in small_coeffs.items():
            if frobenius(c - coeffs[w]) > tol.eq_rel * scale_v:
                raise InconsistentEvaluator(f"coefficient of {w} disagrees across probe sizes")

    return NcSeries(d, out_dim, in_dim, {w: c for w, c in coeffs.items() if frobenius(c) > 0.0})


def functional_evaluator(f: NcSeries, tol: Tolerances = DEFAULT_TOL) -> Callable[[MatrixTuple], np.ndarray]:
    """The nilpotent-domain evaluator Z -> sum_w Z^w (x) f_w of a series."""

    def ev(z: MatrixTuple) -> np.ndarray:
        return evaluate_on_nilpotent(f, z, tol)

    return ev
