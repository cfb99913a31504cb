"""Noncommutative polynomials and truncated series with operator coefficients.

A series ``f(z) = sum_w f_w z^w`` is a finitely supported map from stored
words to ``out_dim x in_dim`` coefficient matrices.  Evaluation at a point
``Z`` of size n returns the ``(n*out_dim) x (n*in_dim)`` matrix
``sum_w Z^w (x) f_w`` with the point index outermost.

Evaluation walks the prefix trie of the support in blocks of trie nodes
of one level.  The powers ``Z^w`` of a block's children come from one
batched product of the block's powers with the stacked coordinates, and the
block's support words meet their coefficients in one product, so every trie
node costs one ``n x n`` product and a wide level is a few large products
instead of one product and one broadcast per word.  The blocks are walked
depth first, one held per level, and their sizes share ``_BLOCK_BYTES``, so
the powers held stay within it whatever the degree.  The walk's plan, which
depends on the support alone, is built on a series' first evaluation and
kept.  The points of one size share one walk: their coordinates are stacked
on a batch axis and every product above is one batched product, so the
walk's per-level cost is paid once per size rather than once per point
(:func:`factor_values`); single-point :func:`evaluate` is the batch of one.
A batch holds as many points as keep the powers within ``_BLOCK_BYTES``.
Each point keeps its finished value (:meth:`MatrixTuple.cached`), so a
series is evaluated once per point however often a kernel or certificate
asks for it; returned values are read-only.  The same walk gives the value
of a :class:`WordIndicator` (a moment table's factor), writing each block of
powers into its words' column blocks instead of summing one-hot
coefficients.

The joint nilpotency order (:func:`nilpotency_order`) follows the descending
flag ``V_{L+1} = sum_j Z_j V_L`` through one factor per length, extended by
one product with the stacked adjoint coordinates and recompressed by a QR,
so it costs O(d n^4) however many words there are; a jointly nilpotent tuple
is one that is simultaneously strictly upper-triangularizable.  The points
of one size are tested together, one batched product and QR per length
(:func:`nilpotency_orders`).  A tuple that is already triangular in its own
basis, every coordinate exactly strictly upper triangular or every one
exactly strictly lower, is jointly nilpotent of order <= max(n, 1) without
a test (:attr:`MatrixTuple.strictly_triangular`); the nilpotent sampler's
points and the truncated free shift are such tuples.  A caller that only
asks whether the order is at most some length walks the flag no further:
:func:`evaluate_on_nilpotent` walks at most ``deg f`` lengths at such a
point, and a truncated kernel tests none of size <= max_len + 1.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    EMPTY_WORD,
    DimMismatch,
    InconsistentEvaluator,
    InputError,
    MatrixTuple,
    NotNilpotent,
    Record,
    Tolerances,
    Word,
    as_cmatrix,
    cached_at,
    check_intertwiner,
    frobenius,
    int_words,
    kron,
    rel_err,
    sorted_table,
    validate_word,
    word_key,
    words_up_to,
)


class NcSeries(Record):
    """Finitely supported word -> coefficient matrix association."""

    def __init__(self, d: int, out_dim: int, in_dim: int, terms: Mapping[Word, np.ndarray]):
        if d < 1:
            raise InputError("d must be >= 1")
        if out_dim < 1 or in_dim < 1:
            raise InputError("coefficient dimensions must be >= 1")
        words = int_words(terms, d)
        if words is None or len(set(words)) < len(words):
            # word by word, to name the first bad letter or repeated word
            seen: dict[Word, None] = {}
            for w in terms:
                word = validate_word(w, d)
                if word in seen:
                    raise InputError(f"duplicate word {word}")
                seen[word] = None
            words = list(seen)
        words, block = sorted_table(words, list(terms.values()), out_dim, in_dim, word_key)
        self._set(d=d, out_dim=out_dim, in_dim=in_dim, terms=dict(zip(words, block)), _coeffs=block)

    @cached_property
    def _plan(self) -> "_Plan":
        """The evaluation plan of the support, built on the first evaluation."""
        return _Plan(self.d, list(self.terms))

    @cached_property
    def _truncations(self) -> dict[int, "NcSeries"]:
        """The truncations made for nilpotent points, by nilpotency order."""
        return {}

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
    """sum_w Z^w (x) f_w, a read-only (n p) x (n q) matrix: the one-point case of :func:`factor_values`."""
    return factor_value(f, z)


def _series_values(f: NcSeries, coords: np.ndarray) -> np.ndarray:
    """sum_w Z^w (x) f_w at each point of ``coords`` (B x d x n x n), as a B x (n p) x (n q) array.

    Each block of powers ``Z^w`` from the trie walk meets its words'
    coefficients in one ``(n^2, m) @ (m, p q)`` product per point, summed
    into an accumulator that is transposed once into the Kronecker layout.
    """
    b, n, p, q = len(coords), coords.shape[-1], f.out_dim, f.in_dim
    coeffs = f._coeffs.reshape(len(f.terms), p * q)
    # acc[point, (a, b), (s, t)] = sum_w Z^w[a, b] f_w[s, t]
    acc = np.zeros((b, n * n, p * q), dtype=np.complex128)
    for i, j, powers in _power_blocks(f._plan, coords):
        acc += np.matmul(powers.reshape(b, j - i, n * n).transpose(0, 2, 1), coeffs[i:j])
    return acc.reshape(b, n, n, p, q).transpose(0, 1, 3, 2, 4).reshape(b, n * p, n * q)


class _Plan:
    """The prefix trie of a support, level by level; it depends on the words alone.

    ``words`` are the support in graded lexicographic order.  Level k holds
    the length-k prefixes of the support in lexicographic order, ``width[k]``
    of them, so the children of a run of nodes are a run of level k + 1:
    child c appends the 0-based letter ``letter[k][c]`` to node
    ``parent[k][c]``, and ``parent[k]`` is nondecreasing.  The support words
    of length k are ``words[start[k]:]``, at the nodes ``rows[k]`` of their
    level, and ``rows[k]`` is None when every node is one.
    """

    def __init__(self, d: int, words: Sequence[Word]):
        self.d = d
        self.depth = depth = len(words[-1]) if words else -1
        by_len: list[list[Word]] = [[] for _ in range(depth + 1)]
        for w in words:
            by_len[len(w)].append(w)
        levels: list[list[Word]] = [[]] * (depth + 1)
        below: list[Word] = []
        for k in range(depth, -1, -1):
            here = by_len[k]
            if below and len(here) < d ** k:  # a full level holds every prefix
                prefixes = [w[:-1] for w in below]  # sorted, as ``below`` is
                here = list(dict.fromkeys(sorted(prefixes + here) if here else prefixes))
            levels[k] = below = here
        self.width = [len(level) for level in levels]
        self.size = sum(self.width)
        self.start = [0]
        for here in by_len[:-1]:
            self.start.append(self.start[-1] + len(here))
        self.rows: list[list[int] | None] = []
        self.parent: list[list[int]] = []
        self.letter: list[list[int]] = []
        for k, level in enumerate(levels):
            here = by_len[k]
            self.rows.append(None if len(here) == len(level) else [bisect_left(level, w) for w in here])
            if k == depth:
                break
            below = levels[k + 1]
            if len(below) == d * len(level):  # every node has all d children
                self.parent.append(sorted(list(range(len(level))) * d))
                self.letter.append(list(range(d)) * len(level))
            else:
                self.parent.append([bisect_left(level, w[:-1]) for w in below])
                self.letter.append([w[-1] - 1 for w in below])

    def caps(self, share: int) -> list[int]:
        """The most nodes of each level in one block, ``share`` nodes over all levels."""
        d, width = self.d, self.width
        if share >= self.size:
            return width
        caps = [share * m // self.size or 1 for m in width]
        for k in range(1, self.depth + 1):
            if caps[k] > d and width[k] == d * width[k - 1]:
                caps[k] -= caps[k] % d  # whole families
        return caps


# Bytes of n x n powers that the walk holds per point, whatever the degree.
# Level k is taken in blocks of at most caps[k] nodes, the level widths
# scaled to this in total, and the walk holds at most one block per level:
# within this, plus one power on each level whose share is below one node,
# and a gathered copy of at most one block at a time.  The caps depend on n
# alone, so a point's blocks, and the order in which its value is summed,
# are the same whatever batch it is walked in; a batch holds as many points
# as fit in these bytes together (:func:`_values`).
_BLOCK_BYTES = 1 << 20


def _power_blocks(plan: _Plan, coords: np.ndarray):
    """(i, j, P): P[:, r] = Z^w at each point for the (i + r)-th support word w in graded order, block by block.

    ``coords`` stacks the coordinates of B points of one size, B x d x n x n,
    and P is B x (j - i) x n x n.  The walk is depth-first over blocks: a
    block of level k yields its support words, then its children are formed
    in chunks of at most ``caps[k + 1]`` nodes, and each chunk is walked as a
    block of level k + 1 before the next is formed.  A block is let go once
    its last chunk is formed.  A chunk that holds every child of its parents
    is one batched product of their powers with the stacked coordinates, and
    else one product of each child's parent with its letter, so no power is
    formed for a word outside the prefix closure.

    Each point's powers are laid out alike whatever B is: gathers use
    ``take``, since fancy indexing lays out its result by B.  So every
    product of a point takes the same BLAS path, and its powers and value
    are bitwise the same in any batch.
    """
    if plan.depth < 0:
        return
    b, n = len(coords), coords.shape[-1]
    depth, parent, rows, start = plan.depth, plan.parent, plan.rows, plan.start
    caps = plan.caps(_BLOCK_BYTES // (16 * max(n * n, 1)))
    # the blocks whose children are not all formed, one per level at most:
    # [level, powers, first node, next child, last child + 1]
    held: list[list] = []
    k, lo, powers = 0, 0, np.eye(n, dtype=np.complex128)[None, None].repeat(b, axis=0)
    while True:
        hi = lo + powers.shape[1]
        if rows[k] is None:
            yield start[k] + lo, start[k] + hi, powers
        elif rows[k]:
            r0, r1 = bisect_left(rows[k], lo), bisect_left(rows[k], hi)
            if r0 < r1:
                yield start[k] + r0, start[k] + r1, powers.take([r - lo for r in rows[k][r0:r1]], axis=1)
        if k < depth:
            c0, c1 = bisect_left(parent[k], lo), bisect_left(parent[k], hi)
            if c0 < c1:
                held.append([k, powers, lo, c0, c1])
        if not held:
            return
        k, parents, first, c0, c1 = block = held[-1]
        c = min(c1, c0 + caps[k + 1])
        if c == c1:
            held.pop()
        block[3] = c
        lo, powers, k = c0, _children(plan, k, parents, first, c0, c, coords), k + 1


def _children(plan: _Plan, k: int, powers: np.ndarray, lo: int, c0: int, c1: int, coords: np.ndarray) -> np.ndarray:
    """The powers of nodes c0..c1-1 of level k + 1; ``powers`` holds level k's from node lo on."""
    parent, letter = plan.parent[k], plan.letter[k]
    if c1 - c0 == 1:
        return (powers[:, parent[c0] - lo] @ coords[:, letter[c0]])[:, None]
    b, d, n = coords.shape[:3]
    p0, p1 = parent[c0], parent[c1 - 1] + 1
    if c1 - c0 == d * (p1 - p0):
        # every child of parents p0..p1-1, in order: P_i Z_j at [:, i, j]
        return np.matmul(powers[:, p0 - lo:p1 - lo, None], coords[:, None]).reshape(b, (p1 - p0) * d, n, n)
    return np.matmul(powers.take([parent[c] - lo for c in range(c0, c1)], axis=1), coords.take(letter[c0:c1], axis=1))


class WordIndicator(Record):
    """The series sum_a z^a (e_a^T (x) I_y) over distinct ``words``.

    Its value at Z is the block row ``[Z^a (x) I_y]_a``, one column block per
    word in the given order, so a word-indexed table of y x y blocks acts on
    it as a middle matrix.  :func:`factor_value` writes each ``Z^a`` into its
    block instead of summing one-hot coefficients.
    """

    def __init__(self, d: int, y_dim: int, words: tuple[Word, ...]):
        self._set(d=d, y_dim=y_dim, words=words)

    @cached_property
    def _order(self) -> np.ndarray:
        """The columns of the words in graded order."""
        return np.array(sorted(range(len(self.words)), key=lambda i: word_key(self.words[i])), dtype=np.intp)

    @cached_property
    def _plan(self) -> _Plan:
        """The plan of the words' trie."""
        return _Plan(self.d, [self.words[i] for i in self._order])

    def as_series(self) -> NcSeries:
        """The same function as an :class:`NcSeries` (one-hot coefficients)."""
        m = len(self.words)
        eye = np.eye(m * self.y_dim, dtype=np.complex128)
        return NcSeries(self.d, self.y_dim, m * self.y_dim, {
            w: eye[i * self.y_dim:(i + 1) * self.y_dim] for i, w in enumerate(self.words)
        })


def factor_values(f: NcSeries | WordIndicator, points: Sequence[MatrixTuple]) -> list[np.ndarray]:
    """The value of a series or kernel factor at each point, read-only.

    Each point keeps its value (:func:`ncrkhs.core.cached_at`), so f is
    evaluated once per point; the points that hold none are evaluated
    together, by one walk per size (:func:`_values`).
    """
    for z in points:
        if z.d != f.d:
            raise DimMismatch(f"series over {f.d} variables evaluated at a {z.d}-tuple")
    return cached_at(points, f, lambda missing: _values(f, missing))


def factor_value(f: NcSeries | WordIndicator, z: MatrixTuple) -> np.ndarray:
    """The value of a kernel factor at Z: the one-point case of :func:`factor_values`."""
    if z.d != f.d:
        raise DimMismatch(f"series over {f.d} variables evaluated at a {z.d}-tuple")
    return z.cached(f, lambda: _values(f, [z])[0])


def _values(f: NcSeries | WordIndicator, points: Sequence[MatrixTuple]) -> list[np.ndarray]:
    """f at each point: the points of one size stacked on a batch axis, one walk per batch of them."""
    walk = _series_values if isinstance(f, NcSeries) else _word_blocks
    out: list = [None] * len(points)
    for (_, n, _), members in _by_size(points).items():
        # as many points as hold the whole trie's powers within _BLOCK_BYTES
        batch = max(1, _BLOCK_BYTES // (16 * max(n * n, 1) * max(f._plan.size, 1)))
        for lo in range(0, len(members), batch):
            chunk = members[lo:lo + batch]
            for i, value in zip(chunk, walk(f, np.array([points[i].stacked for i in chunk]))):
                out[i] = value
    return out


def _by_size(points: Sequence[MatrixTuple]) -> dict[tuple[int, int, int], list[int]]:
    """The indices of the points of each shape (d, n, n), in order."""
    shapes: dict[tuple[int, int, int], list[int]] = {}
    for i, z in enumerate(points):
        shapes.setdefault(z.stacked.shape, []).append(i)
    return shapes


def _word_blocks(f: WordIndicator, coords: np.ndarray) -> np.ndarray:
    """The value of f at each point of ``coords``: each block of powers written into its words' columns."""
    b, n, y, m = len(coords), coords.shape[-1], f.y_dim, len(f.words)
    blocks = np.empty((b, n, n, m), dtype=np.complex128)  # [point, a, b, word]
    columns = f._order
    for i, j, powers in _power_blocks(f._plan, coords):
        blocks[..., columns[i:j]] = powers.transpose(0, 2, 3, 1)
    if y == 1:
        return blocks.reshape(b, n, n * m)
    out = blocks[:, :, None, :, :, None] * np.eye(y)[:, None, None, :]
    return out.reshape(b, n * y, n * m * y)


# ---------------------------------------------------------------------------
# executable nc-function axioms
# ---------------------------------------------------------------------------

class AxiomReport(NamedTuple):
    passed: bool
    max_violation: float
    threshold: float
    witness: object | None = None

    @classmethod
    def worst(cls, pairs: Iterable[tuple[float, object]], threshold: float) -> "AxiomReport":
        """The report on (violation, witness) pairs: the first largest violation decides.

        A pass carries no witness.
        """
        worst, witness = 0.0, None
        for violation, candidate in pairs:
            if violation > worst:
                worst, witness = violation, candidate
        passed = bool(worst <= threshold)
        return cls(passed, float(worst), threshold, None if passed else witness)


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

    def violations():
        for z, w in samples:
            lhs = ev(direct_sum([z, w]))
            rhs = direct_sum_matrices([ev(z), ev(w)])
            yield rel_err(frobenius(lhs - rhs), frobenius(lhs)), (z, w)

    return AxiomReport.worst(violations(), tol.eq_rel)


def check_respects_intertwinings(
    f: NcSeries,
    triples: Sequence[tuple[MatrixTuple, MatrixTuple, np.ndarray]],
    tol: Tolerances = DEFAULT_TOL,
    evaluator: Callable[[MatrixTuple], np.ndarray] | None = None,
) -> AxiomReport:
    """Verify (alpha (x) I) f(Z) = f(Z~) (alpha (x) I) on intertwining triples."""
    ev = evaluator if evaluator is not None else (lambda point: evaluate(f, point))

    def violations():
        for z, zt, alpha in triples:
            alpha = check_intertwiner(alpha, z, zt, tol)
            lhs = kron(alpha, np.eye(f.out_dim)) @ ev(z)
            rhs = ev(zt) @ kron(alpha, np.eye(f.in_dim))
            yield rel_err(frobenius(lhs - rhs), frobenius(lhs)), (z, zt, alpha)

    return AxiomReport.worst(violations(), tol.eq_rel)


# ---------------------------------------------------------------------------
# nilpotent evaluation
# ---------------------------------------------------------------------------

def nilpotency_order(z: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> int:
    """Smallest L with all length-L coordinate products numerically zero.

    The one-point case of :func:`nilpotency_orders`.  Bounded above by the
    matrix size; raises :class:`NotNilpotent` otherwise.
    """
    order = nilpotency_orders([z], tol)[0]
    if order is None:
        raise NotNilpotent(f"tuple of size {z.n} has nonvanishing products of length {z.n}")
    return order


def nilpotency_orders(points: Sequence[MatrixTuple], tol: Tolerances = DEFAULT_TOL) -> list[int | None]:
    """The nilpotency order of each point, None for a point that is not jointly nilpotent.

    Works on each point scaled by ``max(1, max ||Z_j||_2)`` through a factor
    ``c`` with ``c* c = sum_{|w|=L} Z^w Z^w*`` there.  A step stacks the row
    blocks ``c Z_j*``, all from one product with ``[Z_1*, ..., Z_d*]``, and the
    R of a Householder QR recompresses them to n rows, keeping ``c* c``.  L is
    the order once ``||c||_F <= eq_rel``, at O(d n^3) per step, and a point of
    size n that has none by L = n has none.  The points of one shape take
    each step together, each until its order is found; each point's norm is
    taken on its own, so its order is the one it has alone.

    A :attr:`~ncrkhs.core.MatrixTuple.strictly_triangular` point has an
    order <= max(n, 1) at any tolerance: in floating point as in exact
    arithmetic, each step's product makes one more column of ``c`` exactly
    zero, the QR keeps zero columns zero, and so ``c`` is zero by L = n.
    """
    return _flag_orders(points, tol)


def _flag_orders(points: Sequence[MatrixTuple], tol: Tolerances, bound: int | None = None) -> list[int | None]:
    """:func:`nilpotency_orders`, walking at most ``bound`` lengths: None where a point has no order within them.

    A point's steps are those of the full walk, so an order the bounded walk
    finds is the point's order.
    """
    out: list[int | None] = [None] * len(points)
    for (d, n, _), members in _by_size(points).items():
        # a 0 x 0 point has order 1, like the zero tuple
        last = max(n, 1) if bound is None else min(max(n, 1), bound)
        if last < 1:
            continue
        coords = np.array([points[i].stacked for i in members])
        b = len(members)
        scale = np.maximum(1.0, np.max(np.linalg.svd(coords, compute_uv=False), axis=(1, 2), initial=0.0))
        stacked = (coords.conj().transpose(0, 3, 1, 2) / scale[:, None, None, None]).reshape(b, n, d * n)
        c = np.eye(n, dtype=np.complex128)[None].repeat(b, axis=0)
        live = np.array(members)
        for length in range(1, last + 1):
            c = np.matmul(c, stacked).reshape(len(c), c.shape[1] * d, n)
            done = [frobenius(block) <= tol.eq_rel for block in c]
            if any(done):
                done = np.array(done)
                for i in live[done]:
                    out[i] = length
                if done.all():
                    break
                live, c, stacked = live[~done], c[~done], stacked[~done]
            if c.shape[1] > n and length < last:
                c = np.linalg.qr(c, mode="r")
    return out


def evaluate_on_nilpotent(f: NcSeries, z: MatrixTuple, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Exact evaluation on a jointly nilpotent tuple: only words of length < L survive.

    Only an order L <= deg f truncates, so at a strictly triangular point
    (:attr:`~ncrkhs.core.MatrixTuple.strictly_triangular`), which has an
    order, the flag walk stops after ``deg f`` lengths.  Any other point
    takes the full test, which raises :class:`NotNilpotent` where there is
    no order.
    """
    if z.strictly_triangular:
        order = _flag_orders([z], tol, f.degree)[0]
    else:
        order = nilpotency_order(z, tol)
    # truncate only when words go, so the point keeps the value under f itself,
    # and once per order, so a truncation's plan and values are kept with f
    if order is not None and f.degree >= order:
        if order not in f._truncations:
            f._truncations[order] = truncate(f, order - 1)
        f = f._truncations[order]
    return evaluate(f, z)


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
        scale_v = max(frobenius(c) for c in coeffs.values())
        for w, c in small_coeffs.items():
            if rel_err(frobenius(c - coeffs[w]), scale_v) > tol.eq_rel:
                raise InconsistentEvaluator(f"coefficient of {w} disagrees across probe sizes")

    return NcSeries(d, out_dim, in_dim, {w: c for w, c in coeffs.items() if c.any()})


def functional_evaluator(f: NcSeries, tol: Tolerances = DEFAULT_TOL) -> Callable[[MatrixTuple], np.ndarray]:
    """The nilpotent-domain evaluator Z -> sum_w Z^w (x) f_w of a series."""

    def ev(z: MatrixTuple) -> np.ndarray:
        return evaluate_on_nilpotent(f, z, tol)

    return ev
