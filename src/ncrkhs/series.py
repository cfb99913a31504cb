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
Each point keeps its finished value (:func:`ncrkhs.core.cached_at`), so a
series is evaluated once per point however often a kernel or certificate
asks for it; returned values are read-only.  The same walk gives the value
of a :class:`WordIndicator` (a moment table's factor), writing each block of
powers into its words' column blocks instead of summing one-hot
coefficients.

The same walk applies f(Z) to a block ``X (x) I_q`` without forming a
power, at O(r n^2) per trie node instead of O(n^3) (:func:`_series_action`):
each node holds a row block ``Y Z^w``, Y = I for values, and the rows
``(Z^w X)^T`` are the walk over the suffix trie at the transposed point
from Y = X^T.  Coefficient extraction reads only the empty-word column of
the value at the truncated free shift, so it takes this action.

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
point, and a truncated kernel tests none of size <= max_len + 1.  The
truncated free shift carries its order, max_len + 1, and walks no flag
at all when ``eq_rel < 1`` (:func:`truncated_shift_tuple`).  Nor does a
strictly triangular point of size n > deg f whose superdiagonal settles
the question: row n - 1 - L of a length-L product holds one product of
superdiagonal entries, so those products bound the walk's norm at L from
below, and where that bound is above twice eq_rel (a rounding margin
derived in :func:`_chain_clears`) at every L <= deg f, the point has no
order within deg f and nothing is truncated, as the walk would decide.
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
    ShapeMismatch,
    Tolerances,
    Word,
    as_cmatrix,
    cached_at,
    check_intertwiner,
    checked_stack,
    direct_sum,
    direct_sum_matrices,
    frobenius,
    int_words,
    kron,
    rel_err,
    validate_word,
    word_count,
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
        self._table(d, out_dim, in_dim, words, checked_stack(list(terms.values()), out_dim, in_dim))

    @classmethod
    def _of_table(cls, d: int, out_dim: int, in_dim: int, words: list[Word], block: np.ndarray) -> "NcSeries":
        """The series of distinct checked ``words`` (d, out_dim, in_dim >= 1), coefficients ``block[i]``.

        ``block`` is finite complex128, len(words) x out_dim x in_dim; it is
        kept, not copied, when the words come in graded order.
        """
        return cls.__new__(cls)._table(d, out_dim, in_dim, words, block)

    def _table(self, d: int, out_dim: int, in_dim: int, words: list[Word], block: np.ndarray) -> "NcSeries":
        ranks = list(zip(map(len, words), words))  # the graded key, built in C
        order = sorted(range(len(words)), key=ranks.__getitem__)
        if order != list(range(len(order))):
            words, block = [words[i] for i in order], block[order]
        block.setflags(write=False)
        self._set(d=d, out_dim=out_dim, in_dim=in_dim, terms=dict(zip(words, block)), _coeffs=block)
        return self

    @cached_property
    def _plan(self) -> "_Plan":
        """The evaluation plan of the support, built on the first evaluation."""
        return _Plan(self.d, list(self.terms))

    @cached_property
    def _suffixes(self) -> tuple["_Plan", list[int]]:
        """The plan of the reversed support (its suffix trie) and each plan word's index in ``terms``, built once."""
        words = list(self.terms)
        order = sorted(range(len(words)), key=lambda i: word_key(words[i][::-1]))
        return _Plan(self.d, [words[i][::-1] for i in order]), order

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
    return factor_values(f, [z])[0]


def _series_values(f: NcSeries, coords: np.ndarray) -> np.ndarray:
    """sum_w Z^w (x) f_w at each point of ``coords`` (B x d x n x n), as a B x (n p) x (n q) array."""
    b, n, p, q = len(coords), coords.shape[-1], f.out_dim, f.in_dim
    # acc[point, (a, b), (s, t)] = sum_w Z^w[a, b] f_w[s, t]
    acc = _summed(_power_blocks(f._plan, coords), f._coeffs.reshape(len(f.terms), p * q), b, n * n)
    return acc.reshape(b, n, n, p, q).transpose(0, 1, 3, 2, 4).reshape(b, n * p, n * q)


def _series_action(f: NcSeries, coords: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f(Z)(X (x) I_q) = sum_w Z^w X (x) f_w at each point of ``coords``, X = x[i] of B x n x r, as B x (n p) x (r q).

    No power is formed: ``(Z^w X)^T = X^T Z_{w_1}^T ... Z_{w_k}^T`` for
    w = w_k ... w_1 is the row walk (:func:`_power_blocks`) over the reversed
    words, at the transposed point and from ``X^T``.
    """
    b, n, r, p, q = len(coords), coords.shape[-1], x.shape[-1], f.out_dim, f.in_dim
    plan, order = f._suffixes
    rows = _power_blocks(plan, coords.transpose(0, 1, 3, 2), x.transpose(0, 2, 1))
    # acc[point, (c, a), (s, t)] = sum_w (Z^w X)[a, c] f_w[s, t]
    acc = _summed(rows, f._coeffs.reshape(len(f.terms), p * q)[order], b, r * n)
    return acc.reshape(b, r, n, p, q).transpose(0, 2, 3, 1, 4).reshape(b, n * p, r * q)


def _summed(blocks, coeffs: np.ndarray, b: int, size: int) -> np.ndarray:
    """sum_w P_w c_w over the walk's blocks, B x size x (p q): one ``(size, m) @ (m, p q)`` product per block."""
    acc = np.zeros((b, size, coeffs.shape[1]), dtype=np.complex128)
    for i, j, rows in blocks:
        acc += np.matmul(rows.reshape(b, j - i, size).transpose(0, 2, 1), coeffs[i:j])
    return acc


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


# Bytes of trie nodes (r x n row blocks) that the walk holds per point,
# whatever the degree, or one n x n matrix where that is more.  Level k is
# taken in blocks of at most caps[k] nodes, the level widths scaled to this in
# total, and the walk holds at most one block per level: within this, plus
# one node on each level whose share is below one node, and a gathered copy
# of at most one block at a time.  The caps depend on n and r alone, so a
# point's blocks, and the order in which its value is summed, are the same
# whatever batch it is walked in; a batch holds as many points as fit in
# these bytes together (:func:`_values`).
_BLOCK_BYTES = 1 << 20


def _power_blocks(plan: _Plan, coords: np.ndarray, start: np.ndarray | None = None):
    """(i, j, P): P[:, t] = Y Z^w at each point for the (i + t)-th word w of ``plan``, block by block.

    ``coords`` stacks the coordinates of B points of one size, B x d x n x n,
    and ``start`` their r x n row blocks Y, B x r x n, the identity unless
    given, so P is B x (j - i) x r x n and by default holds the powers Z^w.
    The walk is depth-first over blocks: a block of level k yields its
    support words, then its children are formed in chunks of at most
    ``caps[k + 1]`` nodes (:func:`_children`), and each chunk is walked as a
    block of level k + 1 before the next is formed.  A block is let go once
    its last chunk is formed, and no node is formed for a word outside the
    prefix closure.

    Each point's nodes are laid out alike whatever B is: gathers use
    ``take``, since fancy indexing lays out its result by B.  So every
    product of a point takes the same BLAS path, and its blocks and value
    are bitwise the same in any batch.
    """
    if plan.depth < 0:
        return
    b, n = len(coords), coords.shape[-1]
    depth, parent, rows, start_at = plan.depth, plan.parent, plan.rows, plan.start
    nodes = (np.eye(n, dtype=np.complex128)[None].repeat(b, axis=0) if start is None else start)[:, None]
    caps = plan.caps(max(_BLOCK_BYTES, 16 * n * n) // (16 * max(nodes.shape[2] * n, 1)))
    # the blocks whose children are not all formed, one per level at most:
    # [level, nodes, first node, next child, last child + 1]
    held: list[list] = []
    k, lo = 0, 0
    while True:
        hi = lo + nodes.shape[1]
        if rows[k] is None:
            yield start_at[k] + lo, start_at[k] + hi, nodes
        elif rows[k]:
            r0, r1 = bisect_left(rows[k], lo), bisect_left(rows[k], hi)
            if r0 < r1:
                yield start_at[k] + r0, start_at[k] + r1, nodes.take([r - lo for r in rows[k][r0:r1]], axis=1)
        if k < depth:
            c0, c1 = bisect_left(parent[k], lo), bisect_left(parent[k], hi)
            if c0 < c1:
                held.append([k, nodes, lo, c0, c1])
        if not held:
            return
        k, parents, first, c0, c1 = block = held[-1]
        c = min(c1, c0 + caps[k + 1])
        if c == c1:
            held.pop()
        block[3] = c
        lo, nodes, k = c0, _children(plan, k, parents, first, c0, c, coords), k + 1


def _children(plan: _Plan, k: int, nodes: np.ndarray, lo: int, c0: int, c1: int, coords: np.ndarray) -> np.ndarray:
    """The row blocks Y Z^w Z_j of nodes c0..c1-1 of level k + 1; ``nodes`` holds level k's from node lo on.

    Square nodes (powers) take one broadcast product for whole families, else
    one product per child; other nodes one product per letter j, their
    parents' rows stacked times Z_j, so Z_j is read once, not once per node.
    """
    parent, letter = plan.parent[k], plan.letter[k]
    if c1 - c0 == 1:
        return (nodes[:, parent[c0] - lo] @ coords[:, letter[c0]])[:, None]
    b, d, n = coords.shape[:3]
    if nodes.shape[2] != n:
        out = np.empty((b, c1 - c0) + nodes.shape[2:], dtype=np.complex128)
        for j in sorted(set(letter[c0:c1])):
            cs = [c for c in range(c1 - c0) if letter[c0 + c] == j]
            stacked = nodes.take([parent[c0 + c] - lo for c in cs], axis=1)
            out[:, cs] = np.matmul(stacked.reshape(b, len(cs) * nodes.shape[2], n), coords[:, j]).reshape(stacked.shape)
        return out
    p0, p1 = parent[c0], parent[c1 - 1] + 1
    if c1 - c0 == d * (p1 - p0):
        # every child of parents p0..p1-1, in order: P_i Z_j at [:, i, j]
        return np.matmul(nodes[:, p0 - lo:p1 - lo, None], coords[:, None]).reshape(b, (p1 - p0) * d, n, n)
    return np.matmul(nodes.take([parent[c] - lo for c in range(c0, c1)], axis=1), coords.take(letter[c0:c1], axis=1))


class WordIndicator(Record):
    """The series sum_a z^a (e_a^T (x) I_y) over distinct ``words``.

    Its value at Z is the block row ``[Z^a (x) I_y]_a``, one column block per
    word in the given order, so a word-indexed table of y x y blocks acts on
    it as a middle matrix.  :func:`factor_values` writes each ``Z^a`` into
    its block instead of summing one-hot coefficients.
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
    order, the flag walk stops after ``deg f`` lengths, and it is not
    walked at all where the superdiagonal chain bound clears 2 eq_rel at
    every length up to deg f < n (:func:`_chain_clears`, which derives that
    margin from the walk's rounding): then no order <= deg f exists and f
    is evaluated whole.  A truncated free shift carries its order, which
    holds at every ``eq_rel < 1`` (:func:`truncated_shift_tuple`), and walks
    no flag there.  Any other point takes the full test, which raises
    :class:`NotNilpotent` where there is no order.
    """
    return evaluate(_truncated_at(f, z, tol), z)


def _truncated_at(f: NcSeries, z: MatrixTuple, tol: Tolerances) -> NcSeries:
    """The series :func:`evaluate_on_nilpotent` evaluates at z: f without its words of length >= z's order.

    At a strictly triangular z the flag walk runs only where the superdiagonal
    chain bound does not clear 2 eq_rel, a rounding margin :func:`_chain_clears` derives.
    """
    if isinstance(z, _TruncatedShift) and tol.eq_rel < 1:
        order = z.order
    elif z.strictly_triangular:
        order = None if _chain_clears(z, tol, f.degree) else _flag_orders([z], tol, f.degree)[0]
    else:
        order = nilpotency_order(z, tol)
    # truncate only when words go, so the point keeps the value under f itself,
    # and once per order, so a truncation's plan and values are kept with f
    if order is not None and f.degree >= order:
        if order not in f._truncations:
            f._truncations[order] = truncate(f, order - 1)
        f = f._truncations[order]
    return f


# The chain bound of _chain_clears stands for the flag walk only when it is
# above eq_rel by this factor: the two differ by a relative O(L d n^2 u).
_CHAIN_MARGIN = 2.0


def _chain_clears(z: MatrixTuple, tol: Tolerances, length: int) -> bool:
    """True when the flag walk at a strictly triangular z would find no order <= ``length``, shown without it.

    At a strictly upper triangular point, row n - 1 - L of a length-L
    product Z^w has one nonzero entry, its last, and that entry is one
    product of superdiagonal entries, so over the words of length L those
    rows have the norm P_L = prod_{m = n-1-L}^{n-2} rho_m with
    rho_m^2 = sum_j |(Z_j)_{m,m+1}|^2.  In the walk of
    :func:`nilpotency_orders` that row is column n - 1 - L of c_L, scaled
    by s^-L, and s = max(1, max_j ||Z_j||_2) is at most
    S = max(1, max_j ||Z_j||_F), so ||c_L||_F >= P_L / S^L.  A strictly lower
    triangular point is the same read from the top: row and column L, and
    rho_m^2 = sum_j |(Z_j)_{m+1,m}|^2 for m < L.

    Rounding.  The columns of c_L beyond that one (before it, for a lower
    point) are exact zeros, so each entry of that column is formed from a
    single product, to a relative sqrt(5) u (u = 2^-53), and the Householder
    QR keeps a column's norm to a relative O(d n^2 u) (it is columnwise
    backward stable: Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002, Thm 19.4).  The walk's computed ||c_L||_F
    and this function's computed P_L / S^L therefore differ by a relative
    delta = O(L d n^2 u), as long as both stay above the smallest normal
    double, which they do when eq_rel does and the bound clears.  delta is
    far below 1/2 at any size that fits in memory, so a bound above
    ``_CHAIN_MARGIN`` = 2 times eq_rel at every L <= ``length`` puts the
    walk's norm above eq_rel at each of those lengths.

    Only the one row is used: the chain entries of the other rows bound
    ||c_L|| too, but the walk forms their columns as sums, whose rounding
    is not relative to the chain.  False whenever the bound does not clear,
    and for ``length >= n``, where the point has an order.
    """
    n = z.n
    if length < 1:
        return True
    if length >= n or tol.eq_rel < np.finfo(np.float64).tiny:
        return False
    s, i = z.stacked, np.arange(n - 1)
    scale = max(1.0, float(np.max(frobenius(s, axis=(1, 2)))))
    # rho_m in the order the chain meets them; one of the two is all zeros
    above = np.hypot.reduce(np.abs(s[:, i, i + 1]), axis=0)[::-1]
    below = np.hypot.reduce(np.abs(s[:, i + 1, i]), axis=0)
    return bool(np.all(np.cumprod((above + below)[:length] / scale) > _CHAIN_MARGIN * tol.eq_rel))


# ---------------------------------------------------------------------------
# coefficient extraction via the truncated free shift
# ---------------------------------------------------------------------------

class _TruncatedShift(MatrixTuple):
    """A truncated free shift, which carries its nilpotency order ``order`` = max_len + 1.

    It keeps the d x m x m block it was built in, not a copy of it.
    """

    def __init__(self, block: np.ndarray, order: int):
        self._hold(block)
        self._set(order=order)


def truncated_shift_tuple(d: int, max_len: int) -> MatrixTuple:
    """Left creation operators on the span of words of length <= max_len.

    Coordinate j maps the basis vector of w to the basis vector of j.w
    (and to 0 when the result exceeds max_len).  Jointly nilpotent of order
    max_len + 1; evaluating a series here exposes all coefficients of
    degree <= max_len as blocks.

    The point carries that order, and :func:`evaluate_on_nilpotent` takes it
    without a flag walk whenever ``eq_rel < 1``, where the walk finds it too
    (:func:`nilpotency_orders`): the coordinates are partial isometries, so
    the walk's scale is 1, and at a length L <= max_len ``||c_L||_F^2``
    counts the words of length L to max_len.  That is at least 1, exactly
    so for d = 1, where c stays n x n and no QR is taken, and at least 2 for
    d >= 2, more than rounding can take away.  At ``eq_rel >= 1`` the walk
    runs, and may stop earlier.

    In graded order the r-th word w of length k has index i = start_k + r,
    and j.w is the ((j - 1) d^k + r)-th word of length k + 1, whose index
    is i + j d^k; so coordinate j holds a 1 at (i + j d^k, i) for each word
    shorter than max_len, and the words shorter than max_len are the first.
    """
    m = word_count(d, max_len)
    shorter = np.arange(m - d ** max_len)
    # d^len(w) for each word shorter than max_len
    power = np.repeat(d ** np.arange(max_len), d ** np.arange(max_len))
    coords = np.zeros((d, m, m), dtype=np.complex128)
    coords[np.arange(d)[:, None], shorter + np.arange(1, d + 1)[:, None] * power, shorter] = 1.0
    return _TruncatedShift(coords, max_len + 1)


def extract_taylor_coefficients(
    evaluator: Callable[[MatrixTuple], np.ndarray],
    d: int,
    max_len: int,
    out_dim: int,
    in_dim: int,
    tol: Tolerances = DEFAULT_TOL,
) -> NcSeries:
    """Recover the coefficients of an nc-function evaluator up to degree max_len.

    The evaluator is probed on the truncated free shift S; the block in word
    row w, empty-word column equals the coefficient of w, since S^w e_() is
    e_w.  Only that column is read, so an evaluator that offers
    ``action(z, x)``, its value at z applied to ``x (x) I_in_dim`` (as
    :func:`functional_evaluator` does), is asked for it alone,
    ``action(S, e_())``; any other callable is asked for its whole value.
    Reads from probes of two adjacent sizes must agree, else
    :class:`InconsistentEvaluator`.
    """
    action = getattr(evaluator, "action", None)

    def read(level: int) -> tuple[list[Word], np.ndarray]:
        words = words_up_to(d, level)
        shift = truncated_shift_tuple(d, level)
        if action is None:
            value, cols = evaluator(shift), len(words) * in_dim
        else:
            value, cols = action(shift, np.eye(len(words), 1)), in_dim
        value = np.asarray(value, dtype=np.complex128)
        if value.shape != (len(words) * out_dim, cols):
            raise DimMismatch(f"evaluator returned shape {value.shape}, expected {(len(words) * out_dim, cols)}")
        return words, value[:, :in_dim].reshape(len(words), out_dim, in_dim)

    words, coeffs = read(max_len)
    if max_len >= 1:
        # the words up to max_len - 1 come first in graded order
        _, short = read(max_len - 1)
        scale_v = np.max(frobenius(coeffs, axis=(1, 2)))
        bad = np.flatnonzero(rel_err(frobenius(short - coeffs[:len(short)], axis=(1, 2)), scale_v) > tol.eq_rel)
        if bad.size:
            raise InconsistentEvaluator(f"coefficient of {words[bad[0]]} disagrees across probe sizes")

    return NcSeries(d, out_dim, in_dim, {w: c for w, c in zip(words, coeffs) if c.any()})


def functional_evaluator(f: NcSeries, tol: Tolerances = DEFAULT_TOL) -> Callable[[MatrixTuple], np.ndarray]:
    """The nilpotent-domain evaluator Z -> sum_w Z^w (x) f_w of a series.

    It also offers ``action(z, x)``, its value at z times ``x (x) I_q`` for
    an n x r block x, over the same truncation and without forming a power
    (:func:`_series_action`).
    """

    def ev(z: MatrixTuple) -> np.ndarray:
        return evaluate_on_nilpotent(f, z, tol)

    def action(z: MatrixTuple, x) -> np.ndarray:
        g = _truncated_at(f, z, tol)
        if z.d != f.d:
            raise DimMismatch(f"series over {f.d} variables evaluated at a {z.d}-tuple")
        return _series_action(g, z.stacked[None], as_cmatrix(x, z.n)[None])[0]

    ev.action = action
    return ev
