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
powers into its words' column blocks instead of summing one-hot coefficients;
the factor S F' (:class:`Multiplied`) is the product of the two kept values.

Where it pays, a series' words are split (:func:`_series_values`, after
Paterson and Stockmeyer, *SIAM J. Comput.* 2, 1973): a word w longer than a
suffix length s is u.v with |v| = s, so Z^w = Z^u Z^v.  The walk over the
words of length <= s and the suffixes v keeps the powers Z^v; then one
product forms G_u = sum_v Z^v (x) f_uv for a block of prefixes u, and one
stacked product adds sum_u (Z^u (x) I_p) G_u, with the Z^u from a walk over
the first deg f - s levels of the trie.  At d = 2, degree 8 and s = 5 that
is 76 powers and 14 stacked products of p q powers' cost instead of 511
powers.  s is chosen per support and point size by a cost model of
multiply-adds, call overheads and the split's build (:func:`_cheapest`);
s = deg f is the walk itself, taken where the split does not pay, as at
desk-scale certificate factors and at n <= 10 for degree 8.  The split's
tables, its kept powers and both walks' blocks share ``_BLOCK_BYTES``.

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
(:func:`nilpotency_orders`).  That order is a numerical judgement: a length
counts as vanishing once its products are below ``eq_rel``, which a point
that is not nilpotent but decays fast passes too.  So it decides only
whether a point is accepted; no word is dropped on its strength.  Every
series is finitely supported, so an accepted point takes its whole value
(:func:`evaluate_on_nilpotent`), except at a point already triangular in
its own basis, every coordinate exactly strictly upper triangular or every
one exactly strictly lower (:attr:`MatrixTuple.strictly_triangular`).
There the structural order, one more than the longest chain of nonzero
entries of the coordinates' union support, makes every longer product
exactly zero in floating point (:attr:`MatrixTuple.structural_order`), so
the words that long are dropped and the value is unchanged.  The nilpotent
sampler's points and the compressed free shift are such points; the shift
carries its order, one more than its longest word (:func:`compressed_shift`).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import accumulate, islice
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

    @cached_property
    def _splits(self) -> dict:
        """The splits of the value built (:class:`_Split`), by suffix length s and by the (n, bytes) that chose them."""
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
    """sum_w Z^w (x) f_w at each point of ``coords`` (B x d x n x n), as a B x (n p) x (n q) array.

    Split at the suffix length s chosen for n (:func:`_split`): the short walk
    sums the words of length <= s and keeps the suffixes' powers Z^v, then
    each block of prefixes u adds sum_u (Z^u (x) I_p) G_u, G_u = sum_v Z^v (x)
    f_uv.  At s = deg f this is the walk alone.
    """
    b, n, p, q = len(coords), coords.shape[-1], f.out_dim, f.in_dim
    split = _split(f, n)
    blocks = _power_blocks(split.short, coords)
    if split.prefixes is not None:
        kept = np.empty((b, split.width, n, n), dtype=np.complex128)
        blocks = _keep(blocks, kept, len(split.coeffs) - split.width)
    # acc[point, (a, b), (s, t)] = sum_{|w| <= s} Z^w[a, b] f_w[s, t]
    acc = _summed(blocks, split.coeffs, b, n * n)
    if split.prefixes is not None:
        suffixes = kept.reshape(b, split.width, n * n).transpose(0, 2, 1)
        acc = acc.reshape(b, n, n * p * q)
        for i, j, heads in _power_blocks(split.prefixes, coords):
            # G[point, (u, c), (b, s, t)] = sum_v Z^v[c, b] f_uv[s, t]
            g = np.matmul(suffixes, split.mix[:, i * p * q:j * p * q])
            g = g.reshape(b, n * n, j - i, p * q).transpose(0, 2, 1, 3).reshape(b, (j - i) * n, n * p * q)
            acc += np.matmul(heads.transpose(0, 2, 1, 3).reshape(b, n, (j - i) * n), g)
    return acc.reshape(b, n, n, p, q).transpose(0, 1, 3, 2, 4).reshape(b, n * p, n * q)


def _keep(blocks, kept: np.ndarray, first: int):
    """The walk's blocks, passed on once the powers of its words first, first + 1, ... are copied into ``kept``."""
    for i, j, powers in blocks:
        if i >= first:
            kept[:, i - first:j - first] = powers
        yield i, j, powers


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

    # What an evaluation holds beside the walk's nodes: bytes, powers per
    # point, and the bytes held per node walked, in nodes (:class:`_Split`).
    beside = (0, 0, 1)

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

    def head(self, depth: int, rows: list | None = None) -> "_Plan":
        """The trie's levels 0 to ``depth`` as a plan whose words are the nodes ``rows``, by default this plan's."""
        head = object.__new__(type(self))
        head.d, head.depth, head.width = self.d, depth, self.width[:depth + 1]
        head.rows = self.rows[:depth + 1] if rows is None else rows
        head.size = sum(head.width)
        head.start = list(accumulate((m if r is None else len(r) for m, r in zip(head.width, head.rows)), initial=0))
        head.parent, head.letter = self.parent[:depth], self.letter[:depth]
        return head

    def codes(self) -> list[np.ndarray]:
        """Each level's nodes as integers: their 0-based letters as digits base d, the first letter leading."""
        d, codes = self.d, [np.zeros(1, dtype=np.int64)]
        for k in range(self.depth):
            if self.width[k + 1] == d ** (k + 1):  # every word of the length
                codes.append(np.arange(self.width[k + 1], dtype=np.int64))
            else:
                codes.append(codes[k][self.parent[k]] * d + np.array(self.letter[k]))
        return codes


# Bytes of trie nodes (r x n row blocks) that the walk holds per point,
# whatever the degree, or one n x n matrix where that is more.  Level k is
# taken in blocks of at most caps[k] nodes, the level widths scaled to this in
# total, and the walk holds at most one block per level: within this, plus
# one node on each level whose share is below one node, and a gathered copy
# of at most one block at a time.  A split's two walks share what its tables
# and kept powers leave of these bytes (:attr:`_Plan.beside`).  The caps
# depend on n, r and the plan alone, so a point's blocks, and the order in
# which its value is summed, are the same whatever batch it is walked in; a
# batch holds as many points as fit in these bytes together (:func:`_values`).
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
    fixed, kept, weight = plan.beside  # what the evaluation holds beside the walk
    share = ((max(_BLOCK_BYTES, 16 * n * n) - fixed) // (16 * max(nodes.shape[2] * n, 1)) - kept) // weight
    caps = plan.caps(max(share, 1))
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


class _Split:
    """f's words split at suffix length s, w = u.v with |v| = s where |w| > s: the plans and tables of its value.

    ``short`` is the plan of the words of length <= s and the suffixes v, in
    graded order; ``coeffs`` holds f_w on its rows of support words and
    zeros on the others, and its last level, ``width`` words, holds the
    suffixes.  The prefixes u are the nodes of levels 1 to deg f - s of f's
    plan (``prefixes``), and ``mix[v, u]`` = f_uv, zero where uv is not in
    the support.  Each word's u and v come from the level codes of f's plan
    (:meth:`_Plan.codes`): v is a longer word's code mod d^s, u the node of
    its code div d^s.  At s = deg f there is no longer word: ``short`` is
    f's plan, ``coeffs`` f's coefficients, and the value is the walk's.

    ``size`` is the powers held per point when nothing is blocked; the two
    walks' blocks share the bytes left beside the tables and the suffixes'
    powers, the prefixes' walk per node with that node's G_u and stacked
    copy (:attr:`_Plan.beside`).
    """

    def __init__(self, f: NcSeries, s: int):
        plan, d = f._plan, f.d
        coeffs = f._coeffs.reshape(len(f.terms), f.out_dim * f.in_dim)
        if s >= plan.depth:
            self.short, self.coeffs, self.width, self.prefixes, self.size = plan, coeffs, 0, None, plan.size
            return
        codes, base = plan.codes(), d ** s
        at = [c if rows is None else c[rows] for c, rows in zip(codes, plan.rows)]  # support words by length
        longer = range(s + 1, plan.depth + 1)
        seen = np.zeros(base, dtype=bool)  # the suffixes and words of length s, by code
        for k in range(s, plan.depth + 1):
            seen[at[k] % base] = True
        level = np.flatnonzero(seen)
        prefixes = plan.head(plan.depth - s, [[]] + [None] * (plan.depth - s))
        top, end = plan.start[s], plan.start[s + 1]
        if plan.rows[s] is None and len(level) == plan.width[s]:
            # the suffixes are f's own words of length s: the short words are f's plan to depth s
            self.short, self.coeffs = plan.head(s), coeffs[:end]
        else:
            self.coeffs = np.zeros((top + len(level), coeffs.shape[1]), dtype=np.complex128)
            self.coeffs[:top] = coeffs[:top]
            self.coeffs[top + np.searchsorted(level, at[s])] = coeffs[top:end]
            digits = level[:, None] // d ** np.arange(s - 1, -1, -1) % d + 1
            self.short = _Plan(d, list(islice(f.terms, top)) + list(map(tuple, digits.tolist())))
        self.mix = np.zeros((len(level), prefixes.size - 1, coeffs.shape[1]), dtype=np.complex128)
        for k in longer:  # a level at a time, to hold one level's indices
            heads = np.searchsorted(codes[k - s], at[k] // base) + prefixes.start[k - s]
            self.mix[np.searchsorted(level, at[k] % base), heads] = coeffs[plan.start[k]:plan.start[k] + len(at[k])]
        self.mix = self.mix.reshape(len(level), -1)
        self.width, self.prefixes = len(level), prefixes
        held = self.coeffs.nbytes + self.mix.nbytes
        # a prefix node is held with its G_u, G_u's reordered copy and its stacked copy
        weight = 2 * coeffs.shape[1] + 2
        self.short.beside, prefixes.beside = (held, self.width, 1), (held, self.width, weight)
        self.size = self.short.size + self.width + weight * (prefixes.size - 1)


def _split(f: NcSeries, n: int) -> _Split:
    """The split of f's value at points of size n: s by :func:`_cheapest`, each split built once."""
    key = (n, _BLOCK_BYTES)
    split = f._splits.get(key)
    if split is None:
        s = _cheapest(f, n)
        if s not in f._splits:
            f._splits[s] = _Split(f, s)
        split = f._splits[key] = f._splits[s]
    return split


# The cost model's overheads in multiply-adds, fitted to timings of both
# routes at d <= 3, degree <= 8, n = 2 to 32 on one core, which does about
# 3.3 multiply-adds per ns: each node of a batched product costs n^3 +
# _NODE_MACS (0.3 us), and each level of prefixes _LEVEL_MACS (10 us) more
# than a level of the walk for its three more calls.  A split costs
# _SPLIT_MACS (240 us) more, charged to every evaluation since a series is
# often evaluated at one size once: its build and this model took 160 us
# for 511 terms inside the CLI's eval (80 us alone), and its second walk.
_NODE_MACS = 1 << 10
_LEVEL_MACS = 1 << 15
_SPLIT_MACS = 3 << 18

# Bytes per node of f's plan that building a split holds beside its tables:
# the level codes and one level's indices (measured: 21-31).
_INDEX_BYTES = 32


def _cheapest(f: NcSeries, n: int) -> int:
    """The suffix length s whose split costs the fewest multiply-adds at size n, deg f for the walk.

    The walk forms every node of f's plan and sums every word, n^2 p q
    each.  A split at s < deg f forms at most min(d^k, words of length >= k)
    short nodes on each level k <= s and the prefix nodes, adds n^3 p q per
    prefix for sum_u (Z^u (x) I_p) G_u, and n^2 p q per short row and per
    entry of ``mix`` for the G_u.  It is taken only where its tables and
    suffix powers leave room within ``_BLOCK_BYTES`` for a block of one
    prefix, and its build's indices fit there too.  At n = 1, where a node
    costs about a third of _NODE_MACS, where the walk's nodes beyond one per
    level cost less than a split's overheads, and where codes would pass
    int64, the walk is taken without a look at the splits.
    """
    plan, d, pq, depth = f._plan, f.d, f.out_dim * f.in_dim, f._plan.depth
    unit, node = 16 * n * n, n ** 3 + _NODE_MACS
    best, cost = depth, node * (plan.size - 1) + n * n * pq * len(f.terms)
    # a split forms a node per level at least, sums every word and has a level of prefixes
    if n < 2 or node * (plan.size - 1 - depth) <= _SPLIT_MACS + _LEVEL_MACS or d ** depth >= 1 << 62:
        return best
    longer = list(accumulate(reversed([m if rows is None else len(rows) for m, rows in zip(plan.width, plan.rows)])))
    longer.reverse()  # longer[k]: the words of length >= k
    short = 0
    for s in range(1, depth):
        level, heads = min(d ** s, longer[s]), sum(plan.width[1:depth - s + 1])
        short += level
        rows = plan.start[s] + level + level * heads
        room = (max(_BLOCK_BYTES, unit) - 16 * pq * rows) // unit - level
        here = (node * (short + heads) + n ** 3 * pq * heads + n * n * pq * rows
                + _LEVEL_MACS * (depth - s) + _SPLIT_MACS)
        built = 16 * pq * rows + _INDEX_BYTES * plan.size + d ** s  # tables, indices and a flag per suffix
        if room >= 2 * pq + 2 and built <= _BLOCK_BYTES and here < cost:
            best, cost = s, here
    return best


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


class Multiplied(Record):
    """The factor S F' of a de Branges-Rovnyak kernel, F' any kernel factor: its value at Z is S(Z) F'(Z)."""

    def __init__(self, s: NcSeries, f: NcSeries | WordIndicator | Multiplied):
        self._set(d=s.d, s=s, f=f)


def factor_values(f: NcSeries | WordIndicator | Multiplied, points: Sequence[MatrixTuple]) -> list[np.ndarray]:
    """The value of a series or kernel factor at each point, read-only.

    Each point keeps its value (:func:`ncrkhs.core.cached_at`), so f is
    evaluated once per point; the points that hold none are evaluated together,
    by one walk per size, or as S(Z) F'(Z) from kept values (:func:`_values`).
    """
    for z in points:
        if z.d != f.d:
            raise DimMismatch(f"series over {f.d} variables evaluated at a {z.d}-tuple")
    return cached_at(points, f, lambda missing: _values(f, missing))


def _values(f: NcSeries | WordIndicator | Multiplied, points: Sequence[MatrixTuple]) -> list[np.ndarray]:
    """f at each point: one (split) walk per batch of points of one size on a batch axis; S F' from kept values."""
    if isinstance(f, Multiplied):
        return [s @ g for s, g in zip(factor_values(f.s, points), factor_values(f.f, points))]
    walk = _series_values if isinstance(f, NcSeries) else _word_blocks
    out: list = [None] * len(points)
    for (_, n, _), members in _by_size(points).items():
        # as many points as hold the powers of the whole trie, or of the split, within _BLOCK_BYTES
        split = _split(f, n) if isinstance(f, NcSeries) else None
        held, size = (split.short.beside[0], split.size) if split else (0, f._plan.size)
        batch = max(1, (_BLOCK_BYTES - held) // (16 * max(n * n, 1) * max(size, 1)))
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
    out: list[int | None] = [None] * len(points)
    for (d, n, _), members in _by_size(points).items():
        # a 0 x 0 point has order 1, like the zero tuple
        last = max(n, 1)
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
    """f(Z) at a jointly nilpotent tuple; raises :class:`NotNilpotent` at any other.

    At a :attr:`~ncrkhs.core.MatrixTuple.strictly_triangular` point, which is
    nilpotent, f is truncated below the point's
    :attr:`~ncrkhs.core.MatrixTuple.structural_order`, whose words add exact
    zeros.  Any other point is accepted or refused by
    :func:`nilpotency_order` at ``tol``, a numerical judgement, and f is
    evaluated whole there.  So an accepted value equals :func:`evaluate`'s,
    to rounding.
    """
    return evaluate(_truncated_at(f, z, tol), z)


def _truncated_at(f: NcSeries, z: MatrixTuple, tol: Tolerances) -> NcSeries:
    """The series :func:`evaluate_on_nilpotent` evaluates at z: f without the words that vanish exactly there.

    Those are the words of length >= z's structural order at a strictly
    triangular z, and none elsewhere, where z passes the nilpotency test or
    is refused.
    """
    if z.d != f.d:
        raise DimMismatch(f"series over {f.d} variables evaluated at a {z.d}-tuple")
    order = z.structural_order
    if order is None:
        nilpotency_order(z, tol)  # raises NotNilpotent where z is refused
    elif f.degree >= order:
        # truncate only when words go, so the point keeps the value under f itself,
        # and once per order, so a truncation's plan and values are kept with f
        if order not in f._truncations:
            f._truncations[order] = truncate(f, order - 1)
        f = f._truncations[order]
    return f


# ---------------------------------------------------------------------------
# coefficient extraction via the truncated free shift
# ---------------------------------------------------------------------------

class _TruncatedShift(MatrixTuple):
    """A compressed free shift, built as one block: coordinate ``letters[i]`` maps e_{cols[i]} to e_{rows[i]}.

    It keeps that block, and its structural order ``order``, which it knows
    without the walk: it is strictly lower triangular.
    """

    def __init__(self, d: int, m: int, letters, rows, cols, order: int):
        block = np.zeros((d, m, m), dtype=np.complex128)
        block[letters, rows, cols] = 1.0
        self._hold(block)
        self._set(strictly_triangular=True, structural_order=order)


def truncated_shift_tuple(d: int, max_len: int) -> MatrixTuple:
    """:func:`compressed_shift` to all words of length <= max_len, which exposes every coefficient up to max_len.

    The r-th word w of length k has index i = start_k + r in graded order,
    and j.w is the ((j - 1) d^k + r)-th word of length k + 1, of index
    i + j d^k: coordinate j holds a 1 at (i + j d^k, i) for each of the
    first words, those shorter than max_len.
    """
    m = word_count(d, max_len)
    shorter = np.arange(m - d ** max_len)
    # d^len(w) for each word shorter than max_len
    power = np.repeat(d ** np.arange(max_len), d ** np.arange(max_len))
    letters = np.arange(d)[:, None]
    return _TruncatedShift(d, m, letters, shorter + (letters + 1) * power, shorter, max_len + 1)


def compressed_shift(d: int, words: Sequence[Word]) -> MatrixTuple:
    """The free shift compressed to the span of ``words``: suffix closed, graded, the empty word first.

    Coordinate j maps e_w to e_{j.w} when j.w is a word, else to 0, so
    Z^a e_() is e_a for a word a and 0 for any other: the point is jointly
    nilpotent of order one more than its longest word.  The words are
    graded, so every coordinate is strictly lower triangular, and the
    longest chain of its support runs from e_() to a longest word: that
    order is its :attr:`~ncrkhs.core.MatrixTuple.structural_order`, which
    it carries from the start.
    """
    index = {w: i for i, w in enumerate(words)}
    return _TruncatedShift(d, len(words), [w[0] - 1 for w in words[1:]], range(1, len(words)),
                           [index[w[1:]] for w in words[1:]], len(words[-1]) + 1)


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
        return _series_action(_truncated_at(f, z, tol), z.stacked[None], as_cmatrix(x, z.n)[None])[0]

    ev.action = action
    return ev
