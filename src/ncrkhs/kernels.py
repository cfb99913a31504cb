"""Completely positive nc kernels: moment, Kolmogorov and Gram-basis forms.

A kernel value K(Z, W)(P) is an ``(n*y) x (m*y)`` matrix for points of sizes
n, m and an algebra argument ``P in A^{n x m}``.  Elements of ``A^{n x m}``
for ``A = C^{k x k}`` are encoded as ``(n*k) x (m*k)`` block matrices, and a
unital *-representation acts blockwise as ``a -> a (x) I_mult``.

Every stored form is one factored form ``K(Z,W)(P) = F(Z) (P (x) C) F(W)*``
(the Kolmogorov decomposition), with a factor series F and a middle matrix
C fixed at construction and stored once, as the form's own array:

    form        F                                        C
    moment      word indicator of the stored words a     ``middle``, the moment matrix [K_{a,b}]
                (coefficient e_a^T (x) I_y)              (``moments`` is derived from it)
    Kolmogorov  H                                        I_{r s}
    Gram basis  stacked basis, columns ordered (c, i)    ``gram_inv``, G^{-1}

A de Branges-Rovnyak kernel K - S K' S* is ``[F, S F'] (C (+) -C') [...]*``,
where S F' is taken through its values S(Z) F'(Z), never as a product series,
and a difference K - K' is ``[F, F'] (C (+) -C') [...]*``.  A certificate's
block matrix ``[K(Z_i, Z_j)(X_i X_j*)]_{ij}`` is one product per factor,
``A (I (x) C) A*`` with ``A = vstack_i F(Z_i)(X_i (x) I)``: N factor values
instead of N^2 kernel values; :func:`kolmogorov_at_sample` reads its rows of
A off F(Z_i).  C is positive semidefinite for the Kolmogorov and Gram forms,
so their sampled certificates pass by construction; only moment tables,
de Branges-Rovnyak kernels and difference kernels can fail.

Positivity is certified on seeded samples: a pass is evidence, not proof,
except on nilpotent domains where exhaustively truncated moment kernels are
evaluated exactly.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    DimMismatch,
    InputError,
    MatrixTuple,
    MissingPair,
    Record,
    Tolerances,
    TruncationRefused,
    Value,
    Word,
    as_cmatrix,
    cached_at,
    check_intertwiner,
    check_positive,
    checked_stack,
    direct_sum,
    frobenius,
    frozen,
    int_words,
    kron,
    pd_eigh,
    psd_factor,
    psd_verdict,
    rel_err,
    spec_norm,
    validate_word,
    words_up_to,
)
from .sampling import (
    GAUSSIAN,
    NILPOTENT,
    random_algebra_matrices,
    random_algebra_matrix,
    random_psd,
    random_similarity,
    rng_from_seed,
    sample_tuple,
    sample_tuples,
)
from .series import (
    AxiomReport,
    NcSeries,
    WordIndicator,
    factor_values,
    nilpotency_orders,
)


# ---------------------------------------------------------------------------
# the coefficient algebra and its representations
# ---------------------------------------------------------------------------

SCALAR = "scalar"
FULL_MATRIX = "full_matrix"


class AlgebraSpec(Value):
    """The C*-algebra C^{k x k} with representation a -> a (x) I_r."""

    def __init__(self, kind: str = SCALAR, k: int = 1, r: int = 1):
        if kind not in (SCALAR, FULL_MATRIX):
            raise InputError(f"unknown algebra kind {kind!r}")
        if k < 1 or r < 1:
            raise InputError("algebra sizes must be >= 1")
        if kind == SCALAR and k != 1:
            raise InputError("scalar algebra has k = 1")
        self._set(kind=kind, k=k, r=r)

    @property
    def rep_dim(self) -> int:
        return self.k * self.r

    def unit(self, n: int) -> np.ndarray:
        """Encoded identity of A^{n x n}."""
        return np.eye(n * self.k, dtype=np.complex128)


# ---------------------------------------------------------------------------
# kernel forms
# ---------------------------------------------------------------------------

class KernelBase:
    """Shared surface of all kernel representations."""

    d: int
    y_dim: int
    algebra: AlgebraSpec
    default_sampler: str
    # longest stored word of a truncated kernel; None when it is exact everywhere
    max_len: int | None = None

    def evaluate(self, z: MatrixTuple, w: MatrixTuple, p: np.ndarray,
                 allow_truncation: bool = False) -> np.ndarray:
        raise NotImplementedError

    def block_matrix(self, points: Sequence[MatrixTuple], args: Sequence[np.ndarray]) -> np.ndarray:
        """The block matrix [K(Z_i, Z_j)(X_i X_j*)]_{ij}, one kernel value per block.

        ``args[i]`` is an encoded (n_i k) x (r k) matrix over the algebra.
        """
        return np.block([
            [self.evaluate(zi, zj, xi @ xj.conj().T) for zj, xj in zip(points, args)]
            for zi, xi in zip(points, args)
        ])

    def precompute(self, points: Sequence[MatrixTuple]) -> None:
        """Compute ahead what :meth:`evaluate` needs at ``points``; a form that keeps nothing at points does nothing."""

    def _check_points(self, z: MatrixTuple, w: MatrixTuple, p: np.ndarray) -> np.ndarray:
        if z.d != self.d or w.d != self.d:
            raise DimMismatch(f"kernel over {self.d} variables evaluated at {z.d}/{w.d}-tuples")
        k = self.algebra.k
        return as_cmatrix(p, z.n * k, w.n * k)


class FactoredKernel(KernelBase):
    """K(Z,W)(P) = sum_t F_t(Z) (P (x) C_t) F_t(W)* over factor/middle pairs (F_t, C_t).

    A factor F has y_dim rows and k*D coefficient columns ordered (c, alpha),
    algebra index outermost, for a D x D middle matrix C; so the columns of
    F(Z) run over (point, c, alpha) and P acts on (point, c), C on alpha.
    ``P (x) C`` is never formed: P and C are applied as two matrix products.
    A read-only C is kept as given, so a form's own C is the one in ``terms``.
    Factor values come from :func:`ncrkhs.series.factor_values`: each point
    keeps its value, and the points of a sample that have none are evaluated
    one size at a time, by one walk per size; :meth:`evaluate` asks for F(Z)
    and F(W) together, so two fresh points of one size share one walk.

    A kernel built from a moment table keeps its ``max_len``: it is exact only
    at jointly nilpotent points of order <= max_len + 1, and refuses other
    points unless a truncation is asked for.  A strictly triangular point
    of size <= max_len + 1 is inside without a test, and a larger one is
    judged by its structural order; the others are tested at ``tol``, the
    points of one size together, and keep their orders in their memos.
    ``kind`` names the kernel in that refusal.
    """

    def __init__(self, d: int, y_dim: int, algebra: AlgebraSpec, terms,
                 max_len: int | None = None, tol: Tolerances = DEFAULT_TOL, kind: str = "factored"):
        self.d = int(d)
        self.y_dim = int(y_dim)
        self.algebra = algebra
        self.max_len = max_len
        self.kind = kind
        self.tol = tol
        # a factor without columns contributes nothing
        self.terms = tuple((f, frozen(c) if c.flags.writeable else c) for f, c in terms if c.shape[0])

    @property
    def default_sampler(self) -> str:
        return GAUSSIAN if self.max_len is None else NILPOTENT

    def _check_domain(self, points: Sequence[MatrixTuple]) -> None:
        """Raise :class:`TruncationRefused` if K is only a truncation at one of ``points``.

        Only the points that :meth:`_orders` tests can be refused.
        """
        if self.max_len is None:
            return
        # words of length >= order vanish at a point, so the stored support
        # is the whole kernel there iff order <= max_len + 1
        if any(order is None or order > self.max_len + 1 for order in self._orders(points)):
            raise TruncationRefused(
                f"the {self.kind} kernel is exact only at jointly nilpotent points of order "
                f"<= {self.max_len + 1}; its value at this point would be a truncation"
            )

    def _orders(self, points: Sequence[MatrixTuple]) -> list[int | None]:
        """The nilpotency orders of the ``points`` that need one, in order.

        A strictly triangular point takes its
        :attr:`~ncrkhs.core.MatrixTuple.structural_order`, past which no word
        survives, at most max(n, 1): one of size n <= max_len + 1 is inside
        and is left out.  Each other point is tested at ``tol`` and keeps its
        order, so it is tested once per tolerance.
        """
        tested = [z for z in points if z.n > self.max_len + 1 or not z.strictly_triangular]
        walked = iter(cached_at([z for z in tested if z.structural_order is None], self.tol,
                                lambda missing: nilpotency_orders(missing, self.tol)))
        return [next(walked) if z.structural_order is None else z.structural_order for z in tested]

    def precompute(self, points):
        """Test the domain at ``points`` and form every factor's value there, one size at a time.

        Nothing is refused here: each point that :meth:`_orders` tests keeps
        its order, each point keeps its values, and :meth:`evaluate` refuses
        a point outside the domain when it meets it.
        """
        if self.max_len is not None:
            self._orders(points)
        for f, _ in self.terms:
            factor_values(f, points)

    def _weighted(self, value: np.ndarray, c: np.ndarray, x: np.ndarray) -> np.ndarray:
        """F(Z)(X (x) I_D) for the factor value F(Z): X acts on its (point, algebra) column index."""
        rows = value.shape[0]
        value = value.reshape(rows, x.shape[0], c.shape[0])
        return np.matmul(x.T, value).reshape(rows, x.shape[1] * c.shape[0])

    def evaluate(self, z, w, p, allow_truncation: bool = False):
        p = self._check_points(z, w, p)
        if not allow_truncation:
            self._check_domain([z, w])
        out = np.zeros((z.n * self.y_dim, w.n * self.y_dim), dtype=np.complex128)
        for f, c in self.terms:
            fz, fw = factor_values(f, [z, w])
            out += _times_middle(self._weighted(fz, c, p), c) @ fw.conj().T
        return out

    def block_matrix(self, points, args):
        """One product per term: A (I (x) C) A* with A = vstack_i F(Z_i)(X_i (x) I_D)."""
        return self._stacked_gram(points, sum(z.n for z in points),
                                  lambda values, c: [self._weighted(v, c, x) for v, x in zip(values, args)])

    def _stacked_gram(self, points, rows: int, blocks) -> np.ndarray:
        """sum_t A_t (I (x) C_t) A_t* over ``rows`` Y-rows, A_t stacking ``blocks(F_t(Z_i) over i, C_t)``."""
        self._check_domain(points)
        out = np.zeros((rows * self.y_dim, rows * self.y_dim), dtype=np.complex128)
        for f, c in self.terms:
            a = np.vstack(blocks(factor_values(f, points), c))
            out += _times_middle(a, c) @ a.conj().T
        return out


def _times_middle(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a (I (x) C): C acts on the innermost column index of ``a``."""
    return (a.reshape(-1, c.shape[0]) @ c).reshape(a.shape)


class MomentKernel(FactoredKernel):
    """Kernel given by its word moments: K(Z,W)(P) = sum Z^a P (W^b)* (x) K_{a,b}.

    The finitely supported Hermitian table K_{a,b} is read two ways: formally,
    as a kernel over the free monoid (see :mod:`ncrkhs.formal`), and
    functionally, through :meth:`evaluate`.  Restricted to the scalar algebra.
    It is held once: ``words`` (graded lex), the read-only mask ``stored`` of
    the pairs given, and ``middle``, the moment matrix [K_{a,b}] over the words
    and the very C of the factored form whose factor is their word indicator;
    :attr:`moments` is derived from them.  Evaluation is exact at jointly
    nilpotent points of order <= max_len + 1, elsewhere a truncation on request.
    """

    def __init__(self, d: int, y_dim: int, moments: Mapping[tuple, np.ndarray],
                 max_len: int, tol: Tolerances = DEFAULT_TOL):
        _check_sizes(y_dim, max_len)
        rows = int_words([wa for wa, _ in moments], d)
        cols = int_words([wb for _, wb in moments], d)
        keys = None if rows is None or cols is None else list(zip(rows, cols))
        if keys is None or max(map(len, rows + cols), default=0) > max_len or len(set(keys)) < len(keys):
            # pair by pair, to name the first bad letter, long word or repeated pair
            seen: dict[tuple[Word, Word], None] = {}
            for wa, wb in moments:
                key = (validate_word(wa, d), validate_word(wb, d))
                if max(len(key[0]), len(key[1])) > max_len:
                    raise InputError(f"moment word pair {key} exceeds max_len={max_len}")
                if key in seen:
                    raise InputError(f"duplicate moment pair {key}")
                seen[key] = None
            keys = list(seen)
        self._table(d, y_dim, keys, checked_stack(list(moments.values()), y_dim, y_dim), max_len, tol)

    @classmethod
    def _of_table(cls, d, y_dim, keys, block, max_len, tol=DEFAULT_TOL) -> "MomentKernel":
        """The kernel of the distinct checked word pairs ``keys``, K_{keys[i]} = ``block[i]`` (finite complex128)."""
        return cls.__new__(cls)._table(d, y_dim, keys, block, max_len, tol)

    def _table(self, d, y_dim, keys, block, max_len, tol) -> "MomentKernel":
        words = tuple(sorted(sorted(set(chain.from_iterable(keys))), key=len))  # graded order
        if words and len(words[-1]) > max_len:
            raise InputError(f"a moment word exceeds max_len={max_len}")
        index = {w: i for i, w in enumerate(words)}
        m = len(words)
        rows = [index[wa] for wa, _ in keys]
        cols = [index[wb] for _, wb in keys]
        stored = np.zeros((m, m), dtype=bool)
        stored[rows, cols] = True
        table = np.zeros((m, y_dim, m, y_dim), dtype=np.complex128)
        table[rows, :, cols, :] = block
        return self._hold(d, y_dim, words, stored, table.reshape(m * y_dim, m * y_dim), max_len, tol)

    @classmethod
    def _of_matrix(cls, d, y_dim, words, stored, middle, max_len, tol=DEFAULT_TOL) -> "MomentKernel":
        """The kernel of ``middle`` over the graded ``words``, the pairs ``stored`` given; both kept, not copied."""
        return cls.__new__(cls)._hold(d, y_dim, words, stored, middle, max_len, tol)

    def _hold(self, d, y_dim, words, stored, middle, max_len, tol) -> "MomentKernel":
        _check_sizes(y_dim, max_len)
        # blockwise ||K_ab - K_ba*|| against the largest moment; an exactly Hermitian
        # (finite) table has every gap exactly zero, so it skips the test
        if not np.array_equal(middle, middle.conj().T):
            table = middle.reshape(len(words), y_dim, len(words), y_dim)
            gap = frobenius(table - table.transpose(2, 3, 0, 1).conj(), axis=(1, 3))
            scale = np.max(frobenius(table, axis=(1, 3)), initial=0.0)
            bad = np.argwhere(rel_err(gap, scale) > tol.eq_rel)
            if bad.size:
                a, b = bad[0]
                raise InputError(f"moment table is not Hermitian at pair {(words[a], words[b])}")
        stored.setflags(write=False)
        middle.setflags(write=False)
        self.words, self.stored, self.middle = words, stored, middle
        factor = WordIndicator(int(d), int(y_dim), words)
        super().__init__(d, y_dim, AlgebraSpec(SCALAR), [(factor, middle)], int(max_len), tol, "moment")
        return self

    @property
    def moments(self) -> dict[tuple[Word, Word], np.ndarray]:
        """A new dict of the stored pairs (a, b), in graded order, to K_{a,b} as read-only views of ``middle``."""
        blocks = self.middle.reshape(len(self.words), self.y_dim, len(self.words), self.y_dim)
        return {(self.words[i], self.words[j]): blocks[i, :, j, :] for i, j in np.argwhere(self.stored).tolist()}

    # each form keeps evaluate in its own class body (perfbench/tracer.py times it there)
    evaluate = FactoredKernel.evaluate


def _check_sizes(y_dim: int, max_len: int) -> None:
    """A moment table has a max_len >= 0 and 1 x 1 blocks at least, as a series has nonempty coefficients."""
    if max_len < 0:
        raise InputError("max_len must be >= 0")
    if y_dim < 1:
        raise InputError(f"moment blocks must be at least 1 x 1, got y_dim={y_dim}")


class KolmogorovKernel(FactoredKernel):
    """K(Z,W)(P) = H(Z) (id (x) sigma)(P) H(W)* with sigma(a) = a (x) I_{r s}: F = H, C = I_{rs}."""

    def __init__(self, algebra: AlgebraSpec, h: NcSeries, s: int = 1):
        if s < 1:
            raise InputError("internal multiplicity s must be >= 1")
        if h.in_dim != algebra.rep_dim * s:
            raise DimMismatch(
                f"factor in_dim {h.in_dim} != k*r*s = {algebra.rep_dim * s}"
            )
        self.h = h
        self.s = int(s)
        super().__init__(h.d, h.out_dim, algebra, [(h, np.eye(algebra.r * self.s))])

    evaluate = FactoredKernel.evaluate


class GramBasisKernel(FactoredKernel):
    """K(Z,W)(P) = sum_{ij} (G^{-1})_{ij} f_i(Z) P f_j(W)* for a finite basis.

    The basis (nonempty, in_dim = k) is held as one series ``stacked`` whose
    coefficient column ``i*k + c`` is column ``c`` of ``f_i``.  The factor is
    ``stacked`` with its columns reordered once to ``(c, i)`` (the same
    series when k = 1), and the middle matrix C = G^{-1} is ``gram_inv`` itself.
    ``gram`` must pass the gramian rule :func:`ncrkhs.core.pd_eigh`.
    """

    def __init__(self, algebra: AlgebraSpec, basis: Sequence[NcSeries], gram: np.ndarray,
                 tol: Tolerances = DEFAULT_TOL):
        if not basis:
            raise InputError("a gram basis needs at least one basis function")
        for f in basis:
            if f.d != basis[0].d or f.out_dim != basis[0].out_dim or f.in_dim != algebra.k:
                raise DimMismatch("basis functions must share d, out_dim and have in_dim = k")
        gram = as_cmatrix(gram, len(basis), len(basis))
        pd_eigh(gram, tol, "gram matrix")
        self.basis = list(basis)
        d, y, k, size = basis[0].d, basis[0].out_dim, algebra.k, len(basis)
        words = {w for f in basis for w in f.support}
        self.stacked = NcSeries(d, y, size * k, {
            w: np.hstack([f.coefficient(w) for f in basis]) for w in words
        })
        self.gram = frozen(gram)
        self.gram_inv = frozen(np.linalg.inv(gram))
        factor = self.stacked
        if k > 1:
            order = np.arange(size * k).reshape(size, k).T.reshape(-1)
            factor = NcSeries(d, y, size * k, {w: c[:, order] for w, c in self.stacked.terms.items()})
        super().__init__(d, y, algebra, [(factor, self.gram_inv)])

    evaluate = FactoredKernel.evaluate


class CallableKernel(KernelBase):
    """Kernel defined by an arbitrary evaluator; certificates assemble it block by block."""

    def __init__(self, d: int, y_dim: int, algebra: AlgebraSpec,
                 fn: Callable[[MatrixTuple, MatrixTuple, np.ndarray], np.ndarray],
                 default_sampler: str = GAUSSIAN):
        self.d = int(d)
        self.y_dim = int(y_dim)
        self.algebra = algebra
        self._fn = fn
        self.default_sampler = default_sampler

    def evaluate(self, z, w, p, allow_truncation: bool = False):
        p = self._check_points(z, w, p)
        return self._fn(z, w, p)


def szego_kernel(d: int, max_len: int, y_dim: int = 1) -> MomentKernel:
    """Truncated Szego-type moment kernel: K_{a,b} = delta_{a,b} I over every word of length <= max_len."""
    words = tuple(words_up_to(d, max_len))
    m = len(words)
    return MomentKernel._of_matrix(d, y_dim, words, np.eye(m, dtype=bool),
                                   np.eye(m * y_dim, dtype=np.complex128), max_len)


def moment_kernel_from_factor(h: NcSeries, max_len: int) -> MomentKernel:
    """Scalar-algebra moment table K_{a,b} = H_a H_b* of a Kolmogorov factor, as one product G = H H*.

    It holds the factor's words of length <= max_len, which come first in its graded support.
    G is Hermitian only to rounding; (G + G*)/2 is exactly Hermitian, since floating-point
    addition commutes, so the table skips the Hermitian test of :meth:`MomentKernel._hold`.
    """
    m = sum(len(w) <= max_len for w in h.terms)
    stacked = np.array(list(h.terms.values())[:m], dtype=np.complex128).reshape(m * h.out_dim, h.in_dim)
    middle = stacked @ stacked.conj().T
    middle += middle.conj().T
    middle /= 2
    return MomentKernel._of_matrix(h.d, h.out_dim, tuple(h.terms)[:m], np.ones((m, m), dtype=bool), middle, max_len)


# ---------------------------------------------------------------------------
# kernel elements
# ---------------------------------------------------------------------------

class KernelElement(Record):
    """Reproducing element K_{W,v,y}: evaluates as K(Z,W)(u v) y."""

    def __init__(self, kernel: KernelBase, w: MatrixTuple, v: np.ndarray, y: np.ndarray):
        """``v`` is a row over A (k x (m*k) encoded), ``y`` a vector in Y^m."""
        k = kernel.algebra.k
        m = w.n
        v = frozen(as_cmatrix(v, k, m * k))
        y = np.asarray(y, dtype=np.complex128).reshape(-1)
        if y.shape[0] != m * kernel.y_dim:
            raise DimMismatch(f"y must lie in Y^{m}, got length {y.shape[0]}")
        y = y.copy()
        y.setflags(write=False)
        self._set(kernel=kernel, w=w, v=v, y=y)

    def evaluate(self, z: MatrixTuple, u: np.ndarray) -> np.ndarray:
        """K_{W,v,y}(Z) u = K(Z,W)(u v) y."""
        k = self.kernel.algebra.k
        u = as_cmatrix(u, z.n * k, k)
        return self.kernel.evaluate(z, self.w, u @ self.v) @ self.y


# ---------------------------------------------------------------------------
# kernel axiom checks
# ---------------------------------------------------------------------------

class KernelAxiomSamples(Record):
    """The arguments of each axiom check; a list left out starts empty and is not shared."""

    def __init__(self, hermitian: list | None = None, direct_sums: list | None = None,
                 intertwinings: list | None = None):
        self._set(
            hermitian=[] if hermitian is None else hermitian,              # (Z, W, P)
            direct_sums=[] if direct_sums is None else direct_sums,        # (Z, Zt, W, Wt, P_full)
            intertwinings=[] if intertwinings is None else intertwinings,  # (Z, Zt, alpha, W, Wt, beta, P)
        )


def _direct_sum(z: MatrixTuple, zt: MatrixTuple) -> MatrixTuple:
    """Z (+) Zt, made once per pair and kept on Z, so its factor values are formed once."""
    return cached_at([z], zt, lambda _: [direct_sum([z, zt])])[0]


def draw_kernel_axiom_samples(
    kernel: KernelBase,
    rng,
    n_samples: int = 4,
    sizes: Sequence[int] = (2, 3),
    sampler: str | None = None,
) -> KernelAxiomSamples:
    """Random points, exact intertwiners (similarities and embeddings), and arguments."""
    check_positive(n_samples, "sample")
    rng = rng_from_seed(rng)
    sampler, sizes = _domain(kernel, sampler, sizes)
    k = kernel.algebra.k
    samples = KernelAxiomSamples()
    for i in range(n_samples):
        n, m = (sizes[j % len(sizes)] for j in (i, i + 1))
        z = sample_tuple(rng, sampler, kernel.d, n)
        w = sample_tuple(rng, sampler, kernel.d, m)
        p = random_algebra_matrix(rng, k, n, m)
        samples.hermitian.append((z, w, p))

        zt = sample_tuple(rng, sampler, kernel.d, n)
        wt = sample_tuple(rng, sampler, kernel.d, m)
        p_full = random_algebra_matrix(rng, k, 2 * n, 2 * m)
        samples.direct_sums.append((z, zt, w, wt, p_full))

        s = random_similarity(rng, n)
        t = random_similarity(rng, m)
        z_sim = MatrixTuple(tuple(s @ c @ np.linalg.inv(s) for c in z.coords))
        w_sim = MatrixTuple(tuple(t @ c @ np.linalg.inv(t) for c in w.coords))
        samples.intertwinings.append((z, z_sim, s, w, w_sim, t, p))

        # column embedding into a direct sum, the point the direct-sum check uses
        big = _direct_sum(z, zt)
        alpha = np.vstack([np.eye(n), np.zeros((n, n))])
        samples.intertwinings.append((z, big, alpha, w, w, np.eye(m), p))
    return samples


def check_kernel_axioms(
    kernel: KernelBase,
    samples: KernelAxiomSamples,
    tol: Tolerances = DEFAULT_TOL,
) -> AxiomReport:
    """Hermitian symmetry, direct sums and intertwining-respect on given samples.

    Every point the checks evaluate at is computed for first, one size at a
    time (:meth:`KernelBase.precompute`).
    """
    k = kernel.algebra.k
    y = kernel.y_dim
    sums = [(_direct_sum(z, zt), _direct_sum(w, wt)) for z, zt, w, wt, _ in samples.direct_sums]
    kernel.precompute([x for sample in samples.hermitian + samples.direct_sums + samples.intertwinings
                       for x in sample if isinstance(x, MatrixTuple)] + [z for pair in sums for z in pair])

    def violations():
        for z, w, p in samples.hermitian:
            lhs = kernel.evaluate(z, w, p).conj().T
            rhs = kernel.evaluate(w, z, p.conj().T)
            yield rel_err(frobenius(lhs - rhs), frobenius(lhs)), ("hermitian", (z, w, p))

        for (z, zt, w, wt, p_full), (z_sum, w_sum) in zip(samples.direct_sums, sums):
            lhs = kernel.evaluate(z_sum, w_sum, p_full)
            nk, mk = z.n * k, w.n * k
            rhs = np.block([
                [kernel.evaluate(z, w, p_full[:nk, :mk]), kernel.evaluate(z, wt, p_full[:nk, mk:])],
                [kernel.evaluate(zt, w, p_full[nk:, :mk]), kernel.evaluate(zt, wt, p_full[nk:, mk:])],
            ])
            yield rel_err(frobenius(lhs - rhs), frobenius(lhs)), ("direct_sum", (z, zt, w, wt))

        for z, zt, alpha, w, wt, beta, p in samples.intertwinings:
            alpha = check_intertwiner(alpha, z, zt, tol)
            beta = check_intertwiner(beta, w, wt, tol)
            lhs = kron(alpha, np.eye(y)) @ kernel.evaluate(z, w, p) @ kron(beta, np.eye(y)).conj().T
            moved = kron(alpha, np.eye(k)) @ p @ kron(beta, np.eye(k)).conj().T
            rhs = kernel.evaluate(zt, wt, moved)
            yield rel_err(frobenius(lhs - rhs), frobenius(lhs)), ("intertwining", (z, zt, w, wt))

    return AxiomReport.worst(violations(), tol.eq_rel)


# ---------------------------------------------------------------------------
# complete-positivity certificates
# ---------------------------------------------------------------------------

class CpCertificate(NamedTuple):
    """Outcome of a sampled positivity check; deterministic given the seed."""

    passed: bool
    min_eig: float
    sample_description: dict
    seed: object
    witness: np.ndarray | None = None
    points: tuple = ()


def _domain(kernel: KernelBase, sampler: str | None, sizes: Sequence[int]) -> tuple[str, tuple[int, ...]]:
    """The sampler (the kernel's own for None or "auto") and the sizes clamped to its exact domain."""
    if not sizes or min(sizes) < 1:
        raise InputError(f"point sizes must be positive, got {tuple(sizes)}")
    if sampler is None or sampler == "auto":
        sampler = kernel.default_sampler
    # a truncated kernel is exact at nilpotent points of order <= max_len + 1
    if sampler == NILPOTENT and kernel.max_len is not None:
        return sampler, tuple(min(int(s), kernel.max_len + 1) for s in sizes)
    return sampler, tuple(int(s) for s in sizes)


def sample_points(kernel: KernelBase, rng, n_points: int, sizes: Sequence[int],
                  sampler: str | None = None) -> tuple[str, list[MatrixTuple]]:
    """The resolved sampler and ``n_points`` seeded points whose sizes cycle through ``sizes``.

    Nilpotent sizes are clamped to a truncated kernel's exact domain.
    """
    check_positive(n_points, "sample point")
    sampler, sizes = _domain(kernel, sampler, sizes)
    return sampler, sample_tuples(rng, sampler, kernel.d, [sizes[i % len(sizes)] for i in range(n_points)])


def cp_certificate(
    kernel: KernelBase,
    n_points: int = 4,
    sizes: Sequence[int] = (2, 3),
    n_rows: int = 2,
    seed=0,
    tol: Tolerances = DEFAULT_TOL,
    sampler: str | None = None,
) -> CpCertificate:
    """Sampled test of sum_{ij} b_i* K(Z_i, Z_j)(P_i* P_j) b_j >= 0.

    Assembles the Hermitian block matrix M_{ij} = K(Z_i, Z_j)(P_i* P_j) with
    :meth:`KernelBase.block_matrix` and eigenchecks it against the relative
    PSD floor.
    """
    rng = rng_from_seed(seed)
    sampler, points = sample_points(kernel, rng, n_points, sizes, sampler)
    check_positive(n_rows, "row")
    rows = random_algebra_matrices(rng, kernel.algebra.k, n_rows, [z.n for z in points])
    m = kernel.block_matrix(points, [r.conj().T for r in rows])
    verdict = psd_verdict([m], tol)
    description = {
        "sampler": sampler,
        "sizes": [z.n for z in points],
        "n_rows": n_rows,
        "gram_dim": m.shape[0],
        "reduced": False,
    }
    return CpCertificate(
        verdict.passed, verdict.min_eig, description, seed, verdict.witness, tuple(points)
    )


def cp_certificate_similarity_reduced(
    kernel: KernelBase,
    n_points: int = 4,
    sizes: Sequence[int] = (2, 3),
    seed=0,
    tol: Tolerances = DEFAULT_TOL,
    sampler: str | None = None,
    check_axioms: bool = True,
) -> CpCertificate:
    """Reduced test K(Z, Z)(1) >= 0 on a similarity-invariant sampled domain.

    On a similarity-invariant domain with the nc-kernel axioms verified, the
    diagonal identity-argument test carries the same force as the full
    sampled test; the axioms are re-checked here unless disabled.
    """
    check_positive(n_points, "sample point")
    rng = rng_from_seed(seed)
    sampler, sizes = _domain(kernel, sampler, sizes)
    if check_axioms:
        axioms = draw_kernel_axiom_samples(kernel, rng, n_samples=2, sizes=sizes, sampler=sampler)
        report = check_kernel_axioms(kernel, axioms, tol)
        if not report.passed:
            return CpCertificate(
                False, -report.max_violation,
                {"sampler": sampler, "sizes": list(sizes), "reduced": True, "axioms_failed": True},
                seed,
            )
    _, sampled = sample_points(kernel, rng, n_points, sizes, sampler)
    kernel.precompute(sampled)
    verdict = psd_verdict(
        (kernel.evaluate(z, z, kernel.algebra.unit(z.n)) for z in sampled), tol
    )
    description = {"sampler": sampler, "sizes": [z.n for z in sampled], "reduced": True}
    return CpCertificate(
        verdict.passed, verdict.min_eig, description, seed, verdict.witness, tuple(sampled)
    )


# ---------------------------------------------------------------------------
# finite-sample Kolmogorov factorization
# ---------------------------------------------------------------------------

class KolmogorovSample(NamedTuple):
    """Per-point factor values H(Z_i) with K(Z_i,Z_j)(P) ~= H_i (P (x) I_rank) H_j*."""

    points: tuple[MatrixTuple, ...]
    factors: tuple[np.ndarray, ...]
    rank: int
    gram_error: float

    def reconstruct(self, i: int, j: int, p: np.ndarray) -> np.ndarray:
        p = as_cmatrix(p, self.points[i].n, self.points[j].n)
        return self.factors[i] @ kron(p, np.eye(self.rank)) @ self.factors[j].conj().T


def kolmogorov_at_sample(
    kernel: FactoredKernel,
    points: Sequence[MatrixTuple],
    tol: Tolerances = DEFAULT_TOL,
) -> KolmogorovSample:
    """Factor the sampled kernel through a finite state space.

    The PSD matrix over index triples (point, row, unit) has Y-blocks
    G[(i,r,t),(j,s,u)] = [K(Z_i, Z_j)(e_t e_u*)]_{r,s}.  For a factored kernel
    it is ``sum_t A_t (I (x) C_t) A_t*``, where row (r, t, y) of A_t is row
    (r, y), column block t of F_t(Z_i), the factor value at the sample point
    itself.  G is factored as F F*, and each point's rows reshape into its
    factor value.
    """
    if not isinstance(kernel, FactoredKernel):
        raise InputError("kolmogorov_at_sample requires a factored kernel")
    if kernel.algebra.k != 1:
        raise InputError("kolmogorov_at_sample requires a scalar coefficient algebra")
    points = tuple(points)
    if not points:
        raise InputError("kolmogorov_at_sample needs at least one sample point")
    y = kernel.y_dim
    gram = kernel._stacked_gram(points, sum(z.n * z.n for z in points), lambda values, c: [
        v.reshape(z.n, y, z.n, len(c)).transpose(0, 2, 1, 3).reshape(z.n * z.n * y, len(c))
        for z, v in zip(points, values)])

    f = psd_factor(gram, tol)
    rank = f.shape[1]
    gram_error = rel_err(frobenius(gram - f @ f.conj().T), frobenius(gram))
    # point i's rows (r, t, y) hold row (r, y), column block t of its factor value
    ends = np.cumsum([z.n * z.n * y for z in points])
    factors = tuple(rows.reshape(z.n, z.n, y, rank).transpose(0, 2, 1, 3).reshape(z.n * y, z.n * rank)
                    for z, rows in zip(points, np.split(f, ends[:-1])))
    return KolmogorovSample(points, factors, rank, gram_error)


# ---------------------------------------------------------------------------
# nc-envelope extension of generator-point kernel data
# ---------------------------------------------------------------------------

class EnvelopeKernel:
    """Block extension of kernel values on generator points to their direct sums.

    Points of the envelope are named by sequences of generator indices; a
    point ``[i1, ..., iN]`` stands for the block-diagonal direct sum of the
    generators.  Evaluation applies the generator table blockwise.
    """

    def __init__(
        self,
        generator_sizes: Sequence[int],
        y_dim: int,
        pair_values: Mapping[tuple[int, int], Callable[[np.ndarray], np.ndarray]],
        algebra: AlgebraSpec = AlgebraSpec(SCALAR),
    ):
        self.generator_sizes = [int(n) for n in generator_sizes]
        self.y_dim = int(y_dim)
        self.algebra = algebra
        self.pair_values = dict(pair_values)

    def _value(self, i: int, j: int, p_block: np.ndarray) -> np.ndarray:
        fn = self.pair_values.get((i, j))
        if fn is None:
            raise MissingPair(f"no kernel value supplied for generator pair {(i, j)}")
        return np.asarray(fn(p_block), dtype=np.complex128)

    def evaluate_on_indices(
        self, z_indices: Sequence[int], w_indices: Sequence[int], p: np.ndarray
    ) -> np.ndarray:
        k = self.algebra.k
        rows = np.cumsum([0] + [self.generator_sizes[i] * k for i in z_indices]).tolist()
        cols = np.cumsum([0] + [self.generator_sizes[j] * k for j in w_indices]).tolist()
        p = as_cmatrix(p, rows[-1], cols[-1])
        return np.block([[self._value(i, j, p[rows[a]:rows[a + 1], cols[b]:cols[b + 1]])
                          for b, j in enumerate(w_indices)] for a, i in enumerate(z_indices)])


# ---------------------------------------------------------------------------
# cb-norm report
# ---------------------------------------------------------------------------

class CbNormReport(NamedTuple):
    norm_at_identity: float
    max_sampled_ratio: float


def cb_norm_report(
    kernel: KernelBase,
    z: MatrixTuple,
    n_samples: int = 20,
    seed=0,
    tol: Tolerances = DEFAULT_TOL,
) -> CbNormReport:
    """||K(Z,Z)(I)|| and the largest sampled ||K(Z,Z)(P)|| over PSD P with ||P|| <= 1.

    For a cp kernel the map K(Z,Z) attains its (completely bounded) norm at
    the identity, so the sampled ratio never exceeds the first number.
    """
    rng = rng_from_seed(seed)
    k = kernel.algebra.k
    norm_id = spec_norm(kernel.evaluate(z, z, kernel.algebra.unit(z.n)))
    best = 0.0
    for _ in range(n_samples):
        p = random_psd(rng, z.n * k)
        top = spec_norm(p)
        if top > 0:
            p = p / top
        best = max(best, spec_norm(kernel.evaluate(z, z, p)))
    return CbNormReport(norm_id, best)
