"""Completely positive nc kernels: moment, Kolmogorov and Gram-basis forms.

A kernel value K(Z, W)(P) is an ``(n*y) x (m*y)`` matrix for points of sizes
n, m and an algebra argument ``P in A^{n x m}``.  Elements of ``A^{n x m}``
for ``A = C^{k x k}`` are encoded as ``(n*k) x (m*k)`` block matrices, and a
unital *-representation acts blockwise as ``a -> a (x) I_mult``.

Every stored form is one factored form ``K(Z,W)(P) = F(Z) (P (x) C) F(W)*``
(the Kolmogorov decomposition), with a factor series F and a middle matrix
C fixed at construction:

    form        F                                        C
    moment      word indicator of the stored words a     moment matrix [K_{a,b}]
                (coefficient e_a^T (x) I_y)
    Kolmogorov  H                                        I_{r s}
    Gram basis  stacked basis, columns ordered (c, i)    G^{-1}

A de Branges-Rovnyak kernel K - S K' S* is ``[F, S F'] (C (+) -C') [...]*``
and a difference K - K' is ``[F, F'] (C (+) -C') [...]*``.  A certificate's
block matrix ``[K(Z_i, Z_j)(X_i X_j*)]_{ij}`` is one product per factor,
``A (I (x) C) A*`` with ``A = vstack_i F(Z_i)(X_i (x) I)``: N factor values
instead of N^2 kernel values.  C is positive semidefinite for the Kolmogorov
and Gram forms, so their sampled certificates pass by construction; only
moment tables, de Branges-Rovnyak kernels and difference kernels can fail.

Positivity is certified on seeded samples: a pass is evidence, not proof,
except on nilpotent domains where exhaustively truncated moment kernels are
evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    BadIntertwiner,
    DimMismatch,
    InputError,
    MatrixTuple,
    MissingPair,
    NotNilpotent,
    NotPsd,
    Tolerances,
    TruncationRefused,
    Word,
    as_cmatrix,
    direct_sum,
    frobenius,
    frozen,
    hermitize,
    kron,
    psd_factor,
    psd_verdict,
    rel_err,
    spec_norm,
    validate_word,
    word_key,
    words_up_to,
)
from .sampling import (
    GAUSSIAN,
    NILPOTENT,
    random_algebra_matrix,
    random_psd,
    random_similarity,
    rng_from_seed,
    sample_tuple,
)
from .series import (
    AxiomReport,
    NcSeries,
    WordIndicator,
    factor_value,
    nilpotency_order,
)


# ---------------------------------------------------------------------------
# the coefficient algebra and its representations
# ---------------------------------------------------------------------------

SCALAR = "scalar"
FULL_MATRIX = "full_matrix"


@dataclass(frozen=True)
class AlgebraSpec:
    """The C*-algebra C^{k x k} with representation a -> a (x) I_r."""

    kind: str = SCALAR
    k: int = 1
    r: int = 1

    def __post_init__(self):
        if self.kind not in (SCALAR, FULL_MATRIX):
            raise InputError(f"unknown algebra kind {self.kind!r}")
        if self.k < 1 or self.r < 1:
            raise InputError("algebra sizes must be >= 1")
        if self.kind == SCALAR and self.k != 1:
            raise InputError("scalar algebra has k = 1")

    @property
    def rep_dim(self) -> int:
        return self.k * self.r

    def unit(self, n: int) -> np.ndarray:
        """Encoded identity of A^{n x n}."""
        return np.eye(n * self.k, dtype=np.complex128)


def amplify(p: np.ndarray, k: int, mult: int) -> np.ndarray:
    """Apply a -> a (x) I_mult blockwise to an encoded element of A^{n x m}."""
    p = np.asarray(p, dtype=np.complex128)
    if p.shape[0] % k or p.shape[1] % k:
        raise DimMismatch(f"encoded algebra matrix shape {p.shape} not divisible by k={k}")
    if mult == 1:
        return p
    n, m = p.shape[0] // k, p.shape[1] // k
    blocks = p.reshape(n, k, m, k)
    eye = np.eye(mult, dtype=np.complex128)
    out = blocks[:, :, None, :, :, None] * eye[None, None, :, None, None, :]
    return out.reshape(n * k * mult, m * k * mult)


# ---------------------------------------------------------------------------
# kernel forms
# ---------------------------------------------------------------------------

class KernelBase:
    """Shared surface of all kernel representations."""

    d: int
    y_dim: int
    algebra: AlgebraSpec
    default_sampler: str

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
    Factor values come from :func:`ncrkhs.series.factor_value`, once per point.
    """

    def __init__(self, d: int, y_dim: int, algebra: AlgebraSpec, terms, default_sampler: str):
        self.d = int(d)
        self.y_dim = int(y_dim)
        self.algebra = algebra
        self.default_sampler = default_sampler
        # a factor without columns contributes nothing
        self.terms = tuple((f, frozen(c)) for f, c in terms if c.shape[0])

    def _check_domain(self, z: MatrixTuple) -> None:
        """Raise :class:`TruncationRefused` where K is only a truncation; no-op here."""

    def _weighted(self, f, c: np.ndarray, z: MatrixTuple, x: np.ndarray) -> np.ndarray:
        """F(Z)(X (x) I_D): X acts on the (point, algebra) column index of F(Z)."""
        rows = z.n * self.y_dim
        value = factor_value(f, z).reshape(rows, z.n * self.algebra.k, c.shape[0])
        return np.matmul(x.T, value).reshape(rows, -1)

    def evaluate(self, z, w, p, allow_truncation: bool = False):
        p = self._check_points(z, w, p)
        if not allow_truncation:
            self._check_domain(z)
            self._check_domain(w)
        out = np.zeros((z.n * self.y_dim, w.n * self.y_dim), dtype=np.complex128)
        for f, c in self.terms:
            left = _times_middle(self._weighted(f, c, z, p), c)
            out += left @ factor_value(f, w).conj().T
        return out

    def block_matrix(self, points, args):
        """One product per term: A (I (x) C) A* with A = vstack_i F(Z_i)(X_i (x) I_D)."""
        for z in points:
            self._check_domain(z)
        size = sum(z.n for z in points) * self.y_dim
        out = np.zeros((size, size), dtype=np.complex128)
        for f, c in self.terms:
            a = np.vstack([self._weighted(f, c, z, x) for z, x in zip(points, args)])
            out += _times_middle(a, c) @ a.conj().T
        return out


def _times_middle(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a (I (x) C): C acts on the innermost column index of ``a``."""
    return (a.reshape(-1, c.shape[0]) @ c).reshape(a.shape)


def _order_or_none(z: MatrixTuple, tol: Tolerances) -> int | None:
    try:
        return nilpotency_order(z, tol)
    except NotNilpotent:
        return None


class MomentKernel(FactoredKernel):
    """Kernel given by its word moments: K(Z,W)(P) = sum Z^a P (W^b)* (x) K_{a,b}.

    The finitely supported Hermitian table K_{a,b} is read two ways: formally,
    as a kernel over the free monoid (see :mod:`ncrkhs.formal`), and
    functionally, through :meth:`evaluate`.  Restricted to the scalar algebra.
    ``words`` are the words the table stores (graded lex) and ``middle`` is
    the moment matrix [K_{a,b}] over them, the C of the factored form whose
    factor is their word indicator.  Evaluation is exact on jointly nilpotent
    points whose nilpotency order is covered by ``max_len``; elsewhere it is
    a truncation and must be requested explicitly.
    """

    def __init__(self, d: int, y_dim: int, moments: Mapping[tuple, np.ndarray],
                 max_len: int, tol: Tolerances = DEFAULT_TOL):
        if max_len < 0:
            raise InputError("max_len must be >= 0")
        self.max_len = int(max_len)
        self.tol = tol
        clean: dict[tuple[Word, Word], np.ndarray] = {}
        for (wa, wb), c in moments.items():
            key = (validate_word(wa, d), validate_word(wb, d))
            if max(len(key[0]), len(key[1])) > max_len:
                raise InputError(f"moment word pair {key} exceeds max_len={max_len}")
            if key in clean:
                raise InputError(f"duplicate moment pair {key}")
            clean[key] = frozen(as_cmatrix(c, y_dim, y_dim))
        self.moments = dict(sorted(clean.items(), key=lambda kv: (word_key(kv[0][0]), word_key(kv[0][1]))))
        self.words = tuple(sorted({w for pair in self.moments for w in pair}, key=word_key))
        index = {w: i for i, w in enumerate(self.words)}
        m = len(self.words)
        table = np.zeros((m, y_dim, m, y_dim), dtype=np.complex128)
        if self.moments:
            rows = [index[wa] for wa, _ in self.moments]
            cols = [index[wb] for _, wb in self.moments]
            table[rows, :, cols, :] = np.array(list(self.moments.values()))
        self._validate_hermitian(table)
        self.middle = frozen(table.reshape(m * y_dim, m * y_dim))
        factor = WordIndicator(int(d), int(y_dim), self.words)
        super().__init__(d, y_dim, AlgebraSpec(SCALAR), [(factor, self.middle)], NILPOTENT)

    def _validate_hermitian(self, table: np.ndarray) -> None:
        # blockwise ||K_ab - K_ba*|| against the largest moment
        gap = np.linalg.norm(table - table.transpose(2, 3, 0, 1).conj(), axis=(1, 3))
        scale = max(1.0, float(np.max(np.linalg.norm(table, axis=(1, 3)), initial=0.0)))
        bad = np.argwhere(gap > self.tol.eq_rel * scale)
        if bad.size:
            a, b = bad[0]
            raise InputError(f"moment table is not Hermitian at pair {(self.words[a], self.words[b])}")

    def _check_domain(self, z):
        # words of length >= order vanish at the point, so the stored support
        # is the whole kernel there iff order <= max_len + 1; the point keeps
        # its order, so each point is tested once per tolerance
        order = z.cached(self.tol, lambda: _order_or_none(z, self.tol))
        if order is None or order > self.max_len + 1:
            raise TruncationRefused(
                "moment-form evaluation is a truncation at this point; "
                "pass allow_truncation=True to accept it"
            )

    # each form keeps evaluate in its own class body (perfbench/tracer.py times it there)
    evaluate = FactoredKernel.evaluate


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
        super().__init__(h.d, h.out_dim, algebra, [(h, np.eye(algebra.r * self.s))], GAUSSIAN)

    evaluate = FactoredKernel.evaluate


class GramBasisKernel(FactoredKernel):
    """K(Z,W)(P) = sum_{ij} (G^{-1})_{ij} f_i(Z) P f_j(W)* for a finite basis.

    The basis (nonempty, in_dim = k) is held as one series ``stacked`` whose
    coefficient column ``i*k + c`` is column ``c`` of ``f_i``.  The factor is
    ``stacked`` with its columns reordered once to ``(c, i)`` (the same
    series when k = 1), and the middle matrix is C = G^{-1}.
    """

    def __init__(self, algebra: AlgebraSpec, basis: Sequence[NcSeries], gram: np.ndarray,
                 tol: Tolerances = DEFAULT_TOL):
        if not basis:
            raise InputError("a gram basis needs at least one basis function")
        for f in basis:
            if f.d != basis[0].d or f.out_dim != basis[0].out_dim or f.in_dim != algebra.k:
                raise DimMismatch("basis functions must share d, out_dim and have in_dim = k")
        gram = as_cmatrix(gram, len(basis), len(basis))
        if frobenius(gram - gram.conj().T) > tol.eq_rel * max(1.0, frobenius(gram)):
            raise InputError("gram matrix must be Hermitian")
        low = float(np.linalg.eigvalsh(hermitize(gram))[0])
        if low <= tol.psd_floor * max(1.0, spec_norm(gram)):
            raise NotPsd(low, tol.psd_floor * max(1.0, spec_norm(gram)))
        self.basis = list(basis)
        d, y, k, size = basis[0].d, basis[0].out_dim, algebra.k, len(basis)
        words = {w for f in basis for w in f.support}
        self.stacked = NcSeries(d, y, size * k, {
            w: np.hstack([f.coefficient(w) for f in basis]) for w in words
        })
        self.gram = frozen(gram)
        self.gram_inv = frozen(np.linalg.inv(gram))
        self.tol = tol
        factor = self.stacked
        if k > 1:
            order = np.arange(size * k).reshape(size, k).T.reshape(-1)
            factor = NcSeries(d, y, size * k, {w: c[:, order] for w, c in self.stacked.terms.items()})
        super().__init__(d, y, algebra, [(factor, self.gram_inv)], GAUSSIAN)

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
    """Truncated Szego-type moment kernel: K_{a,b} = delta_{a,b} I."""
    eye = np.eye(y_dim, dtype=np.complex128)
    moments = {(w, w): eye for w in words_up_to(d, max_len)}
    return MomentKernel(d, y_dim, moments, max_len)


def moment_kernel_from_factor(h: NcSeries, max_len: int) -> MomentKernel:
    """Scalar-algebra moment table K_{a,b} = H_a H_b* of a Kolmogorov factor."""
    moments = {}
    for wa, ca in h.terms.items():
        for wb, cb in h.terms.items():
            if max(len(wa), len(wb)) <= max_len:
                moments[(wa, wb)] = ca @ cb.conj().T
    return MomentKernel(h.d, h.out_dim, moments, max_len)


# ---------------------------------------------------------------------------
# kernel elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelElement:
    """Reproducing element K_{W,v,y}: evaluates as K(Z,W)(u v) y."""

    kernel: KernelBase
    w: MatrixTuple
    v: np.ndarray  # row over A: k x (m*k) encoded
    y: np.ndarray  # vector in Y^m

    def __post_init__(self):
        k = self.kernel.algebra.k
        m = self.w.n
        object.__setattr__(self, "v", frozen(as_cmatrix(self.v, k, m * k)))
        y = np.asarray(self.y, dtype=np.complex128).reshape(-1)
        if y.shape[0] != m * self.kernel.y_dim:
            raise DimMismatch(f"y must lie in Y^{m}, got length {y.shape[0]}")
        y = y.copy()
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    def evaluate(self, z: MatrixTuple, u: np.ndarray) -> np.ndarray:
        """K_{W,v,y}(Z) u = K(Z,W)(u v) y."""
        k = self.kernel.algebra.k
        u = as_cmatrix(u, z.n * k, k)
        return self.kernel.evaluate(z, self.w, u @ self.v) @ self.y


# ---------------------------------------------------------------------------
# kernel axiom checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelAxiomSamples:
    hermitian: list = field(default_factory=list)        # (Z, W, P)
    direct_sums: list = field(default_factory=list)      # (Z, Zt, W, Wt, P_full)
    intertwinings: list = field(default_factory=list)    # (Z, Zt, alpha, W, Wt, beta, P)


def draw_kernel_axiom_samples(
    kernel: KernelBase,
    rng,
    n_samples: int = 4,
    sizes: Sequence[int] = (2, 3),
    sampler: str | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> KernelAxiomSamples:
    """Random points, exact intertwiners (similarities and embeddings), and arguments."""
    _check_positive(n_samples, "sample")
    rng = rng_from_seed(rng)
    sampler = _resolve_sampler(kernel, sampler)
    sizes = _clamp_sizes(kernel, sampler, sizes)
    k = kernel.algebra.k
    samples = KernelAxiomSamples()
    for i in range(n_samples):
        n = int(sizes[i % len(sizes)])
        m = int(sizes[(i + 1) % len(sizes)])
        z = sample_tuple(rng, sampler, kernel.d, n)
        w = sample_tuple(rng, sampler, kernel.d, m)
        p = random_algebra_matrix(rng, k, n, m)
        samples.hermitian.append((z, w, p))

        zt = sample_tuple(rng, sampler, kernel.d, n)
        wt = sample_tuple(rng, sampler, kernel.d, m)
        p_full = random_algebra_matrix(rng, k, 2 * n, 2 * m)
        samples.direct_sums.append((z, zt, w, wt, p_full))

        s = random_similarity(rng, n, tol=tol)
        t = random_similarity(rng, m, tol=tol)
        z_sim = MatrixTuple(tuple(s @ c @ np.linalg.inv(s) for c in z.coords))
        w_sim = MatrixTuple(tuple(t @ c @ np.linalg.inv(t) for c in w.coords))
        samples.intertwinings.append((z, z_sim, s, w, w_sim, t, p))

        # column embedding into a direct sum
        big = direct_sum([z, zt])
        alpha = np.vstack([np.eye(n), np.zeros((n, n))])
        samples.intertwinings.append((z, big, alpha, w, w, np.eye(m), p))
    return samples


def check_kernel_axioms(
    kernel: KernelBase,
    samples: KernelAxiomSamples,
    tol: Tolerances = DEFAULT_TOL,
) -> AxiomReport:
    """Hermitian symmetry, direct sums and intertwining-respect on given samples."""
    k = kernel.algebra.k
    y = kernel.y_dim
    worst = 0.0
    witness = None

    def track(violation: float, tag, payload):
        nonlocal worst, witness
        if violation > worst:
            worst = violation
            witness = (tag, payload)

    for z, w, p in samples.hermitian:
        lhs = kernel.evaluate(z, w, p).conj().T
        rhs = kernel.evaluate(w, z, p.conj().T)
        track(rel_err(frobenius(lhs - rhs), frobenius(lhs)), "hermitian", (z, w, p))

    for z, zt, w, wt, p_full in samples.direct_sums:
        zz = direct_sum([z, zt])
        ww = direct_sum([w, wt])
        lhs = kernel.evaluate(zz, ww, p_full)
        nk, mk = z.n * k, w.n * k
        p11 = p_full[:nk, :mk]
        p12 = p_full[:nk, mk:]
        p21 = p_full[nk:, :mk]
        p22 = p_full[nk:, mk:]
        rhs = np.block(
            [
                [kernel.evaluate(z, w, p11), kernel.evaluate(z, wt, p12)],
                [kernel.evaluate(zt, w, p21), kernel.evaluate(zt, wt, p22)],
            ]
        )
        track(rel_err(frobenius(lhs - rhs), frobenius(lhs)), "direct_sum", (z, zt, w, wt))

    for z, zt, alpha, w, wt, beta, p in samples.intertwinings:
        alpha = as_cmatrix(alpha, zt.n, z.n)
        beta = as_cmatrix(beta, wt.n, w.n)
        for point, point_t, c in ((z, zt, alpha), (w, wt, beta)):
            for j in range(point.d):
                gap = frobenius(c @ point.coords[j] - point_t.coords[j] @ c)
                bound = tol.eq_rel * max(1.0, spec_norm(c) * spec_norm(point.coords[j])) * 100
                if gap > bound:
                    raise BadIntertwiner(f"intertwiner fails on coordinate {j + 1} (gap {gap:.3e})")
        lhs = kron(alpha, np.eye(y)) @ kernel.evaluate(z, w, p) @ kron(beta, np.eye(y)).conj().T
        moved = kron(alpha, np.eye(k)) @ p @ kron(beta, np.eye(k)).conj().T
        rhs = kernel.evaluate(zt, wt, moved)
        track(rel_err(frobenius(lhs - rhs), frobenius(lhs)), "intertwining", (z, zt, w, wt))

    passed = worst <= tol.eq_rel
    return AxiomReport(passed, worst, tol.eq_rel, None if passed else witness)


# ---------------------------------------------------------------------------
# complete-positivity certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CpCertificate:
    """Outcome of a sampled positivity check; deterministic given the seed."""

    passed: bool
    min_eig: float
    sample_description: dict
    seed: object
    witness: np.ndarray | None = None
    points: tuple = ()


def _resolve_sampler(kernel: KernelBase, sampler: str | None) -> str:
    if sampler is None or sampler == "auto":
        return kernel.default_sampler
    return sampler


def _check_positive(count: int, what: str) -> None:
    if count < 1:
        raise InputError(f"a certificate needs at least one {what}, got {count}")


def _clamp_sizes(kernel: KernelBase, sampler: str, sizes: Sequence[int]) -> tuple[int, ...]:
    # the domain of a truncated moment kernel is nilpotents of covered order
    if sampler == NILPOTENT and isinstance(kernel, MomentKernel):
        return tuple(min(int(s), kernel.max_len + 1) for s in sizes)
    return tuple(int(s) for s in sizes)


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
    _check_positive(n_points, "sample point")
    _check_positive(n_rows, "row")
    rng = rng_from_seed(seed)
    sampler = _resolve_sampler(kernel, sampler)
    sizes = _clamp_sizes(kernel, sampler, sizes)
    k = kernel.algebra.k
    points = [sample_tuple(rng, sampler, kernel.d, int(sizes[i % len(sizes)])) for i in range(n_points)]
    rows = [random_algebra_matrix(rng, k, n_rows, z.n) for z in points]
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
    _check_positive(n_points, "sample point")
    rng = rng_from_seed(seed)
    sampler = _resolve_sampler(kernel, sampler)
    sizes = _clamp_sizes(kernel, sampler, sizes)
    if check_axioms:
        axioms = draw_kernel_axiom_samples(kernel, rng, n_samples=2, sizes=sizes, sampler=sampler, tol=tol)
        report = check_kernel_axioms(kernel, axioms, tol)
        if not report.passed:
            return CpCertificate(
                False, -report.max_violation,
                {"sampler": sampler, "sizes": list(sizes), "reduced": True, "axioms_failed": True},
                seed,
            )
    sampled = [sample_tuple(rng, sampler, kernel.d, int(sizes[i % len(sizes)])) for i in range(n_points)]
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

@dataclass(frozen=True)
class KolmogorovSample:
    """Per-point factor values H(Z_i) with K(Z_i,Z_j)(P) ~= H_i (P (x) I_rank) H_j*."""

    points: tuple[MatrixTuple, ...]
    factors: tuple[np.ndarray, ...]
    rank: int
    gram_error: float

    def reconstruct(self, i: int, j: int, p: np.ndarray) -> np.ndarray:
        p = as_cmatrix(p, self.points[i].n, self.points[j].n)
        return self.factors[i] @ kron(p, np.eye(self.rank)) @ self.factors[j].conj().T


def kolmogorov_at_sample(
    kernel: KernelBase,
    points: Sequence[MatrixTuple],
    tol: Tolerances = DEFAULT_TOL,
) -> KolmogorovSample:
    """Factor the sampled kernel through a finite state space.

    The PSD matrix over index triples (point, row, unit) has Y-blocks
    G[(i,r,t),(j,s,u)] = [K(Z_i, Z_j)(e_t e_u*)]_{r,s}.  Block (i, j) is one
    kernel value K(Z_i (x) I_{n_i}, Z_j (x) I_{n_j})(vec(I) vec(I)*): the
    argument's (t, u) block over the ampliation is e_t e_u*, so the direct-sum
    and similarity axioms give G in this row order; :meth:`KernelBase.block_matrix`
    assembles it.  G is factored as F F*, and each point's rows reshape into
    its factor value.
    """
    if kernel.algebra.k != 1:
        raise InputError("kolmogorov_at_sample requires a scalar coefficient algebra")
    points = tuple(points)
    if not points:
        raise InputError("kolmogorov_at_sample needs at least one sample point")
    y = kernel.y_dim
    amplified = [MatrixTuple(tuple(kron(c, np.eye(z.n)) for c in z.coords)) for z in points]
    units = [np.eye(z.n, dtype=np.complex128).reshape(-1, 1) for z in points]
    gram = kernel.block_matrix(amplified, units)

    f = psd_factor(gram, tol)
    rank = f.shape[1]
    gram_error = rel_err(frobenius(gram - f @ f.conj().T), frobenius(gram))

    factors = []
    offset = 0
    for z in points:
        n = z.n
        rows = f[offset:offset + n * n * y].reshape(n, n, y, rank)  # (r, t, y, rank)
        factors.append(rows.transpose(0, 2, 1, 3).reshape(n * y, n * rank))
        offset += n * n * y
    return KolmogorovSample(points, tuple(factors), rank, gram_error)


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
        row_sizes = [self.generator_sizes[i] for i in z_indices]
        col_sizes = [self.generator_sizes[j] for j in w_indices]
        p = as_cmatrix(p, sum(row_sizes) * k, sum(col_sizes) * k)
        row_off = np.concatenate([[0], np.cumsum([n * k for n in row_sizes])])
        col_off = np.concatenate([[0], np.cumsum([m * k for m in col_sizes])])
        blocks = []
        for a, i in enumerate(z_indices):
            row = []
            for b, j in enumerate(w_indices):
                p_block = p[row_off[a]:row_off[a + 1], col_off[b]:col_off[b + 1]]
                row.append(self._value(i, j, p_block))
            blocks.append(row)
        return np.block(blocks)


def extend_to_nc_envelope(
    generator_sizes: Sequence[int],
    y_dim: int,
    pair_values: Mapping[tuple[int, int], Callable[[np.ndarray], np.ndarray]],
    algebra: AlgebraSpec = AlgebraSpec(SCALAR),
) -> EnvelopeKernel:
    """The unique direct-sum-respecting extension of generator-point values."""
    return EnvelopeKernel(generator_sizes, y_dim, pair_values, algebra)


# ---------------------------------------------------------------------------
# cb-norm report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CbNormReport:
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
