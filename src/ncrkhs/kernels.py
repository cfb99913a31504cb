"""Completely positive nc kernels: moment, Kolmogorov and Gram-basis forms.

A kernel value K(Z, W)(P) is an ``(n*y) x (m*y)`` matrix for points of sizes
n, m and an algebra argument ``P in A^{n x m}``.  Elements of ``A^{n x m}``
for ``A = C^{k x k}`` are encoded as ``(n*k) x (m*k)`` block matrices, and a
unital *-representation acts blockwise as ``a -> a (x) I_mult``.

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
    word_eval,
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
    evaluate,
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

    def _check_points(self, z: MatrixTuple, w: MatrixTuple, p: np.ndarray) -> np.ndarray:
        if z.d != self.d or w.d != self.d:
            raise DimMismatch(f"kernel over {self.d} variables evaluated at {z.d}/{w.d}-tuples")
        k = self.algebra.k
        return as_cmatrix(p, z.n * k, w.n * k)


class MomentKernel(KernelBase):
    """Kernel given by its word moments: K(Z,W)(P) = sum Z^a P (W^b)* (x) K_{a,b}.

    The finitely supported Hermitian table K_{a,b} is read two ways: formally,
    as a kernel over the free monoid (see :mod:`ncrkhs.formal`), and
    functionally, through :meth:`evaluate`.  Restricted to the scalar algebra.
    Evaluation is exact on jointly nilpotent points whose nilpotency order is
    covered by ``max_len``; elsewhere it is a truncation and must be
    requested explicitly.
    """

    def __init__(self, d: int, y_dim: int, moments: Mapping[tuple, np.ndarray],
                 max_len: int, tol: Tolerances = DEFAULT_TOL):
        if max_len < 0:
            raise InputError("max_len must be >= 0")
        self.d = int(d)
        self.y_dim = int(y_dim)
        self.max_len = int(max_len)
        self.algebra = AlgebraSpec(SCALAR)
        self.default_sampler = NILPOTENT
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
        self._validate_hermitian()

    def _validate_hermitian(self):
        scale = max([1.0] + [frobenius(c) for c in self.moments.values()])
        for (wa, wb), c in self.moments.items():
            other = self.moments.get((wb, wa))
            mirror = other if other is not None else np.zeros_like(c)
            if frobenius(c - mirror.conj().T) > self.tol.eq_rel * scale:
                raise InputError(f"moment table is not Hermitian at pair {(wa, wb)}")

    def moment(self, wa, wb) -> np.ndarray:
        c = self.moments.get((validate_word(wa, self.d), validate_word(wb, self.d)))
        if c is None:
            return np.zeros((self.y_dim, self.y_dim), dtype=np.complex128)
        return c

    def evaluate(self, z, w, p, allow_truncation: bool = False):
        p = self._check_points(z, w, p)
        if not allow_truncation:
            # words of length >= order vanish at the point, so the stored
            # support is the whole kernel there iff order <= max_len + 1
            for point in (z, w):
                try:
                    covered = nilpotency_order(point, self.tol) <= self.max_len + 1
                except NotNilpotent:
                    covered = False
                if not covered:
                    raise TruncationRefused(
                        "moment-form evaluation is a truncation at this point; "
                        "pass allow_truncation=True to accept it"
                    )
        out = np.zeros((z.n * self.y_dim, w.n * self.y_dim), dtype=np.complex128)
        evz = {wa: word_eval(wa, z) for wa in {key[0] for key in self.moments}}
        evw = {wb: word_eval(wb, w) for wb in {key[1] for key in self.moments}}
        for (wa, wb), c in self.moments.items():
            out += kron(evz[wa] @ p @ evw[wb].conj().T, c)
        return out


class KolmogorovKernel(KernelBase):
    """K(Z,W)(P) = H(Z) (id (x) sigma)(P) H(W)* with sigma(a) = a (x) I_{r s}."""

    def __init__(self, algebra: AlgebraSpec, h: NcSeries, s: int = 1):
        if s < 1:
            raise InputError("internal multiplicity s must be >= 1")
        if h.in_dim != algebra.rep_dim * s:
            raise DimMismatch(
                f"factor in_dim {h.in_dim} != k*r*s = {algebra.rep_dim * s}"
            )
        self.algebra = algebra
        self.h = h
        self.s = int(s)
        self.d = h.d
        self.y_dim = h.out_dim
        self.default_sampler = GAUSSIAN

    def evaluate(self, z, w, p, allow_truncation: bool = False):
        p = self._check_points(z, w, p)
        hz = evaluate(self.h, z)
        hw = evaluate(self.h, w)
        amp = amplify(p, self.algebra.k, self.algebra.r * self.s)
        return hz @ amp @ hw.conj().T


def checked_gram(algebra: AlgebraSpec, basis: Sequence[NcSeries], gram,
                 tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The gramian of a basis of series, checked Hermitian and positive definite.

    The basis must be nonempty, share d and out_dim, and have in_dim = k.
    """
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
    return gram


class GramBasisKernel(KernelBase):
    """K(Z,W)(P) = sum_{ij} (G^{-1})_{ij} f_i(Z) P f_j(W)* for a finite basis."""

    def __init__(self, algebra: AlgebraSpec, basis: Sequence[NcSeries], gram: np.ndarray,
                 tol: Tolerances = DEFAULT_TOL):
        gram = checked_gram(algebra, basis, gram, tol)
        self.algebra = algebra
        self.basis = list(basis)
        self.gram = frozen(gram)
        self.gram_inv = frozen(np.linalg.inv(gram))
        self.d = basis[0].d
        self.y_dim = basis[0].out_dim
        self.default_sampler = GAUSSIAN
        self.tol = tol

    def evaluate(self, z, w, p, allow_truncation: bool = False):
        p = self._check_points(z, w, p)
        evals_z = [evaluate(f, z) for f in self.basis]
        evals_w = [evaluate(f, w) for f in self.basis]
        out = np.zeros((z.n * self.y_dim, w.n * self.y_dim), dtype=np.complex128)
        for i, fz in enumerate(evals_z):
            # (G^{-1})_{ij} scales f_i(Z) P f_j(W)*, so the stacked W-side factor
            # carries the conjugated coefficients
            acc = np.zeros_like(evals_w[0])
            for j, fw in enumerate(evals_w):
                acc += np.conj(self.gram_inv[i, j]) * fw
            out += fz @ p @ acc.conj().T
        return out


class CallableKernel(KernelBase):
    """Kernel defined by an arbitrary evaluator (differences, de Branges-Rovnyak)."""

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

    def evaluate(self, z: MatrixTuple, u: np.ndarray, allow_truncation: bool = False) -> np.ndarray:
        """K_{W,v,y}(Z) u = K(Z,W)(u v) y."""
        k = self.kernel.algebra.k
        u = as_cmatrix(u, z.n * k, k)
        return self.kernel.evaluate(z, self.w, u @ self.v, allow_truncation) @ self.y


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
    allow_truncation: bool = False,
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
        lhs = kernel.evaluate(z, w, p, allow_truncation).conj().T
        rhs = kernel.evaluate(w, z, p.conj().T, allow_truncation)
        track(rel_err(frobenius(lhs - rhs), frobenius(lhs)), "hermitian", (z, w, p))

    for z, zt, w, wt, p_full in samples.direct_sums:
        zz = direct_sum([z, zt])
        ww = direct_sum([w, wt])
        lhs = kernel.evaluate(zz, ww, p_full, allow_truncation)
        nk, mk = z.n * k, w.n * k
        p11 = p_full[:nk, :mk]
        p12 = p_full[:nk, mk:]
        p21 = p_full[nk:, :mk]
        p22 = p_full[nk:, mk:]
        rhs = np.block(
            [
                [kernel.evaluate(z, w, p11, allow_truncation), kernel.evaluate(z, wt, p12, allow_truncation)],
                [kernel.evaluate(zt, w, p21, allow_truncation), kernel.evaluate(zt, wt, p22, allow_truncation)],
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
        lhs = kron(alpha, np.eye(y)) @ kernel.evaluate(z, w, p, allow_truncation) @ kron(beta, np.eye(y)).conj().T
        moved = kron(alpha, np.eye(k)) @ p @ kron(beta, np.eye(k)).conj().T
        rhs = kernel.evaluate(zt, wt, moved, allow_truncation)
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


def _check_n_points(n_points: int) -> None:
    if n_points < 1:
        raise InputError(f"a certificate needs at least one sample point, got {n_points}")


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
    allow_truncation: bool = False,
) -> CpCertificate:
    """Sampled test of sum_{ij} b_i* K(Z_i, Z_j)(P_i* P_j) b_j >= 0.

    Assembles the Hermitian block matrix M_{ij} = K(Z_i, Z_j)(P_i* P_j) and
    eigenchecks it against the relative PSD floor.
    """
    _check_n_points(n_points)
    rng = rng_from_seed(seed)
    sampler = _resolve_sampler(kernel, sampler)
    sizes = _clamp_sizes(kernel, sampler, sizes)
    k = kernel.algebra.k
    points = [sample_tuple(rng, sampler, kernel.d, int(sizes[i % len(sizes)])) for i in range(n_points)]
    rows = [random_algebra_matrix(rng, k, n_rows, z.n) for z in points]
    blocks = [
        [kernel.evaluate(zi, zj, rows[i].conj().T @ rows[j], allow_truncation) for j, zj in enumerate(points)]
        for i, zi in enumerate(points)
    ]
    m = np.block(blocks)
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
    allow_truncation: bool = False,
    check_axioms: bool = True,
) -> CpCertificate:
    """Reduced test K(Z, Z)(1) >= 0 on a similarity-invariant sampled domain.

    On a similarity-invariant domain with the nc-kernel axioms verified, the
    diagonal identity-argument test carries the same force as the full
    sampled test; the axioms are re-checked here unless disabled.
    """
    _check_n_points(n_points)
    rng = rng_from_seed(seed)
    sampler = _resolve_sampler(kernel, sampler)
    sizes = _clamp_sizes(kernel, sampler, sizes)
    if check_axioms:
        axioms = draw_kernel_axiom_samples(kernel, rng, n_samples=2, sizes=sizes, sampler=sampler, tol=tol)
        report = check_kernel_axioms(kernel, axioms, tol, allow_truncation)
        if not report.passed:
            return CpCertificate(
                False, -report.max_violation,
                {"sampler": sampler, "sizes": list(sizes), "reduced": True, "axioms_failed": True},
                seed,
            )
    sampled = [sample_tuple(rng, sampler, kernel.d, int(sizes[i % len(sizes)])) for i in range(n_points)]
    verdict = psd_verdict(
        (kernel.evaluate(z, z, kernel.algebra.unit(z.n), allow_truncation) for z in sampled), tol
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
        if self.rank == 0:
            return np.zeros(
                (self.factors[i].shape[0], self.factors[j].shape[0]), dtype=np.complex128
            )
        return self.factors[i] @ kron(p, np.eye(self.rank)) @ self.factors[j].conj().T


def kolmogorov_at_sample(
    kernel: KernelBase,
    points: Sequence[MatrixTuple],
    tol: Tolerances = DEFAULT_TOL,
    allow_truncation: bool = False,
) -> KolmogorovSample:
    """Factor the sampled kernel through a finite state space.

    Builds the PSD matrix over index triples (point, row, unit) with Y-blocks
    G[(i,r,t),(j,s,u)] = [K(Z_i, Z_j)(e_t e_u*)]_{r,s}, factors it as F F*,
    and reshapes the row blocks into per-point factor values.
    """
    if kernel.algebra.k != 1:
        raise InputError("kolmogorov_at_sample requires a scalar coefficient algebra")
    y = kernel.y_dim
    points = tuple(points)
    triples = [(i, r, t) for i, z in enumerate(points) for r in range(z.n) for t in range(z.n)]
    unit_values: dict[tuple[int, int], np.ndarray] = {}
    for i, zi in enumerate(points):
        for j, zj in enumerate(points):
            for t in range(zi.n):
                for u in range(zj.n):
                    e = np.zeros((zi.n, zj.n), dtype=np.complex128)
                    e[t, u] = 1.0
                    unit_values[(i, j, t, u)] = kernel.evaluate(zi, zj, e, allow_truncation)

    dim = len(triples) * y
    gram = np.zeros((dim, dim), dtype=np.complex128)
    for a, (i, r, t) in enumerate(triples):
        for b, (j, s, u) in enumerate(triples):
            block = unit_values[(i, j, t, u)][r * y:(r + 1) * y, s * y:(s + 1) * y]
            gram[a * y:(a + 1) * y, b * y:(b + 1) * y] = block

    f = psd_factor(gram, tol)
    rank = f.shape[1]
    gram_error = rel_err(frobenius(gram - f @ f.conj().T), frobenius(gram))

    factors = []
    offset = 0
    for z in points:
        n = z.n
        h = np.zeros((n * y, n * rank), dtype=np.complex128)
        for r in range(n):
            for t in range(n):
                row = offset + (r * n + t)
                h[r * y:(r + 1) * y, t * rank:(t + 1) * rank] = f[row * y:(row + 1) * y, :]
        factors.append(h)
        offset += n * n
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
    allow_truncation: bool = False,
) -> CbNormReport:
    """||K(Z,Z)(I)|| and the largest sampled ||K(Z,Z)(P)|| over PSD P with ||P|| <= 1.

    For a cp kernel the map K(Z,Z) attains its (completely bounded) norm at
    the identity, so the sampled ratio never exceeds the first number.
    """
    rng = rng_from_seed(seed)
    k = kernel.algebra.k
    norm_id = spec_norm(kernel.evaluate(z, z, kernel.algebra.unit(z.n), allow_truncation))
    best = 0.0
    for _ in range(n_samples):
        p = random_psd(rng, z.n * k)
        top = spec_norm(p)
        if top > 0:
            p = p / top
        best = max(best, spec_norm(kernel.evaluate(z, z, p, allow_truncation)))
    return CbNormReport(norm_id, best)
