"""Completely positive maps between matrix algebras: Choi matrices, Stinespring
dilations, cb norms and the singleton reproducing kernel model.

A linear map phi: C^{k x k} -> C^{m x m} is stored as its Choi blocks, a
read-only ``(k, m, k, m)`` array with ``[p, :, q, :] = phi(e_pq)`` that
reshapes to the Choi matrix; applying phi is one contraction with it.
Complete positivity is decided through the Choi matrix, which at finite
dimension is equivalent to positivity of all amplifications; the dilation is
built from an eigenfactorization of the Choi matrix and realizes
sigma(a) = a (x) I_r with multiplicity r equal to the Choi rank.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL,
    DimMismatch,
    InputError,
    NotCp,
    Tolerances,
    as_cmatrix,
    frobenius,
    frozen,
    hermitize,
    kron,
    psd_verdict,
    rel_err,
    spec_norm,
)
from .sampling import complex_gaussian, random_psd, rng_from_seed


class CpMap:
    """Linear map C^{k x k} -> C^{m x m}, read from a k x k grid of its unit values.

    ``unit_values`` is a read-only ``{(p, q): phi(e_pq)}`` view of ``choi_blocks``.
    """

    def __init__(self, k: int, m: int, unit_values, tol: Tolerances = DEFAULT_TOL):
        if k < 1 or m < 1:
            raise InputError("algebra sizes must be >= 1")
        self.k = int(k)
        self.m = int(m)
        self.tol = tol
        blocks = np.empty((k, m, k, m), dtype=np.complex128)
        for p in range(k):
            for q in range(k):
                try:
                    block = unit_values[p][q] if not isinstance(unit_values, dict) else unit_values[(p, q)]
                except (KeyError, IndexError) as exc:
                    raise InputError(f"missing unit value for ({p + 1},{q + 1})") from exc
                blocks[p, :, q, :] = as_cmatrix(block, m, m)
        blocks.setflags(write=False)
        self.choi_blocks = blocks
        self.unit_values = MappingProxyType({(p, q): blocks[p, :, q, :] for p in range(k) for q in range(k)})

    @staticmethod
    def from_kraus(ops, k: int | None = None, m: int | None = None,
                   tol: Tolerances = DEFAULT_TOL) -> "CpMap":
        """phi(a) = sum_j A_j a A_j*; completely positive by construction."""
        mats = [as_cmatrix(op) for op in ops]
        if not mats and (k is None or m is None):
            raise InputError("empty Kraus family needs explicit sizes")
        m = mats[0].shape[0] if m is None else m
        k = mats[0].shape[1] if k is None else k
        if any(op.shape != (m, k) for op in mats):
            raise DimMismatch("all Kraus operators must be m x k")
        # the Choi matrix is K K* with K[(p, a), j] = (A_j)_{a p}
        factor = np.array(mats, dtype=np.complex128).reshape(-1, m, k).transpose(2, 1, 0).reshape(k * m, -1)
        c = factor @ factor.conj().T
        return CpMap(k, m, c.reshape(k, m, k, m).transpose(0, 2, 1, 3), tol)

    def apply(self, a) -> np.ndarray:
        a = as_cmatrix(a, self.k, self.k)
        return np.einsum("pq,paqb->ab", a, self.choi_blocks)

    def apply_amplified(self, p_mat) -> np.ndarray:
        """(id_N (x) phi)(P) for an encoded P in A^{N x N'}, blockwise."""
        p_mat = as_cmatrix(p_mat)
        if p_mat.shape[0] % self.k or p_mat.shape[1] % self.k:
            raise DimMismatch("amplified argument must consist of k x k blocks")
        rows = p_mat.shape[0] // self.k
        cols = p_mat.shape[1] // self.k
        out = np.einsum("ipjq,paqb->iajb", p_mat.reshape(rows, self.k, cols, self.k), self.choi_blocks)
        return out.reshape(rows * self.m, cols * self.m)

    def unit_value(self) -> np.ndarray:
        """phi(1)."""
        return self.apply(np.eye(self.k))

    def is_star_preserving(self) -> tuple[bool, float]:
        """Whether phi(e_pq)* = phi(e_qp), with the worst deviation."""
        # block (q, p) of C* - C is phi(e_pq)* - phi(e_qp)
        c = choi(self)
        blocks = (self.k, self.m, self.k, self.m)
        worst = float(np.max(frobenius((c.conj().T - c).reshape(blocks), axis=(1, 3))))
        scale = float(np.max(frobenius(self.choi_blocks, axis=(1, 3))))
        return bool(rel_err(worst, scale) <= self.tol.eq_rel), worst

    def scaled(self, t: complex) -> "CpMap":
        return CpMap(self.k, self.m, t * self.choi_blocks.transpose(0, 2, 1, 3), self.tol)


def choi(phi: CpMap) -> np.ndarray:
    """Block matrix with (p, q) block phi(e_pq): sum e_pq (x) phi(e_pq)."""
    return phi.choi_blocks.reshape(phi.k * phi.m, phi.k * phi.m)


def is_cp(phi: CpMap, tol: Tolerances | None = None) -> tuple[bool, float]:
    """Choi positivity: at finite dimension equivalent to complete positivity."""
    verdict = psd_verdict([choi(phi)], tol or phi.tol)
    return verdict.passed, verdict.min_eig


class StinespringDilation(NamedTuple):
    """phi(a) = H (a (x) I_r) H* with X = C^k (x) C^r and r the Choi rank."""

    h: np.ndarray
    r: int
    x_dim: int
    reconstruction_error: float

    def sigma(self, a) -> np.ndarray:
        return kron(a, np.eye(self.r))

    def reconstruct(self, a) -> np.ndarray:
        return self.h @ self.sigma(a) @ self.h.conj().T


def stinespring(phi: CpMap, tol: Tolerances | None = None) -> StinespringDilation:
    """Dilation from the eigenfactorization of the Choi matrix.

    Columns of the Choi factor reshape into Kraus operators A_l; arranging
    them as H[:, (p, l)] = A_l[:, p] realizes phi(a) = H (a (x) I_r) H* with
    one multiplicity slot per Kraus operator, so the reconstruction is exact
    to rounding.  Raises :class:`NotCp` with the offending eigenvalue.
    """
    from .core import NotPsd, psd_factor

    tol = tol or phi.tol
    k, m = phi.k, phi.m
    c = choi(phi)
    try:
        factor = psd_factor(c, tol)
    except NotPsd as err:
        raise NotCp(err.min_eig) from err
    r = factor.shape[1]
    # Kraus operator l is A_l[a, p] = factor[(p, a), l]; H[a, (p, l)] = A_l[a, p]
    h = factor.reshape(k, m, r).transpose(1, 0, 2).reshape(m, k * r)
    # H (e_pq (x) I_r) H* is block (p, q) of F F*
    blocks = (k, m, k, m)
    diff = frobenius((c - factor @ factor.conj().T).reshape(blocks), axis=(1, 3))
    scale = frobenius(c.reshape(blocks), axis=(1, 3))
    return StinespringDilation(h, r, k * r, float(np.max(rel_err(diff, scale))))


def cb_norm_cp(phi: CpMap, tol: Tolerances | None = None) -> float:
    """||phi||_cb = ||phi(1)|| for completely positive maps."""
    ok, min_eig = is_cp(phi, tol)
    if not ok:
        raise NotCp(min_eig)
    return spec_norm(phi.unit_value())


def max_entangled_argument(k: int) -> np.ndarray:
    """The PSD matrix sum e_pq (x) e_pq in A^{k x k}; (id (x) phi) maps it to the Choi matrix."""
    v = np.eye(k, dtype=np.complex128).reshape(-1)
    return np.outer(v, v.conj())


# largest ampliation N sampled by sampled_amplified_positivity
MAX_AMP = 4
# longest sequence sampled by effros_ruan_lower_bound
SEQ_LEN = 3


def sampled_amplified_positivity(
    phi: CpMap, n_samples: int = 10, seed=0, tol: Tolerances | None = None,
) -> tuple[bool, float]:
    """Eigencheck (id_N (x) phi)(P) on sampled PSD P, N <= MAX_AMP.

    Always includes the maximally entangled argument at N = k, which maps to
    the Choi matrix, so the verdict matches :func:`is_cp`.
    """
    rng = rng_from_seed(seed)
    arguments = [max_entangled_argument(phi.k)]
    for _ in range(n_samples):
        arguments.append(random_psd(rng, int(rng.integers(1, MAX_AMP + 1)) * phi.k))
    verdict = psd_verdict((phi.apply_amplified(p) for p in arguments), tol or phi.tol)
    return verdict.passed, verdict.min_eig


def effros_ruan_lower_bound(
    phi: CpMap, n_samples: int = 30, seed=0,
) -> float:
    """Sampled lower bound on the cb norm from finite sequences of length <= SEQ_LEN.

    For a sequence x_1, ..., x_N the stacked column (id (x) phi)(col(x_i)) has
    norm at most ||phi||_cb ||sum x_i* x_i||^{1/2}; maximizing the sampled
    ratio (including the unit singleton) never exceeds the cb norm, and for
    cp maps approaches ||phi(1)||.
    """
    rng = rng_from_seed(seed)
    sequences = [[np.eye(phi.k, dtype=np.complex128)]]
    for _ in range(n_samples):
        length = int(rng.integers(1, SEQ_LEN + 1))
        sequences.append([complex_gaussian(rng, phi.k, phi.k) for _ in range(length)])
    best = 0.0
    for xs in sequences:
        num = np.zeros((phi.m, phi.m), dtype=np.complex128)
        den = np.zeros((phi.k, phi.k), dtype=np.complex128)
        for x in xs:
            fx = phi.apply(x)
            num += fx.conj().T @ fx
            den += x.conj().T @ x
        den_norm = spec_norm(den)
        if den_norm <= 0:
            continue
        top = np.linalg.eigvalsh(hermitize(num, "the Effros-Ruan bound"))[-1]
        best = max(best, float(np.sqrt(max(0.0, top) / den_norm)))
    return best


# ---------------------------------------------------------------------------
# the singleton reproducing kernel model H(phi)
# ---------------------------------------------------------------------------

class CpMapRkhs:
    """Finite model of the RKHS of a cp map over the singleton nc envelope.

    Elements are spanned by the functions psi_{(p,q),y}: u -> phi(u e_pq) y,
    indexed by the k^2 matrix units with Y-valued weights; the gramian blocks
    are G[(pq),(rs)] = phi(e_pq* e_rs), so G = I_k (x) choi(phi), PSD exactly
    when phi is cp.
    """

    def __init__(self, phi: CpMap, tol: Tolerances | None = None):
        tol = tol or phi.tol
        ok, min_eig = is_cp(phi, tol)
        if not ok:
            raise NotCp(min_eig)
        self.phi = phi
        k, m = phi.k, phi.m
        self.n_units = k * k
        self.dim = k * k * m
        self.gram = frozen(kron(np.eye(k), choi(phi)))

    def _coerce(self, coeffs) -> np.ndarray:
        c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if c.shape[0] != self.dim:
            raise DimMismatch(f"element coefficients must have length {self.dim}")
        return c

    def inner_product(self, a, b) -> complex:
        return complex(self._coerce(b).conj() @ self.gram @ self._coerce(a))

    def evaluate(self, coeffs, u) -> np.ndarray:
        """Value f(u) in Y of the element with the given unit weights."""
        k, m = self.phi.k, self.phi.m
        c = self._coerce(coeffs).reshape(k, k, m)
        u = as_cmatrix(u, k, k)
        # phi(u e_pq) = sum_r u_rp phi(e_rq)
        return np.einsum("rp,raqb,pqb->a", u, self.phi.choi_blocks, c)

    def kernel_element(self, v, y) -> np.ndarray:
        """Coefficients of K_{v,y} = sum_pq v_pq psi_{(pq),y} (the linearity relation)."""
        v = as_cmatrix(v, self.phi.k, self.phi.k)
        y = np.asarray(y, dtype=np.complex128).reshape(-1)
        if y.shape[0] != self.phi.m:
            raise DimMismatch("y must lie in Y")
        return kron(v.reshape(-1), y)

    def reproducing_violation(self, coeffs, v, y) -> float:
        """|<f(v*), y> - <f, K_{v,y}>| relative to the left side."""
        v = as_cmatrix(v, self.phi.k, self.phi.k)
        y = np.asarray(y, dtype=np.complex128).reshape(-1)
        lhs = complex(y.conj() @ self.evaluate(coeffs, v.conj().T))
        rhs = self.inner_product(coeffs, self.kernel_element(v, y))
        return rel_err(abs(lhs - rhs), abs(lhs))

    def sigma_matrix(self, a) -> np.ndarray:
        """sigma(a) psi_{(pq),y} = sum_r a_rp psi_{(rq),y}: acts on the p index."""
        a = as_cmatrix(a, self.phi.k, self.phi.k)
        return kron(kron(a, np.eye(self.phi.k)), np.eye(self.phi.m))
