"""Completely positive maps between matrix algebras: Choi matrices, Stinespring
dilations, cb norms and the singleton reproducing kernel model.

A linear map phi: C^{k x k} -> C^{m x m} is stored by its values on matrix
units.  Complete positivity is decided through the Choi matrix, which at
finite dimension is equivalent to positivity of all amplifications; the
dilation is built from an eigenfactorization of the Choi matrix and realizes
sigma(a) = a (x) I_r with multiplicity r equal to the Choi rank.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Linear map C^{k x k} -> C^{m x m} given by its values on matrix units."""

    def __init__(self, k: int, m: int, unit_values, tol: Tolerances = DEFAULT_TOL):
        if k < 1 or m < 1:
            raise InputError("algebra sizes must be >= 1")
        self.k = int(k)
        self.m = int(m)
        self.tol = tol
        values = {}
        for p in range(k):
            for q in range(k):
                try:
                    block = unit_values[p][q] if not isinstance(unit_values, dict) else unit_values[(p, q)]
                except (KeyError, IndexError) as exc:
                    raise InputError(f"missing unit value for ({p + 1},{q + 1})") from exc
                values[(p, q)] = frozen(as_cmatrix(block, m, m))
        self.unit_values = values

    @staticmethod
    def from_kraus(ops, k: int | None = None, m: int | None = None,
                   tol: Tolerances = DEFAULT_TOL) -> "CpMap":
        """phi(a) = sum_j A_j a A_j*; completely positive by construction."""
        mats = [as_cmatrix(op) for op in ops]
        if not mats:
            if k is None or m is None:
                raise InputError("empty Kraus family needs explicit sizes")
        else:
            m_, k_ = mats[0].shape
            k = k_ if k is None else k
            m = m_ if m is None else m
            for op in mats:
                if op.shape != (m, k):
                    raise DimMismatch("all Kraus operators must be m x k")
        units = {}
        for p in range(k):
            for q in range(k):
                e = np.zeros((k, k), dtype=np.complex128)
                e[p, q] = 1.0
                units[(p, q)] = sum((op @ e @ op.conj().T for op in mats),
                                    np.zeros((m, m), dtype=np.complex128))
        return CpMap(k, m, units, tol)

    def apply(self, a) -> np.ndarray:
        a = as_cmatrix(a, self.k, self.k)
        out = np.zeros((self.m, self.m), dtype=np.complex128)
        for (p, q), block in self.unit_values.items():
            out += a[p, q] * block
        return out

    def apply_amplified(self, p_mat) -> np.ndarray:
        """(id_N (x) phi)(P) for an encoded P in A^{N x N'}, blockwise."""
        p_mat = as_cmatrix(p_mat)
        if p_mat.shape[0] % self.k or p_mat.shape[1] % self.k:
            raise DimMismatch("amplified argument must consist of k x k blocks")
        rows = p_mat.shape[0] // self.k
        cols = p_mat.shape[1] // self.k
        out = np.zeros((rows * self.m, cols * self.m), dtype=np.complex128)
        for i in range(rows):
            for j in range(cols):
                block = p_mat[i * self.k:(i + 1) * self.k, j * self.k:(j + 1) * self.k]
                out[i * self.m:(i + 1) * self.m, j * self.m:(j + 1) * self.m] = self.apply(block)
        return out

    def unit_value(self) -> np.ndarray:
        """phi(1)."""
        return self.apply(np.eye(self.k))

    def is_star_preserving(self) -> tuple[bool, float]:
        """Whether phi(e_pq)* = phi(e_qp), with the worst deviation."""
        worst = 0.0
        for (p, q), block in self.unit_values.items():
            worst = max(worst, frobenius(block.conj().T - self.unit_values[(q, p)]))
        scale = max(1.0, max(frobenius(b) for b in self.unit_values.values()))
        return worst <= self.tol.eq_rel * scale, worst

    def scaled(self, t: complex) -> "CpMap":
        return CpMap(self.k, self.m, {key: t * val for key, val in self.unit_values.items()}, self.tol)


def choi(phi: CpMap) -> np.ndarray:
    """Block matrix with (p, q) block phi(e_pq): sum e_pq (x) phi(e_pq)."""
    k, m = phi.k, phi.m
    out = np.zeros((k * m, k * m), dtype=np.complex128)
    for (p, q), block in phi.unit_values.items():
        out[p * m:(p + 1) * m, q * m:(q + 1) * m] = block
    return out


def is_cp(phi: CpMap, tol: Tolerances | None = None) -> tuple[bool, float]:
    """Choi positivity: at finite dimension equivalent to complete positivity."""
    verdict = psd_verdict([choi(phi)], tol or phi.tol)
    return verdict.passed, verdict.min_eig


@dataclass(frozen=True)
class StinespringDilation:
    """phi(a) = H (a (x) I_r) H* with X = C^k (x) C^r and r the Choi rank."""

    h: np.ndarray
    r: int
    x_dim: int
    reconstruction_error: float

    def sigma(self, a) -> np.ndarray:
        return kron(a, np.eye(self.r)) if self.r else np.zeros((0, 0), dtype=np.complex128)

    def reconstruct(self, a) -> np.ndarray:
        if self.r == 0:
            return np.zeros((self.h.shape[0], self.h.shape[0]), dtype=np.complex128)
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
    try:
        factor = psd_factor(choi(phi), tol)
    except NotPsd as err:
        raise NotCp(err.min_eig) from err
    r = factor.shape[1]
    kraus = [factor[:, j].reshape(k, m).T for j in range(r)]
    h = np.zeros((m, k * r), dtype=np.complex128)
    for ell, a_op in enumerate(kraus):
        for p in range(k):
            h[:, p * r + ell] = a_op[:, p]
    worst = 0.0
    dilation = StinespringDilation(h, r, k * r, 0.0)
    for p in range(k):
        for q in range(k):
            e = np.zeros((k, k), dtype=np.complex128)
            e[p, q] = 1.0
            diff = frobenius(phi.unit_values[(p, q)] - dilation.reconstruct(e))
            worst = max(worst, rel_err(diff, frobenius(phi.unit_values[(p, q)])))
    return StinespringDilation(h, r, k * r, worst)


def cb_norm_cp(phi: CpMap, tol: Tolerances | None = None) -> float:
    """||phi||_cb = ||phi(1)|| for completely positive maps."""
    ok, min_eig = is_cp(phi, tol)
    if not ok:
        raise NotCp(min_eig)
    return spec_norm(phi.unit_value())


def max_entangled_argument(k: int) -> np.ndarray:
    """The PSD matrix sum e_pq (x) e_pq in A^{k x k}; (id (x) phi) maps it to the Choi matrix."""
    v = np.zeros(k * k, dtype=np.complex128)
    for p in range(k):
        v[p * k + p] = 1.0
    return np.outer(v, v.conj())


def sampled_amplified_positivity(
    phi: CpMap, n_samples: int = 10, max_amp: int = 4, seed=0,
    tol: Tolerances | None = None,
) -> tuple[bool, float]:
    """Eigencheck (id_N (x) phi)(P) on sampled PSD P, N <= max_amp.

    Always includes the maximally entangled argument at N = k, which maps to
    the Choi matrix, so the verdict matches :func:`is_cp`.
    """
    rng = rng_from_seed(seed)
    arguments = [max_entangled_argument(phi.k)]
    for _ in range(n_samples):
        arguments.append(random_psd(rng, int(rng.integers(1, max_amp + 1)) * phi.k))
    verdict = psd_verdict((phi.apply_amplified(p) for p in arguments), tol or phi.tol)
    return verdict.passed, verdict.min_eig


def effros_ruan_lower_bound(
    phi: CpMap, n_samples: int = 30, seq_len: int = 3, seed=0,
) -> float:
    """Sampled lower bound on the cb norm from finite sequences.

    For a sequence x_1, ..., x_N the stacked column (id (x) phi)(col(x_i)) has
    norm at most ||phi||_cb ||sum x_i* x_i||^{1/2}; maximizing the sampled
    ratio (including the unit singleton) never exceeds the cb norm, and for
    cp maps approaches ||phi(1)||.
    """
    rng = rng_from_seed(seed)
    sequences = [[np.eye(phi.k, dtype=np.complex128)]]
    for _ in range(n_samples):
        length = int(rng.integers(1, seq_len + 1))
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
        best = max(best, float(np.sqrt(max(0.0, np.linalg.eigvalsh(hermitize(num))[-1]) / den_norm)))
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
        self.tol = tol
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
        c = self._coerce(coeffs)
        k, m = self.phi.k, self.phi.m
        u = as_cmatrix(u, k, k)
        out = np.zeros(m, dtype=np.complex128)
        for p in range(k):
            for q in range(k):
                e = np.zeros((k, k), dtype=np.complex128)
                e[p, q] = 1.0
                out += self.phi.apply(u @ e) @ c[(p * k + q) * m:(p * k + q + 1) * m]
        return out

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


def rkhs_of_cp_map(phi: CpMap, tol: Tolerances | None = None) -> CpMapRkhs:
    """The reproducing kernel model of a cp map (Stinespring space)."""
    return CpMapRkhs(phi, tol)
