"""Finite-dimensional nc reproducing kernel Hilbert space models.

A model is a finite basis of nc series ``f_1, ..., f_S`` (coefficients
``y_dim x k`` for the algebra C^{k x k}) together with a Hermitian positive
definite gramian ``G`` with ``G_{ij} = <f_j, f_i>``.  Elements of the space
are indexed by (basis, column) slice pairs: the slice ``(i, c)`` is the
function ``(W, u) -> f_i(W) u e_c``, which is genuinely Y-valued.  The full
element space has dimension ``S * k`` with gramian ``G (x) I_k``; for the
scalar algebra (k = 1) this is the usual coefficient space of the basis.

The algebra acts on slices by mixing the column index, so the slice span is
closed under the action and ``sigma(a) = I_S (x) a`` in coefficients; the
adjoint relation ``sigma(a)* = sigma(a*)`` holds exactly for the gramian
``G (x) I_k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    DependentBasis,
    DimMismatch,
    Infeasible,
    InputError,
    MatrixTuple,
    Tolerances,
    as_cmatrix,
    frozen,
    kron,
    rel_err,
)
from .kernels import AlgebraSpec, GramBasisKernel, KolmogorovKernel, amplify, checked_gram
from .series import AxiomReport, NcSeries, evaluate


def _stacked_coefficients(basis: list[NcSeries]) -> np.ndarray:
    """Rows are the flattened coefficient lists of the basis over the support union."""
    words = sorted({w for f in basis for w in f.support}, key=lambda w: (len(w), w))
    if not words:
        words = [()]
    rows = []
    for f in basis:
        rows.append(np.concatenate([f.coefficient(w).reshape(-1) for w in words]))
    return np.array(rows)


class RkhsModel:
    """Gram-basis model of a finite-dimensional nc RKHS."""

    def __init__(
        self,
        algebra: AlgebraSpec,
        basis: list[NcSeries],
        gram: np.ndarray,
        tol: Tolerances = DEFAULT_TOL,
    ):
        gram = checked_gram(algebra, basis, gram, tol)
        stacked = _stacked_coefficients(basis)
        svals = np.linalg.svd(stacked, compute_uv=False)
        if svals[-1] <= tol.eq_rel * max(1.0, svals[0]):
            raise DependentBasis("basis coefficient lists are linearly dependent")

        self.algebra = algebra
        self.basis = list(basis)
        self.gram = frozen(gram)
        self.d = basis[0].d
        self.y_dim = basis[0].out_dim
        self.tol = tol
        self.gram_full = frozen(kron(gram, np.eye(algebra.k)))
        self.gram_full_inv = frozen(np.linalg.inv(self.gram_full))

    # -- structure ---------------------------------------------------------

    @property
    def n_basis(self) -> int:
        return len(self.basis)

    @property
    def dim(self) -> int:
        """Dimension of the element space (slice count)."""
        return self.n_basis * self.algebra.k

    def slice_index(self, i: int, c: int) -> int:
        return i * self.algebra.k + c

    def kernel(self) -> GramBasisKernel:
        return GramBasisKernel(self.algebra, self.basis, self.gram, self.tol)

    # -- elements ----------------------------------------------------------

    def _coerce(self, coeffs) -> np.ndarray:
        c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if c.shape[0] != self.dim:
            raise DimMismatch(f"element coefficients must have length {self.dim}")
        return c

    def inner_product(self, a, b) -> complex:
        """<a, b> = b* (G (x) I_k) a."""
        a = self._coerce(a)
        b = self._coerce(b)
        return complex(b.conj() @ self.gram_full @ a)

    def norm(self, a) -> float:
        return float(np.sqrt(max(0.0, self.inner_product(a, a).real)))

    def evaluate_element(self, coeffs, w: MatrixTuple) -> np.ndarray:
        """Value matrix of the element at w.

        Scalar algebra: the (n y) x n matrix  sum_i c_i f_i(w).  Matrix
        algebra: the stack of k column-slice value matrices, shape
        (k, n y, n k).
        """
        c = self._coerce(coeffs)
        k = self.algebra.k
        evals = [evaluate(f, w) for f in self.basis]
        slices = np.zeros((k,) + evals[0].shape, dtype=np.complex128)
        for i, ev in enumerate(evals):
            for col in range(k):
                slices[col] += c[self.slice_index(i, col)] * ev
        if k == 1:
            return slices[0]
        return slices

    def apply_element(self, coeffs, w: MatrixTuple, u) -> np.ndarray:
        """The Y^n vector  f(W)(u)  for u a column over the algebra."""
        c = self._coerce(coeffs)
        k = self.algebra.k
        u = as_cmatrix(u, w.n * k, k)
        out = np.zeros(w.n * self.y_dim, dtype=np.complex128)
        for i, f in enumerate(self.basis):
            applied = evaluate(f, w) @ u  # (n y) x k
            for col in range(k):
                out += c[self.slice_index(i, col)] * applied[:, col]
        return out


# ---------------------------------------------------------------------------
# point evaluation and the reproducing identity
# ---------------------------------------------------------------------------

def point_evaluation(m: RkhsModel, w: MatrixTuple, u) -> np.ndarray:
    """Matrix of the directional point evaluation f -> f(W)(u) in coefficients.

    Columns are indexed by slices; the gramian adjoint applied to y gives the
    coefficients of the kernel element K_{W, u*, y}.
    """
    k = m.algebra.k
    u = as_cmatrix(u, w.n * k, k)
    e = np.zeros((w.n * m.y_dim, m.dim), dtype=np.complex128)
    for i, f in enumerate(m.basis):
        applied = evaluate(f, w) @ u
        for col in range(k):
            e[:, m.slice_index(i, col)] = applied[:, col]
    return e


def kernel_element_coefficients(m: RkhsModel, w: MatrixTuple, v, y) -> np.ndarray:
    """Coefficients of K_{W,v,y}: (G (x) I_k)^{-1} applied to the evaluation data.

    v is a row over the algebra (k x (m k) encoded); the expansion coefficients
    are sums of (G^{-1})_{ji} (f_i(W)(v*))* y terms.
    """
    k = m.algebra.k
    v = as_cmatrix(v, k, w.n * k)
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if y.shape[0] != w.n * m.y_dim:
        raise DimMismatch(f"y must lie in Y^{w.n}")
    e = point_evaluation(m, w, v.conj().T)
    return m.gram_full_inv @ (e.conj().T @ y)


def reproducing_check(m: RkhsModel, coeffs, w: MatrixTuple, v, y,
                      tol: Tolerances | None = None) -> AxiomReport:
    """Verify <f(W)(v*), y> = <f, K_{W,v,y}> for the model's own kernel."""
    tol = tol or m.tol
    k = m.algebra.k
    v = as_cmatrix(v, k, w.n * k)
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    lhs = complex(y.conj() @ m.apply_element(coeffs, w, v.conj().T))
    xi = kernel_element_coefficients(m, w, v, y)
    rhs = m.inner_product(coeffs, xi)
    violation = rel_err(abs(lhs - rhs), abs(lhs))
    passed = violation <= tol.eq_rel * 100
    return AxiomReport(passed, violation, tol.eq_rel * 100, None if passed else (w, v, y))


# ---------------------------------------------------------------------------
# the canonical *-representation
# ---------------------------------------------------------------------------

def sigma_matrix(m: RkhsModel, a) -> np.ndarray:
    """Coefficient matrix of sigma(a): slice columns mix by a."""
    k = m.algebra.k
    a = as_cmatrix(a, k, k)
    return kron(np.eye(m.n_basis), a)


def sigma_action(m: RkhsModel, a, coeffs) -> np.ndarray:
    """Coefficients of sigma(a) f, with (sigma(a) f)(W)(u) = f(W)(u a)."""
    return sigma_matrix(m, a) @ m._coerce(coeffs)


# ---------------------------------------------------------------------------
# Bergman form of the kernel
# ---------------------------------------------------------------------------

def orthonormalized(m: RkhsModel) -> RkhsModel:
    """Model with the basis Gram-Schmidt-ed against G (new gramian = I)."""
    chol = np.linalg.cholesky(np.asarray(m.gram))
    transform = np.linalg.inv(chol).conj().T  # columns express new basis in old
    from .series import linear_combination

    new_basis = [
        linear_combination(m.basis, transform[:, i]) for i in range(m.n_basis)
    ]
    return RkhsModel(m.algebra, new_basis, np.eye(m.n_basis), m.tol)


def bergman_kernel(m: RkhsModel) -> GramBasisKernel:
    """Kernel from an orthonormal basis: sum_i f_i(Z) P f_i(W)*.

    Agrees with the gramian formula of the original model.
    """
    return orthonormalized(m).kernel()


# ---------------------------------------------------------------------------
# lifted norm
# ---------------------------------------------------------------------------

def lifted_norm(
    h_kernel: KolmogorovKernel,
    targets,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Minimum state norm over h with H(Z_i)(id (x) sigma)(u_j) h = value_ij.

    ``targets`` is a sequence of (point, u-column, value-vector) records; the
    minimum-norm solution is found by least squares and the residual must be
    consistent, else :class:`Infeasible`.
    """
    if not targets:
        raise InputError("lifted_norm needs at least one target sample")
    k = h_kernel.algebra.k
    mult = h_kernel.algebra.r * h_kernel.s
    blocks = []
    values = []
    for z, u, val in targets:
        u = as_cmatrix(u, z.n * k, k)
        val = np.asarray(val, dtype=np.complex128).reshape(-1)
        if val.shape[0] != z.n * h_kernel.y_dim:
            raise DimMismatch("target value must lie in Y^n for the sampled point")
        blocks.append(evaluate(h_kernel.h, z) @ amplify(u, k, mult))
        values.append(val)
    a = np.vstack(blocks)
    b = np.concatenate(values)
    h, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ h - b))
    if residual > tol.eq_rel * max(1.0, float(np.linalg.norm(b))) * 100:
        raise Infeasible(residual)
    return float(np.linalg.norm(h))
