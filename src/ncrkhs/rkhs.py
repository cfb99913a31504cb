"""Finite-dimensional nc reproducing kernel Hilbert space models.

A model is a finite basis of nc series ``f_1, ..., f_S`` (coefficients
``y_dim x k`` for the algebra C^{k x k}) together with a Hermitian positive
definite gramian ``G`` with ``G_{ij} = <f_j, f_i>``.  Elements of the space
are indexed by (basis, column) slice pairs: the slice ``(i, c)`` is the
function ``(W, u) -> f_i(W) u e_c``, which is genuinely Y-valued.  The full
element space has dimension ``S * k`` with gramian ``G (x) I_k``; for the
scalar algebra (k = 1) this is the usual coefficient space of the basis.
The basis is held as one stacked series ``F`` (``y_dim x S k``) whose
coefficient column ``i k + c`` is slice ``(i, c)``, so one evaluation
``F(W)`` serves point evaluation, elements and the kernel.

The algebra acts on slices by mixing the column index, so the slice span is
closed under the action and ``sigma(a) = I_S (x) a`` in coefficients; the
adjoint relation ``sigma(a)* = sigma(a*)`` holds exactly for the gramian
``G (x) I_k``.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOL,
    SOLVE_SLACK,
    DependentBasis,
    DimMismatch,
    Infeasible,
    InputError,
    MatrixTuple,
    Tolerances,
    as_cmatrix,
    frobenius,
    frozen,
    kron,
    rel_err,
    require_finite,
)
from .kernels import AlgebraSpec, GramBasisKernel, KolmogorovKernel
from .series import AxiomReport, NcSeries, evaluate, linear_combination


class RkhsModel:
    """Gram-basis model of a finite-dimensional nc RKHS."""

    def __init__(
        self,
        algebra: AlgebraSpec,
        basis: list[NcSeries],
        gram: np.ndarray,
        tol: Tolerances = DEFAULT_TOL,
    ):
        kernel = GramBasisKernel(algebra, basis, gram, tol)
        # row i lists the coefficients of f_i word by word
        n, y, k = len(basis), kernel.y_dim, algebra.k
        coeffs = np.array(list(kernel.stacked.terms.values()) or [np.zeros((y, n * k))])
        rows = coeffs.reshape(-1, y, n, k).transpose(2, 0, 1, 3).reshape(n, -1)
        svals = np.linalg.svd(rows, compute_uv=False)
        if rel_err(svals[-1], svals[0]) <= tol.eq_rel:
            raise DependentBasis("basis coefficient lists are linearly dependent")

        self.algebra = algebra
        self.basis = kernel.basis
        self.stacked = kernel.stacked
        self.gram = kernel.gram
        self.d = kernel.d
        self.y_dim = kernel.y_dim
        self.tol = tol
        self.gram_full = frozen(kron(self.gram, np.eye(k)))
        self._kernel = kernel

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
        return self._kernel

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
        (k, n y, n k), where slice c is  sum_i c_{(i, c)} f_i(w).
        """
        c = self._coerce(coeffs).reshape(self.n_basis, self.algebra.k)
        k = self.algebra.k
        values = evaluate(self.stacked, w).reshape(w.n * self.y_dim, w.n, self.n_basis, k)
        slices = np.einsum("rbic,ij->jrbc", values, c).reshape(k, w.n * self.y_dim, w.n * k)
        if k == 1:
            return slices[0]
        return slices

    def apply_element(self, coeffs, w: MatrixTuple, u) -> np.ndarray:
        """The Y^n vector  f(W)(u)  for u a column over the algebra."""
        return point_evaluation(self, w, u) @ self._coerce(coeffs)


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
    rows = w.n * m.y_dim
    # f_i(W) is the column block i of F(W); bring i into the rows, apply u once
    values = evaluate(m.stacked, w).reshape(rows, w.n, m.n_basis, k).transpose(0, 2, 1, 3)
    return (values.reshape(rows * m.n_basis, w.n * k) @ u).reshape(rows, m.dim)


def kernel_element_coefficients(m: RkhsModel, w: MatrixTuple, v, y) -> np.ndarray:
    """Coefficients of K_{W,v,y}: (G (x) I_k)^{-1} applied to the evaluation data.

    v is a row over the algebra (k x (m k) encoded); the expansion coefficients
    are sums of (G^{-1})_{ji} (f_i(W)(v*))* y terms: vec(G^{-1} V), V the S x k data.
    """
    k = m.algebra.k
    v = as_cmatrix(v, k, w.n * k)
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if y.shape[0] != w.n * m.y_dim:
        raise DimMismatch(f"y must lie in Y^{w.n}")
    e = point_evaluation(m, w, v.conj().T)
    return (m._kernel.gram_inv @ (e.conj().T @ y).reshape(m.n_basis, k)).reshape(-1)


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
    return AxiomReport.worst([(violation, (w, v, y))], tol.eq_rel * SOLVE_SLACK)


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
        blocks.append(evaluate(h_kernel.h, z) @ kron(u, np.eye(mult)))
        values.append(val)
    a = np.vstack(blocks)
    require_finite(a, "the lifted-norm system")
    b = np.concatenate(values)
    h, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = frobenius(a @ h - b)
    if rel_err(residual, frobenius(b)) > tol.eq_rel * SOLVE_SLACK:
        raise Infeasible(residual)
    return frobenius(h)
