"""Multipliers between nc RKHS models and de Branges-Rovnyak machinery.

A multiplier is an nc function S acting pointwise by (M_S f)(W) = S(W) f(W).
Contractivity of M_S is equivalent to complete positivity of the kernel
K(Z,W)(P) - S(Z) K'(Z,W)(P) S(W)*; the certificate here samples that kernel,
so a failure is a disproof witness while a pass is seeded evidence.

The kernel, model and series modules are imported inside the functions
that use them, so the Brangesian complement, which needs only matrices,
loads none of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL,
    OVERLAP_CUT,
    RANGE_SLACK,
    RANK_CUT,
    SOLVE_SLACK,
    DimMismatch,
    InputError,
    MatrixTuple,
    NotContraction,
    NotInTarget,
    Record,
    Tolerances,
    as_cmatrix,
    hermitize,
    pd_eigh,
    rel_err,
    require_finite,
    word_key,
)

if TYPE_CHECKING:
    from .kernels import CpCertificate, FactoredKernel, KernelBase, KernelElement
    from .rkhs import RkhsModel
    from .series import NcSeries


class Multiplier(Record):
    """S together with its source and target kernels."""

    def __init__(self, s: NcSeries, source: KernelBase, target: KernelBase):
        if s.d != source.d or s.d != target.d:
            raise DimMismatch("multiplier and kernels must share the variable count")
        if s.out_dim != target.y_dim or s.in_dim != source.y_dim:
            raise DimMismatch(
                f"multiplier shape {s.out_dim}x{s.in_dim} does not match "
                f"target/source coefficient dimensions {target.y_dim}/{source.y_dim}"
            )
        if source.algebra != target.algebra:
            raise DimMismatch("source and target kernels must share the coefficient algebra")
        self._set(s=s, source=source, target=target)


def _element_slice_series(model: RkhsModel, coeffs) -> NcSeries:
    """A model element as one out_dim x k series whose column c is its slice c.

    It is F D for the stacked basis F and D[(i, c'), c] = c_{(i, c)} delta_{c' c}.
    """
    from .series import NcSeries, multiply

    k = model.algebra.k
    c = model._coerce(coeffs).reshape(model.n_basis, k)
    weights = (c[:, :, None] * np.eye(k)).reshape(model.dim, k)
    return multiply(model.stacked, NcSeries.constant(model.d, weights))


def apply_multiplier_series(mult: Multiplier, source_model: RkhsModel, coeffs) -> list[NcSeries]:
    """Slice series of M_S f, computed by series multiplication."""
    from .series import NcSeries, multiply

    image = multiply(mult.s, _element_slice_series(source_model, coeffs))
    return [NcSeries(image.d, image.out_dim, 1, {w: c[:, [col]] for w, c in image.terms.items()})
            for col in range(image.in_dim)]


class Represented(NamedTuple):
    """Coefficients of a represented element with its least-squares residual."""

    coefficients: np.ndarray
    residual: float


def apply_multiplier(
    mult: Multiplier,
    source_model: RkhsModel,
    coeffs,
    target_model: RkhsModel,
    tol: Tolerances = DEFAULT_TOL,
) -> Represented:
    """Apply M_S to a source element and represent the image in the target basis.

    The image is fitted by least squares, reporting the residual; raises
    :class:`NotInTarget` when one survives.  The image function itself is
    :func:`apply_multiplier_series`.
    """
    from .series import multiply

    image = multiply(mult.s, _element_slice_series(source_model, coeffs))
    rep = _represent_in_model(image, target_model, tol)
    return Represented(rep.coefficients.sum(axis=1), rep.residual)


def _represent_in_model(image: NcSeries, model: RkhsModel, tol: Tolerances) -> Represented:
    """Model coefficients, one column each, of the columns (i, c) of an out_dim x (N k) series.

    Column (i, c) is slice c of a function f_i and may expand only over the
    model's (j, c) slices, which word by word are the columns of its stacked basis.
    """
    k = model.algebra.k
    if image.in_dim % k or image.out_dim != model.y_dim:
        raise DimMismatch(f"a {image.out_dim}x{image.in_dim} image does not fit the target model's slices")
    words = sorted(set(model.stacked.support) | set(image.support), key=word_key)
    span = np.vstack([model.stacked.coefficient(w) for w in words])
    targets = np.vstack([image.coefficient(w) for w in words])
    sol, *_ = np.linalg.lstsq(span, targets, rcond=None)
    residuals = np.linalg.norm(span @ sol - targets, axis=0)
    scale = np.max(np.linalg.norm(targets, axis=0))
    bad = rel_err(residuals, scale) > tol.eq_rel * SOLVE_SLACK
    if np.any(bad):
        raise NotInTarget(float(residuals[np.argmax(bad)]))
    # sol[(j, c'), (i, c)] expands slice c of f_i over model slice (j, c')
    same_slot = np.eye(k)[:, None, :]
    sol = sol.reshape(model.n_basis, k, -1, k)
    mixing = np.abs(sol * (1.0 - same_slot))
    if np.any(rel_err(mixing, scale) > tol.eq_rel * SOLVE_SLACK):
        raise NotInTarget(float(mixing.max()), "image mixes slice slots")
    return Represented((sol * same_slot).reshape(model.dim, -1), float(np.max(residuals)))


def multiplier_matrix(
    mult: Multiplier,
    source_model: RkhsModel,
    target_model: RkhsModel,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Coefficient matrix of M_S: source slices -> target slices.

    Column (i, c) of S F is M_S applied to the source slice (i, c), whose
    only nonzero slice is c, so one solve represents every source slice.
    """
    from .series import multiply

    return _represent_in_model(multiply(mult.s, source_model.stacked), target_model, tol).coefficients


def _minus(kernel: KernelBase, other: KernelBase, s: NcSeries | None = None) -> FactoredKernel:
    """K - S K' S* (K - K' without S) as [F, S F'] (C (+) -C') [F, S F']*, S F' by series multiplication.

    Both parts are exact only where both kernels are, so the result keeps the
    shorter truncation (``max_len`` and ``tol``) of the two.
    """
    from .kernels import FactoredKernel
    from .series import WordIndicator, multiply

    if not (isinstance(kernel, FactoredKernel) and isinstance(other, FactoredKernel)):
        raise InputError("de Branges-Rovnyak and difference kernels need factored kernels")
    moved = [
        (f if s is None else multiply(s, f.as_series() if isinstance(f, WordIndicator) else f), -c)
        for f, c in other.terms
    ]
    exact = min((kernel, other), key=lambda k: np.inf if k.max_len is None else k.max_len)
    return FactoredKernel(kernel.d, kernel.y_dim, kernel.algebra, kernel.terms + tuple(moved),
                          exact.max_len, exact.tol, "difference" if s is None else "de Branges-Rovnyak")


def dbr_kernel(mult: Multiplier) -> FactoredKernel:
    """The kernel K(Z,W)(P) - S(Z) K'(Z,W)(P) S(W)*."""
    return _minus(mult.target, mult.source, mult.s)


def contractivity_certificate(
    mult: Multiplier,
    n_points: int = 4,
    sizes=(1, 2, 3),
    n_rows: int = 2,
    seed=0,
    tol: Tolerances = DEFAULT_TOL,
    sampler: str | None = None,
) -> CpCertificate:
    """Sampled cp test of the de Branges-Rovnyak kernel of S."""
    from .kernels import cp_certificate

    return cp_certificate(
        dbr_kernel(mult), n_points=n_points, sizes=sizes, n_rows=n_rows,
        seed=seed, tol=tol, sampler=sampler,
    )


def adjoint_on_kernel_element(
    mult: Multiplier, w: MatrixTuple, v, y
) -> KernelElement:
    """(M_S)* K_{W,v,y} = K'_{W, v, S(W)* y}."""
    from .kernels import KernelElement
    from .series import evaluate

    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if y.shape[0] != w.n * mult.target.y_dim:
        raise DimMismatch("y must lie in the target Y^m")
    sw = evaluate(mult.s, w)
    return KernelElement(mult.source, w, v, sw.conj().T @ y)


# ---------------------------------------------------------------------------
# Brangesian complements at finite dimension
# ---------------------------------------------------------------------------

def _sqrtm_hpd(g: np.ndarray, tol: Tolerances, what: str) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = pd_eigh(g, tol, what)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return root, inv_root


class BrangesianDecomposition:
    """Complementary pair M_A = Ran A and H_A = Ran (I - A A*)^{1/2}.

    Works in the coordinates induced by the source/target gramians; ``decompose``
    realizes the unique norm-minimizing split h = iota iota* h + (I - iota iota*) h.
    All range projections and pseudo-inverses come from one SVD of the
    normalized contraction so that numerically-zero directions are cut exactly.
    """

    def __init__(self, a: np.ndarray, gram_src=None, gram_tgt=None,
                 tol: Tolerances = DEFAULT_TOL):
        a = as_cmatrix(a)
        n_tgt, n_src = a.shape
        gram_src = np.eye(n_src) if gram_src is None else as_cmatrix(gram_src, n_src, n_src)
        gram_tgt = np.eye(n_tgt) if gram_tgt is None else as_cmatrix(gram_tgt, n_tgt, n_tgt)
        self.a = a
        self.gram_src = gram_src
        self.gram_tgt = gram_tgt
        self.tol = tol
        root_s, inv_root_s = _sqrtm_hpd(gram_src, tol, "gramian gram_src")
        root_t, inv_root_t = _sqrtm_hpd(gram_tgt, tol, "gramian gram_tgt")
        self._root_t, self._inv_root_t = root_t, inv_root_t
        self.a0 = root_t @ a @ inv_root_s
        require_finite(self.a0, "the normalized contraction")

        u, svals, vh = np.linalg.svd(self.a0)
        norm = float(svals[0]) if svals.size else 0.0
        if norm > 1.0 + tol.psd_floor:
            raise NotContraction(f"operator norm {norm:.6f} exceeds 1")
        self.operator_norm = norm
        s_full = np.zeros(n_tgt)
        s_full[: svals.size] = np.clip(svals, 0.0, 1.0)
        s_cut = s_full.copy()
        s_cut[s_cut <= RANK_CUT] = 0.0
        defect = np.clip(1.0 - s_cut**2, 0.0, None)
        defect[defect <= RANK_CUT] = 0.0
        droot = np.sqrt(defect)

        inv_s = np.where(s_cut > 0, 1.0 / np.where(s_cut > 0, s_cut, 1.0), 0.0)
        inv_droot = np.where(droot > 0, 1.0 / np.where(droot > 0, droot, 1.0), 0.0)
        r = min(n_src, n_tgt)
        self._defect_root = (u * droot) @ u.conj().T
        self._a0_pinv = (vh.conj().T[:, :r] * inv_s[:r]) @ u[:, :r].conj().T
        self._defect_pinv = (u * inv_droot) @ u.conj().T
        self._proj_m = (u * (s_cut > 0)) @ u.conj().T
        self._proj_h = (u * (droot > 0)) @ u.conj().T

        self.m_range_basis = self._inv_root_t @ u[:, s_cut > 0]
        self.h_range_basis = self._inv_root_t @ u[:, droot > 0]

    @property
    def defect_root(self) -> np.ndarray:
        """(I - A0 A0*)^{1/2} in orthonormal coordinates.

        Feeding it back as a contraction realizes the double complement: its
        H-space is M_A with the same pull-back norm.
        """
        return self._defect_root

    # -- norms ---------------------------------------------------------------

    def ambient_norm(self, h) -> float:
        h0 = self._root_t @ np.asarray(h, dtype=np.complex128).reshape(-1)
        return float(np.linalg.norm(h0))

    def _member_norm(self, x, pinv0: np.ndarray, proj: np.ndarray, label: str) -> float:
        x0 = self._root_t @ np.asarray(x, dtype=np.complex128).reshape(-1)
        gap = float(np.linalg.norm(proj @ x0 - x0))
        if rel_err(gap, float(np.linalg.norm(x0))) > self.tol.eq_rel * RANGE_SLACK:
            raise InputError(f"vector is not in {label} (distance {gap:.3e})")
        return float(np.linalg.norm(pinv0 @ x0))

    def norm_m(self, x) -> float:
        """Pull-back norm on M_A = Ran A."""
        return self._member_norm(x, self._a0_pinv, self._proj_m, "Ran A")

    def norm_h(self, x) -> float:
        """Pull-back norm on H_A = Ran (I - A A*)^{1/2}."""
        return self._member_norm(x, self._defect_pinv, self._proj_h, "Ran (I - A A*)^{1/2}")

    # -- the canonical split ---------------------------------------------------

    def decompose(self, h) -> tuple[np.ndarray, np.ndarray]:
        """h = iota iota* h + (I - iota iota*) h in target coordinates."""
        h = np.asarray(h, dtype=np.complex128).reshape(-1)
        h0 = self._root_t @ h
        k0 = self.a0 @ (self.a0.conj().T @ h0)
        return self._inv_root_t @ k0, self._inv_root_t @ (h0 - k0)

    def split_cost(self, k, kprime) -> float:
        """||k||_M^2 + ||k'||_{H_A}^2 of a feasible split."""
        return self.norm_m(k) ** 2 + self.norm_h(kprime) ** 2

    def feasible_perturbation_basis(self) -> np.ndarray:
        """Orthonormal directions of Ran A  intersect  Ran (I - A A*)^{1/2}.

        Shifting the split along these directions keeps both parts in their
        spaces; the canonical split minimizes the cost over all such shifts.
        """
        prod = self._proj_m @ self._proj_h @ self._proj_m
        vals, vecs = np.linalg.eigh(hermitize(prod, "the range overlap"))
        keep = vals > OVERLAP_CUT
        return self._inv_root_t @ vecs[:, keep]


def brangesian_complement(a, gram_src=None, gram_tgt=None,
                          tol: Tolerances = DEFAULT_TOL) -> BrangesianDecomposition:
    """Brangesian complement data of a contraction between gramian-weighted spaces."""
    return BrangesianDecomposition(a, gram_src, gram_tgt, tol)


# ---------------------------------------------------------------------------
# contractive containment
# ---------------------------------------------------------------------------

def difference_kernel(kprime: KernelBase, kernel: KernelBase) -> FactoredKernel:
    """K'' = K - K', the complement kernel of a contractive containment."""
    if kprime.y_dim != kernel.y_dim or kprime.algebra != kernel.algebra:
        raise DimMismatch("kernels must share coefficient dimension and algebra")
    if kprime.d != kernel.d:
        raise DimMismatch("kernels must share the variable count")
    return _minus(kernel, kprime)


def contractive_containment(
    kprime: KernelBase,
    kernel: KernelBase,
    n_points: int = 4,
    sizes=(1, 2, 3),
    n_rows: int = 2,
    seed=0,
    tol: Tolerances = DEFAULT_TOL,
    sampler: str | None = None,
) -> tuple[CpCertificate, KernelBase]:
    """Certificate that H(K') embeds contractively in H(K): cp test of K - K'.

    On a pass the returned difference kernel is the Brangesian complement
    kernel H(K) (-)_dBR H(K') = H(K - K').
    """
    from .kernels import cp_certificate

    diff = difference_kernel(kprime, kernel)
    cert = cp_certificate(
        diff, n_points=n_points, sizes=sizes, n_rows=n_rows, seed=seed, tol=tol, sampler=sampler
    )
    return cert, diff
