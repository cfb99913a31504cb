import numpy as np
import pytest

from ncrkhs.core import DependentBasis, Infeasible, zero_tuple
from ncrkhs.kernels import FULL_MATRIX, AlgebraSpec, KolmogorovKernel
from ncrkhs.rkhs import (
    RkhsModel,
    bergman_kernel,
    kernel_element_coefficients,
    lifted_norm,
    orthonormalized,
    point_evaluation,
    reproducing_check,
    sigma_action,
    sigma_matrix,
)
from ncrkhs.sampling import complex_gaussian, nilpotent_tuple, random_psd, rng_from_seed, sample_tuple
from ncrkhs.series import NcSeries, evaluate


def random_scalar_model(rng, d=2, y_dim=1, n_basis=3, max_len=2):
    while True:
        basis = []
        for i in range(n_basis):
            terms = {(): complex_gaussian(rng, y_dim, 1)}
            for _ in range(2):
                w = tuple(int(l) for l in rng.integers(1, d + 1, size=rng.integers(1, max_len + 1)))
                terms[w] = complex_gaussian(rng, y_dim, 1)
            basis.append(NcSeries(d, y_dim, 1, terms))
        gram = random_psd(rng, n_basis) + n_basis * np.eye(n_basis)
        try:
            return RkhsModel(AlgebraSpec(), basis, gram)
        except DependentBasis:  # pragma: no cover - vanishing probability
            continue


def test_inner_product_cases():
    basis = [NcSeries.constant(1, [[1.0]]), NcSeries.monomial(1, (1,), [[1.0]])]
    m = RkhsModel(AlgebraSpec(), basis, np.eye(2))
    assert m.inner_product([1, 0], [1, 0]) == pytest.approx(1.0)

    m = RkhsModel(AlgebraSpec(), basis, np.diag([2.0, 3.0]))
    assert m.inner_product([0, 1], [0, 1]) == pytest.approx(3.0)

    m = RkhsModel(AlgebraSpec(), basis, [[2.0, 1.0], [1.0, 2.0]])
    # <e1 + e2, e1> = G11 + G12 = 3 by hand
    assert m.inner_product([1, 1], [1, 0]) == pytest.approx(3.0)


def test_evaluate_element_linearity():
    rng = rng_from_seed(0)
    m = random_scalar_model(rng)
    z = nilpotent_tuple(rng, 2, 3)
    c = complex_gaussian(rng, m.dim, 1)[:, 0]
    direct = m.evaluate_element(c, z)
    by_parts = sum(c[i] * evaluate(m.basis[i], z) for i in range(m.dim))
    np.testing.assert_allclose(direct, by_parts, atol=1e-12)


def test_reproducing_identity_single_constant():
    basis = [NcSeries.constant(1, [[1.0]])]
    m = RkhsModel(AlgebraSpec(), basis, [[1.0]])
    w = zero_tuple(1, 1)
    report = reproducing_check(m, [1.0], w, [[1.0]], [1.0])
    assert report.passed


def test_reproducing_identity_random_models():
    rng = rng_from_seed(1)
    for _ in range(20):
        m = random_scalar_model(rng, n_basis=4)
        w = nilpotent_tuple(rng, 2, int(rng.integers(1, 4)))
        c = complex_gaussian(rng, m.dim, 1)[:, 0]
        v = complex_gaussian(rng, 1, w.n)
        y = complex_gaussian(rng, w.n * m.y_dim, 1)[:, 0]
        report = reproducing_check(m, c, w, v, y)
        assert report.passed, report.max_violation


def test_reproducing_negative_control():
    rng = rng_from_seed(2)
    m = random_scalar_model(rng, n_basis=3)
    w = nilpotent_tuple(rng, 2, 2)
    c = complex_gaussian(rng, m.dim, 1)[:, 0]
    v = complex_gaussian(rng, 1, w.n)
    y = complex_gaussian(rng, w.n, 1)[:, 0]
    # corrupted expansion: use a non-inverse of the gramian
    e = point_evaluation(m, w, v.conj().T)
    xi_bad = (np.asarray(m.gram) + np.eye(m.dim)) @ (e.conj().T @ y)
    lhs = complex(y.conj() @ m.apply_element(c, w, v.conj().T))
    rhs = m.inner_product(c, xi_bad)
    assert abs(lhs - rhs) > 1e-6


def test_sigma_scalar_is_multiplication():
    rng = rng_from_seed(3)
    m = random_scalar_model(rng)
    c = complex_gaussian(rng, m.dim, 1)[:, 0]
    np.testing.assert_allclose(sigma_action(m, [[2.5 + 1j]], c), (2.5 + 1j) * c)
    np.testing.assert_allclose(sigma_matrix(m, [[1.0]]), np.eye(m.dim))


def test_sigma_matrix_algebra_slices():
    # one generating function over A = C^{2x2}; sigma(e_11) projects slot 1
    rng = rng_from_seed(4)
    algebra = AlgebraSpec(FULL_MATRIX, k=2)
    g = NcSeries(2, 1, 2, {(): complex_gaussian(rng, 1, 2), (1,): complex_gaussian(rng, 1, 2)})
    m = RkhsModel(algebra, [g], np.eye(1))
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(sigma_matrix(m, e11), np.diag([1.0, 0.0]))

    # unital, multiplicative, *-compatible
    a = complex_gaussian(rng, 2, 2)
    b = complex_gaussian(rng, 2, 2)
    sa, sb, sab = sigma_matrix(m, a), sigma_matrix(m, b), sigma_matrix(m, a @ b)
    np.testing.assert_allclose(sa @ sb, sab, atol=1e-12)
    np.testing.assert_allclose(sigma_matrix(m, np.eye(2)), np.eye(m.dim))
    gf = np.asarray(m.gram_full)
    adjoint = np.linalg.inv(gf) @ sa.conj().T @ gf
    np.testing.assert_allclose(adjoint, sigma_matrix(m, a.conj().T), atol=1e-12)


def test_sigma_rep1_pointwise():
    # (sigma(a) f)(W)(u) = f(W)(u a) on sample points
    rng = rng_from_seed(5)
    algebra = AlgebraSpec(FULL_MATRIX, k=2)
    g = NcSeries(1, 2, 2, {(): complex_gaussian(rng, 2, 2), (1,): complex_gaussian(rng, 2, 2)})
    m = RkhsModel(algebra, [g], np.eye(1))
    w = nilpotent_tuple(rng, 1, 2)
    c = complex_gaussian(rng, m.dim, 1)[:, 0]
    a = complex_gaussian(rng, 2, 2)
    u = complex_gaussian(rng, w.n * 2, 2)
    lhs = m.apply_element(sigma_action(m, a, c), w, u)
    rhs = m.apply_element(c, w, u @ a)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_bergman_single_constant_basis():
    # one constant basis function with unit gramian: K(Z,W)(P) = value P value*
    value = np.array([[2.0], [1.0]])
    m = RkhsModel(AlgebraSpec(), [NcSeries.constant(1, value)], [[1.0]])
    berg = bergman_kernel(m)
    rng = rng_from_seed(20)
    z = MatrixTupleOf(rng, 2)
    w = MatrixTupleOf(rng, 3)
    p = complex_gaussian(rng, 2, 3)
    want = np.kron(np.eye(2), value) @ p @ np.kron(np.eye(3), value).conj().T
    np.testing.assert_allclose(berg.evaluate(z, w, p), want, atol=1e-12)


def MatrixTupleOf(rng, n):
    from ncrkhs.core import MatrixTuple

    return MatrixTuple((complex_gaussian(rng, n, n),))


def test_bergman_two_path_equality():
    rng = rng_from_seed(6)
    for _ in range(5):
        m = random_scalar_model(rng, n_basis=3)
        gram_kernel = m.kernel()
        berg = bergman_kernel(m)
        for _ in range(4):
            z = nilpotent_tuple(rng, 2, 2)
            w = nilpotent_tuple(rng, 2, 3)
            p = complex_gaussian(rng, 2, 3)
            a = gram_kernel.evaluate(z, w, p)
            b = berg.evaluate(z, w, p)
            assert np.linalg.norm(a - b) <= 1e-8 * max(1.0, np.linalg.norm(a))


def test_bergman_invariant_under_rescaling():
    rng = rng_from_seed(7)
    m = random_scalar_model(rng, n_basis=3)
    scaled_basis = [m.basis[0]] + [m.basis[1]] + [m.basis[2]]
    from ncrkhs.series import scale as series_scale

    scaled_basis[1] = series_scale(m.basis[1], 2.0)
    gram2 = np.asarray(m.gram).copy()
    gram2[1, :] *= 2.0
    gram2[:, 1] *= 2.0
    m2 = RkhsModel(AlgebraSpec(), scaled_basis, gram2)
    z = nilpotent_tuple(rng, 2, 2)
    w = nilpotent_tuple(rng, 2, 2)
    p = complex_gaussian(rng, 2, 2)
    a = bergman_kernel(m).evaluate(z, w, p)
    b = bergman_kernel(m2).evaluate(z, w, p)
    assert np.linalg.norm(a - b) <= 1e-8 * max(1.0, np.linalg.norm(a))


def test_orthonormalized_gram_is_identity():
    rng = rng_from_seed(8)
    m = random_scalar_model(rng, n_basis=4)
    onb = orthonormalized(m)
    np.testing.assert_allclose(np.asarray(onb.gram), np.eye(4), atol=1e-12)


def test_point_evaluation_adjoint_identity():
    rng = rng_from_seed(9)
    m = random_scalar_model(rng, n_basis=4)
    w = nilpotent_tuple(rng, 2, 2)
    v = complex_gaussian(rng, 1, w.n)
    u = v.conj().T
    e = point_evaluation(m, w, u)
    y = complex_gaussian(rng, w.n, 1)[:, 0]
    xi = kernel_element_coefficients(m, w, v, y)
    # <E c, y> = <c, E^G-adjoint y>_G for random c
    for _ in range(5):
        c = complex_gaussian(rng, m.dim, 1)[:, 0]
        lhs = complex(y.conj() @ (e @ c))
        rhs = m.inner_product(c, xi)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_lifted_norm_cases():
    # H = 1, sigma trivial, one scalar point: norm of the constant
    h = NcSeries.constant(1, [[1.0]])
    kernel = KolmogorovKernel(AlgebraSpec(), h)
    z = zero_tuple(1, 1)
    norm = lifted_norm(kernel, [(z, [[1.0]], [3.0])])
    assert norm == pytest.approx(3.0)

    # feasibility bound: targets generated from a known h0
    rng = rng_from_seed(10)
    hs = NcSeries(2, 2, 3, {(): complex_gaussian(rng, 2, 3), (1,): complex_gaussian(rng, 2, 3)})
    kernel = KolmogorovKernel(AlgebraSpec(), hs, s=3)
    h0 = complex_gaussian(rng, 3, 1)[:, 0]
    targets = []
    for _ in range(3):
        zp = nilpotent_tuple(rng, 2, 2)
        u = complex_gaussian(rng, zp.n, 1)
        val = evaluate(hs, zp) @ np.kron(u, np.eye(3)) @ h0
        targets.append((zp, u, val))
    norm = lifted_norm(kernel, targets)
    assert norm <= np.linalg.norm(h0) + 1e-8


def test_lifted_norm_matrix_algebra():
    # k = 2: (id (x) sigma)(u) applies a -> a (x) I_{rs} to each k x k block of u
    rng = rng_from_seed(12)
    k, mult = 2, 2
    hs = NcSeries(2, 2, k * mult, {w: complex_gaussian(rng, 2, k * mult) for w in [(), (1,), (2,)]})
    kernel = KolmogorovKernel(AlgebraSpec(FULL_MATRIX, k=k), hs, s=mult)
    h0 = complex_gaussian(rng, k * mult, 1)[:, 0]
    targets = []
    for n in (1, 2, 2):
        z = nilpotent_tuple(rng, 2, n)
        u = complex_gaussian(rng, n * k, k)
        lifted = np.vstack([np.kron(u[i * k:(i + 1) * k], np.eye(mult)) for i in range(n)])
        targets.append((z, u, evaluate(hs, z) @ lifted @ h0))
    # ten equations in four unknowns: feasible only in the right layout, and then h0 is the solution
    norm = lifted_norm(kernel, targets)
    assert norm <= np.linalg.norm(h0) + 1e-8
    assert norm == pytest.approx(np.linalg.norm(h0), rel=1e-8)


def test_lifted_norm_minimality_against_projection_oracle():
    rng = rng_from_seed(11)
    hs = NcSeries(1, 1, 4, {(): complex_gaussian(rng, 1, 4)})  # rank-deficient sampling
    kernel = KolmogorovKernel(AlgebraSpec(), hs, s=4)
    h0 = complex_gaussian(rng, 4, 1)[:, 0]
    z = zero_tuple(1, 1)
    u = np.array([[1.0]])
    val = evaluate(hs, z) @ np.kron(u, np.eye(4)) @ h0
    norm = lifted_norm(kernel, [(z, u, val)])
    # oracle: explicit orthogonal projection of h0 onto the row space
    a = evaluate(hs, z) @ np.kron(u, np.eye(4))
    pinv = np.linalg.pinv(a)
    projected = pinv @ (a @ h0)
    assert norm == pytest.approx(np.linalg.norm(projected), abs=1e-10)
    assert norm <= np.linalg.norm(h0) + 1e-10


def test_lifted_norm_infeasible():
    h = NcSeries.constant(1, [[0.0]])
    kernel = KolmogorovKernel(AlgebraSpec(), h)
    z = zero_tuple(1, 1)
    with pytest.raises(Infeasible):
        lifted_norm(kernel, [(z, [[1.0]], [1.0])])


def test_prop_norm_bound_on_elements():
    # ||f(W)(u)|| <= ||f|| * ||K(W,W)(1)||^{1/2} for unit-norm algebra columns
    rng = rng_from_seed(12)
    m = random_scalar_model(rng, n_basis=4)
    kernel = m.kernel()
    for _ in range(10):
        w = nilpotent_tuple(rng, 2, 2)
        c = complex_gaussian(rng, m.dim, 1)[:, 0]
        u = complex_gaussian(rng, w.n, 1)
        u = u / np.linalg.norm(u)
        value = m.apply_element(c, w, u)
        bound = m.norm(c) * np.linalg.norm(kernel.evaluate(w, w, np.eye(w.n)), 2) ** 0.5
        assert np.linalg.norm(value) <= bound + 1e-8


# ---------------------------------------------------------------------------
# the stacked basis against per-basis loops
# ---------------------------------------------------------------------------

def _close(got, want):
    return np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def _reference_gram_kernel(m, z, w, p):
    gram_inv = np.linalg.inv(np.asarray(m.gram))
    out = 0
    for i, fi in enumerate(m.basis):
        for j, fj in enumerate(m.basis):
            out = out + gram_inv[i, j] * evaluate(fi, z) @ p @ evaluate(fj, w).conj().T
    return out


def _reference_point_evaluation(m, w, u):
    k = m.algebra.k
    e = np.zeros((w.n * m.y_dim, m.dim), dtype=complex)
    for i, f in enumerate(m.basis):
        applied = evaluate(f, w) @ u
        for col in range(k):
            e[:, m.slice_index(i, col)] = applied[:, col]
    return e


def _reference_apply_element(m, c, w, u):
    out = np.zeros(w.n * m.y_dim, dtype=complex)
    for i, f in enumerate(m.basis):
        applied = evaluate(f, w) @ u
        for col in range(m.algebra.k):
            out += c[m.slice_index(i, col)] * applied[:, col]
    return out


def _reference_evaluate_element(m, c, w):
    k = m.algebra.k
    slices = [sum(c[m.slice_index(i, col)] * evaluate(f, w) for i, f in enumerate(m.basis))
              for col in range(k)]
    return slices[0] if k == 1 else np.array(slices)


@pytest.mark.parametrize("k", [1, 2])
def test_stacked_basis_matches_per_basis_loops(k):
    rng = rng_from_seed(70 + k)
    d, y_dim = 2, 2
    supports = [[(), (1,)], [(2,), (1, 2)], [(), (2, 1), (1, 1, 2)]]
    basis = [NcSeries(d, y_dim, k, {w: complex_gaussian(rng, y_dim, k) for w in words})
             for words in supports]
    algebra = AlgebraSpec(FULL_MATRIX, k) if k > 1 else AlgebraSpec()
    m = RkhsModel(algebra, basis, random_psd(rng, 3) + np.eye(3))
    z = sample_tuple(rng, "gaussian", d, 2)
    w = sample_tuple(rng, "gaussian", d, 3)
    p = complex_gaussian(rng, 2 * k, 3 * k)
    u = complex_gaussian(rng, 3 * k, k)
    c = complex_gaussian(rng, m.dim, 1)[:, 0]

    assert _close(m.kernel().evaluate(z, w, p), _reference_gram_kernel(m, z, w, p))
    assert _close(point_evaluation(m, w, u), _reference_point_evaluation(m, w, u))
    assert _close(m.apply_element(c, w, u), _reference_apply_element(m, c, w, u))
    assert _close(m.evaluate_element(c, w), _reference_evaluate_element(m, c, w))
    # the kernel element through G^{-1} alone, against a solve with the full gramian G (x) I_k
    v, y = complex_gaussian(rng, k, 3 * k), complex_gaussian(rng, 3 * y_dim, 1)[:, 0]
    want = np.linalg.solve(m.gram_full, point_evaluation(m, w, v.conj().T).conj().T @ y)
    assert np.linalg.norm(kernel_element_coefficients(m, w, v, y) - want) <= 1e-12 * np.linalg.norm(want)
