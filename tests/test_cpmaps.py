import warnings

import numpy as np
import pytest

from ncrkhs.core import InputError, NotCp, psd_factor
from ncrkhs.cpmaps import (
    CpMap,
    CpMapRkhs,
    cb_norm_cp,
    choi,
    effros_ruan_lower_bound,
    is_cp,
    max_entangled_argument,
    sampled_amplified_positivity,
    stinespring,
)
from ncrkhs.sampling import complex_gaussian, rng_from_seed


def identity_map(k):
    return CpMap.from_kraus([np.eye(k)])


def trace_map(k, m):
    # phi(a) = tr(a) I_m, Kraus ops e_i e_p^T stacked
    ops = []
    for i in range(m):
        for p in range(k):
            op = np.zeros((m, k), dtype=complex)
            op[i, p] = 1.0
            ops.append(op)
    return CpMap.from_kraus(ops)


def random_kraus_map(rng, k, m, n_ops):
    return CpMap.from_kraus([complex_gaussian(rng, m, k) for _ in range(n_ops)])


def test_choi_identity_map_rank_one():
    phi = identity_map(2)
    c = choi(phi)
    # blocks are the matrix units themselves
    np.testing.assert_allclose(c[0:2, 2:4], np.array([[0, 1], [0, 0]], dtype=complex))
    vals = np.linalg.eigvalsh(c)
    assert vals[-1] == pytest.approx(2.0)
    assert np.sum(vals > 1e-12) == 1


def test_choi_trace_map_is_identity():
    phi = trace_map(3, 2)
    np.testing.assert_allclose(choi(phi), np.eye(6), atol=1e-12)


def test_choi_zero_map():
    phi = CpMap.from_kraus([], k=2, m=2)
    np.testing.assert_allclose(choi(phi), np.zeros((4, 4)))
    assert is_cp(phi)[0]


def test_stinespring_identity():
    phi = identity_map(3)
    dil = stinespring(phi)
    assert dil.r == 1
    assert dil.reconstruction_error <= 1e-12
    np.testing.assert_allclose(dil.h @ dil.h.conj().T, np.eye(3), atol=1e-10)


def test_stinespring_trace_map():
    phi = trace_map(2, 2)
    dil = stinespring(phi)
    assert dil.r == 4  # Choi rank: one multiplicity slot per Kraus operator
    assert dil.reconstruction_error <= 1e-10


def test_stinespring_random_round_trip():
    rng = rng_from_seed(0)
    for _ in range(10):
        phi = random_kraus_map(rng, 2, 3, int(rng.integers(1, 4)))
        dil = stinespring(phi)
        assert dil.reconstruction_error <= 1e-10
        # sigma is a *-homomorphism by construction
        a = complex_gaussian(rng, 2, 2)
        b = complex_gaussian(rng, 2, 2)
        np.testing.assert_allclose(dil.sigma(a) @ dil.sigma(b), dil.sigma(a @ b), atol=1e-12)


def test_stinespring_rejects_non_cp():
    units = {(p, q): np.zeros((2, 2)) for p in range(2) for q in range(2)}
    units[(0, 0)] = np.diag([1.0, -0.1])
    phi = CpMap(2, 2, units)
    ok, min_eig = is_cp(phi)
    assert not ok and min_eig == pytest.approx(-0.1, abs=1e-12)
    with pytest.raises(NotCp):
        stinespring(phi)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_choi_matrix_is_an_input_error():
    # a PSD Choi matrix of finite entries whose symmetrization overflows
    phi = CpMap(1, 2, {(0, 0): np.full((2, 2), 1e308)})
    for call in (is_cp, stinespring, cb_norm_cp, lambda phi: psd_factor(choi(phi))):
        with pytest.raises(InputError, match="non-finite"):
            call(phi)


def test_cb_norm_identity_and_homogeneity():
    phi = identity_map(2)
    assert cb_norm_cp(phi) == pytest.approx(1.0)
    assert cb_norm_cp(phi.scaled(2.0)) == pytest.approx(2.0)


def test_cb_norm_equals_dilation_norm():
    rng = rng_from_seed(1)
    for _ in range(5):
        phi = random_kraus_map(rng, 2, 2, 3)
        dil = stinespring(phi)
        hh = np.linalg.norm(dil.h @ dil.h.conj().T, 2)
        assert abs(cb_norm_cp(phi) - hh) <= 1e-10 * max(1.0, hh)


def test_cb_norm_amplification_bound():
    rng = rng_from_seed(2)
    for _ in range(5):
        phi = random_kraus_map(rng, 2, 3, 2)
        bound = cb_norm_cp(phi)
        for n_amp in range(1, 5):
            root = complex_gaussian(rng, n_amp * 2, n_amp * 2)
            p = root @ root.conj().T
            value = phi.apply_amplified(p)
            assert np.linalg.norm(value, 2) <= bound * np.linalg.norm(p, 2) + 1e-10


def test_max_entangled_argument_maps_to_choi():
    rng = rng_from_seed(3)
    phi = random_kraus_map(rng, 3, 2, 2)
    np.testing.assert_allclose(
        phi.apply_amplified(max_entangled_argument(3)), choi(phi), atol=1e-12
    )


def test_choi_vs_sampled_amplified_positivity_agreement():
    rng = rng_from_seed(4)
    for trial in range(100):
        if trial % 2 == 0:
            phi = random_kraus_map(rng, 2, 2, int(rng.integers(1, 4)))
        else:
            # Hermitian-perturbed map, generically not cp
            units = {}
            herm = complex_gaussian(rng, 4, 4)
            herm = (herm + herm.conj().T) / 2
            for p in range(2):
                for q in range(2):
                    units[(p, q)] = herm[p * 2:(p + 1) * 2, q * 2:(q + 1) * 2]
            phi = CpMap(2, 2, units)
        choi_ok = is_cp(phi)[0]
        sampled_ok = sampled_amplified_positivity(phi, n_samples=5, seed=trial)[0]
        assert choi_ok == sampled_ok


def test_effros_ruan_cases():
    assert effros_ruan_lower_bound(identity_map(2), seed=0) >= 1.0 - 1e-6
    zero = CpMap.from_kraus([], k=2, m=2)
    assert effros_ruan_lower_bound(zero, seed=0) == 0.0

    rng = rng_from_seed(5)
    phi = random_kraus_map(rng, 2, 2, 3)
    bound = cb_norm_cp(phi)
    for seed in range(10):
        assert effros_ruan_lower_bound(phi, seed=seed) <= bound + 1e-8


def test_effros_ruan_lower_bounds_identity_exactly():
    # the unit sequence realizes ||phi(1)|| for cp maps
    rng = rng_from_seed(6)
    phi = random_kraus_map(rng, 3, 2, 2)
    assert effros_ruan_lower_bound(phi, n_samples=0, seed=0) == pytest.approx(
        cb_norm_cp(phi), abs=1e-10
    )


def test_rkhs_of_identity_map():
    phi = identity_map(2)
    model = CpMapRkhs(phi)
    assert model.n_units == 4
    rng = rng_from_seed(7)
    for _ in range(10):
        c = complex_gaussian(rng, model.dim, 1)[:, 0]
        v = complex_gaussian(rng, 2, 2)
        y = complex_gaussian(rng, 2, 1)[:, 0]
        assert model.reproducing_violation(c, v, y) <= 1e-10


def test_rkhs_of_zero_map():
    phi = CpMap.from_kraus([], k=2, m=2)
    model = CpMapRkhs(phi)
    np.testing.assert_allclose(np.asarray(model.gram), np.zeros((8, 8)))


def test_rkhs_linearity_relation():
    # K_{V,Y} = sum_i K_{v_i, y_i} holds coefficientwise in the model
    rng = rng_from_seed(8)
    phi = random_kraus_map(rng, 2, 2, 2)
    model = CpMapRkhs(phi)
    v1 = complex_gaussian(rng, 2, 2)
    v2 = complex_gaussian(rng, 2, 2)
    y = complex_gaussian(rng, 2, 1)[:, 0]
    lhs = model.kernel_element(v1 + v2, y)
    rhs = model.kernel_element(v1, y) + model.kernel_element(v2, y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_rkhs_sigma_laws():
    rng = rng_from_seed(9)
    phi = random_kraus_map(rng, 2, 2, 3)
    model = CpMapRkhs(phi)
    a = complex_gaussian(rng, 2, 2)
    b = complex_gaussian(rng, 2, 2)
    sa, sb = model.sigma_matrix(a), model.sigma_matrix(b)
    np.testing.assert_allclose(sa @ sb, model.sigma_matrix(a @ b), atol=1e-12)
    np.testing.assert_allclose(model.sigma_matrix(np.eye(2)), np.eye(model.dim), atol=1e-12)
    # adjoint with respect to the model gramian: <sigma(a) f, g> = <f, sigma(a*) g>
    for _ in range(5):
        f = complex_gaussian(rng, model.dim, 1)[:, 0]
        g = complex_gaussian(rng, model.dim, 1)[:, 0]
        lhs = model.inner_product(sa @ f, g)
        rhs = model.inner_product(f, model.sigma_matrix(a.conj().T) @ g)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_rkhs_sigma_pointwise_action():
    # (sigma(a) f)(u) = f(u a)
    rng = rng_from_seed(10)
    phi = random_kraus_map(rng, 2, 2, 2)
    model = CpMapRkhs(phi)
    c = complex_gaussian(rng, model.dim, 1)[:, 0]
    a = complex_gaussian(rng, 2, 2)
    u = complex_gaussian(rng, 2, 2)
    lhs = model.evaluate(model.sigma_matrix(a) @ c, u)
    rhs = model.evaluate(c, u @ a)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_star_preservation_report():
    rng = rng_from_seed(11)
    phi = random_kraus_map(rng, 2, 2, 2)
    ok, dev = phi.is_star_preserving()
    assert ok and dev <= 1e-12
    units = {(p, q): np.zeros((2, 2)) for p in range(2) for q in range(2)}
    units[(0, 1)] = np.eye(2)
    bad = CpMap(2, 2, units)
    assert not bad.is_star_preserving()[0]


def test_star_preservation_of_a_huge_map():
    # the Choi entries are about 1e160, so their squares overflow a plain norm
    phi = CpMap.from_kraus([np.array([[1, 0.5], [0, 1]]) * 1e80])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert phi.is_star_preserving() == (True, 0.0)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("k, m", [(1, 1), (1, 3), (2, 2), (3, 2)])
def test_rkhs_gram_and_kernel_element_match_unit_definitions(k, m):
    rng = rng_from_seed(40 + 3 * k + m)
    phi = random_kraus_map(rng, k, m, 2)
    model = CpMapRkhs(phi)
    v = complex_gaussian(rng, k, k)
    y = complex_gaussian(rng, m, 1)[:, 0]
    gram = np.zeros((k * k * m, k * k * m), dtype=complex)
    element = np.zeros(k * k * m, dtype=complex)
    for p in range(k):
        for q in range(k):
            a = (p * k + q) * m
            element[a:a + m] = v[p, q] * y
            for s in range(k):
                # e_pq* e_ps = e_qs, and e_pq* e_rs = 0 for r != p
                b = (p * k + s) * m
                gram[a:a + m, b:b + m] = phi.unit_values[(q, s)]
    np.testing.assert_array_equal(np.asarray(model.gram), gram)
    np.testing.assert_array_equal(model.kernel_element(v, y), element)


# ---------------------------------------------------------------------------
# Choi-block identities against per-unit loops
# ---------------------------------------------------------------------------

def _close(got, want):
    return np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def _unit(k, p, q):
    e = np.zeros((k, k), dtype=complex)
    e[p, q] = 1.0
    return e


def _reference_apply(phi, a):
    return sum(a[p, q] * phi.unit_values[(p, q)] for p in range(phi.k) for q in range(phi.k))


def _reference_apply_amplified(phi, p_mat):
    k, m = phi.k, phi.m
    rows, cols = p_mat.shape[0] // k, p_mat.shape[1] // k
    out = np.zeros((rows * m, cols * m), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            block = p_mat[i * k:(i + 1) * k, j * k:(j + 1) * k]
            out[i * m:(i + 1) * m, j * m:(j + 1) * m] = _reference_apply(phi, block)
    return out


def _reference_choi(phi):
    return sum(np.kron(_unit(phi.k, p, q), phi.unit_values[(p, q)])
               for p in range(phi.k) for q in range(phi.k))


@pytest.mark.parametrize("k, m", [(1, 3), (2, 2), (3, 2)])
def test_choi_blocks_match_per_unit_loops(k, m):
    rng = rng_from_seed(60 + 3 * k + m)
    kraus = [complex_gaussian(rng, m, k) for _ in range(2)]
    phi = CpMap.from_kraus(kraus)
    for p in range(k):
        for q in range(k):
            want = sum(a @ _unit(k, p, q) @ a.conj().T for a in kraus)
            assert _close(phi.unit_values[(p, q)], want)
    general = CpMap(k, m, {(p, q): complex_gaussian(rng, m, m) for p in range(k) for q in range(k)})
    for f in (phi, general):
        a = complex_gaussian(rng, k, k)
        p_mat = complex_gaussian(rng, 2 * k, 3 * k)
        assert _close(f.apply(a), _reference_apply(f, a))
        assert _close(f.apply_amplified(p_mat), _reference_apply_amplified(f, p_mat))
        np.testing.assert_array_equal(choi(f), _reference_choi(f))

    model = CpMapRkhs(phi)
    coeffs = complex_gaussian(rng, model.dim, 1)[:, 0]
    u = complex_gaussian(rng, k, k)
    want = sum(phi.apply(u @ _unit(k, p, q)) @ coeffs[(p * k + q) * m:(p * k + q + 1) * m]
               for p in range(k) for q in range(k))
    assert _close(model.evaluate(coeffs, u), want)


@pytest.mark.parametrize("k, m", [(1, 3), (2, 2), (3, 2)])
def test_stinespring_h_is_the_kraus_arrangement(k, m):
    rng = rng_from_seed(80 + 3 * k + m)
    phi = random_kraus_map(rng, k, m, 3)
    factor = psd_factor(choi(phi), phi.tol)
    r = factor.shape[1]
    h = np.zeros((m, k * r), dtype=complex)
    for ell in range(r):
        a_op = factor[:, ell].reshape(k, m).T
        for p in range(k):
            h[:, p * r + ell] = a_op[:, p]
    dil = stinespring(phi)
    np.testing.assert_array_equal(dil.h, h)
    assert dil.reconstruction_error <= 1e-12
