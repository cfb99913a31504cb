import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncrkhs.core import DEFAULT_TOL, DimMismatch, InputError, NotContraction, NotInTarget, NotPsd
from ncrkhs.kernels import AlgebraSpec, CallableKernel, GramBasisKernel, KolmogorovKernel, MomentKernel, szego_kernel
from ncrkhs.multipliers import (
    BrangesianDecomposition,
    Multiplier,
    adjoint_on_kernel_element,
    apply_multiplier,
    apply_multiplier_series,
    brangesian_complement,
    contractive_containment,
    contractivity_certificate,
    dbr_kernel,
    multiplier_matrix,
)
from ncrkhs.rkhs import RkhsModel, kernel_element_coefficients, sigma_matrix
from ncrkhs.sampling import complex_gaussian, nilpotent_tuple, rng_from_seed
from ncrkhs.series import NcSeries, evaluate

SZEGO = szego_kernel(1, max_len=3)


def scalar_poly_model(rng, d=1, degree=2):
    # monomial basis 1, z, ..., with the flat (Szego) gramian
    basis = [NcSeries.constant(d, [[1.0]])]
    word = ()
    for _ in range(degree):
        word = word + (1,)
        basis.append(NcSeries.monomial(d, word, [[1.0]]))
    return RkhsModel(AlgebraSpec(), basis, np.eye(len(basis)))


def test_apply_multiplier_identity_and_zero():
    rng = rng_from_seed(0)
    model = scalar_poly_model(rng)
    coeffs = complex_gaussian(rng, model.dim, 1)[:, 0]

    ident = Multiplier(NcSeries.constant(1, [[1.0]]), SZEGO, SZEGO)
    out = apply_multiplier(ident, model, coeffs, model)
    np.testing.assert_allclose(out.coefficients, coeffs, atol=1e-12)
    assert out.residual <= 1e-12

    zero = Multiplier(NcSeries.constant(1, [[0.0]]), SZEGO, SZEGO)
    out = apply_multiplier(zero, model, coeffs, model)
    np.testing.assert_allclose(out.coefficients, np.zeros(model.dim), atol=1e-12)


def test_apply_multiplier_pointwise_value():
    # S = z_1 c acting on a constant source element: (M_S f)(W) = (Z_1 (x) c) f(W)
    rng = rng_from_seed(1)
    c = complex_gaussian(rng, 2, 2)
    s = NcSeries.monomial(2, (1,), c)
    src_kernel = szego_kernel(2, max_len=2, y_dim=2)
    tgt_kernel = szego_kernel(2, max_len=3, y_dim=2)
    mult = Multiplier(s, src_kernel, tgt_kernel)

    const = complex_gaussian(rng, 2, 1)
    model = RkhsModel(AlgebraSpec(), [NcSeries.constant(2, const)], np.eye(1))
    image = apply_multiplier_series(mult, model, [1.0])
    w = nilpotent_tuple(rng, 2, 3)
    got = evaluate(image[0], w)
    want = np.kron(w.coords[0], c) @ evaluate(model.basis[0], w)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_apply_multiplier_not_in_target():
    rng = rng_from_seed(2)
    model = scalar_poly_model(rng, degree=2)
    shift = Multiplier(NcSeries.monomial(1, (1,), [[1.0]]), SZEGO, SZEGO)
    coeffs = np.zeros(model.dim)
    coeffs[-1] = 1.0  # z^2 -> z^3, outside the degree-2 span
    with pytest.raises(NotInTarget):
        apply_multiplier(shift, model, coeffs, model)

    wide = RkhsModel(AlgebraSpec(), [NcSeries.constant(1, [[1.0], [0.0]])], np.eye(1))
    with pytest.raises(DimMismatch):
        apply_multiplier(shift, model, coeffs, wide)


def test_dbr_kernel_special_cases():
    rng = rng_from_seed(3)
    z = nilpotent_tuple(rng, 1, 2)
    w = nilpotent_tuple(rng, 1, 3)
    p = complex_gaussian(rng, 2, 3)

    zero_mult = Multiplier(NcSeries.constant(1, [[0.0]]), SZEGO, SZEGO)
    np.testing.assert_allclose(
        dbr_kernel(zero_mult).evaluate(z, w, p), SZEGO.evaluate(z, w, p), atol=1e-12
    )

    ident = Multiplier(NcSeries.constant(1, [[1.0]]), SZEGO, SZEGO)
    np.testing.assert_allclose(
        dbr_kernel(ident).evaluate(z, w, p), np.zeros((2, 3)), atol=1e-12
    )

    lam = 0.5
    scaled = Multiplier(NcSeries.constant(1, [[lam]]), SZEGO, SZEGO)
    np.testing.assert_allclose(
        dbr_kernel(scaled).evaluate(z, w, p),
        (1 - lam**2) * SZEGO.evaluate(z, w, p),
        atol=1e-12,
    )


def test_contractivity_dichotomy():
    half = Multiplier(NcSeries.constant(1, [[0.5]]), SZEGO, SZEGO)
    cert = contractivity_certificate(half, seed=5)
    assert cert.passed

    ident = Multiplier(NcSeries.constant(1, [[1.0]]), SZEGO, SZEGO)
    assert contractivity_certificate(ident, seed=5).passed

    double = Multiplier(NcSeries.constant(1, [[2.0]]), SZEGO, SZEGO)
    cert = contractivity_certificate(double, seed=5)
    assert not cert.passed
    assert cert.min_eig < 0
    assert cert.witness is not None


def test_adjoint_formula_inner_products():
    # <M_S f, K_{W,v,y}> = <f, K'_{W,v,S(W)* y}> over random draws
    rng = rng_from_seed(6)
    model = scalar_poly_model(rng, degree=2)
    kernel = model.kernel()
    lam = 0.4 + 0.2j
    mult = Multiplier(NcSeries.constant(1, [[lam]]), kernel, kernel)
    m_mat = multiplier_matrix(mult, model, model)
    np.testing.assert_allclose(m_mat, lam * np.eye(model.dim), atol=1e-12)

    for _ in range(20):
        w = nilpotent_tuple(rng, 1, 2)
        v = complex_gaussian(rng, 1, 2)
        y = complex_gaussian(rng, 2, 1)[:, 0]
        f = complex_gaussian(rng, model.dim, 1)[:, 0]

        lhs = model.inner_product(m_mat @ f, kernel_element_coefficients(model, w, v, y))
        elem = adjoint_on_kernel_element(mult, w, v, y)
        rhs = model.inner_product(f, kernel_element_coefficients(model, w, v, elem.y))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

        # matrix adjoint agrees with the kernel-element formula
        gram = np.asarray(model.gram_full)
        adj = np.linalg.inv(gram) @ m_mat.conj().T @ gram
        np.testing.assert_allclose(
            adj @ kernel_element_coefficients(model, w, v, y),
            kernel_element_coefficients(model, w, v, elem.y),
            atol=1e-9,
        )


def test_adjoint_identity_and_zero_multipliers():
    rng = rng_from_seed(15)
    w = nilpotent_tuple(rng, 1, 2)
    v = complex_gaussian(rng, 1, 2)
    y = complex_gaussian(rng, 2, 1)[:, 0]

    ident = Multiplier(NcSeries.constant(1, [[1.0]]), SZEGO, SZEGO)
    elem = adjoint_on_kernel_element(ident, w, v, y)
    np.testing.assert_allclose(elem.y, y, atol=1e-12)

    zero = Multiplier(NcSeries.constant(1, [[0.0]]), SZEGO, SZEGO)
    elem = adjoint_on_kernel_element(zero, w, v, y)
    np.testing.assert_allclose(elem.y, np.zeros_like(y), atol=1e-12)


def test_multiplier_intertwines_sigma_actions():
    rng = rng_from_seed(7)
    model = scalar_poly_model(rng, degree=2)
    kernel = model.kernel()
    mult = Multiplier(NcSeries.constant(1, [[0.3]]), kernel, kernel)
    m_mat = multiplier_matrix(mult, model, model)
    a = [[1.7 - 0.3j]]
    lhs = sigma_matrix(model, a) @ m_mat
    rhs = m_mat @ sigma_matrix(model, a)
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_brangesian_zero_and_unitary():
    rng = rng_from_seed(8)
    # A = 0: M_A = {0}, H_A = whole space with the original norm
    dec = brangesian_complement(np.zeros((3, 3)))
    h = complex_gaussian(rng, 3, 1)[:, 0]
    k, kp = dec.decompose(h)
    np.testing.assert_allclose(k, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(kp, h, atol=1e-12)
    assert dec.norm_h(h) == pytest.approx(np.linalg.norm(h))

    # A unitary: H_A = {0}, M_A = whole space isometrically
    u, _ = np.linalg.qr(complex_gaussian(rng, 3, 3))
    dec = brangesian_complement(u)
    k, kp = dec.decompose(h)
    np.testing.assert_allclose(kp, np.zeros(3), atol=1e-10)
    assert dec.norm_m(h) == pytest.approx(np.linalg.norm(h), abs=1e-10)
    assert dec.h_range_basis.shape[1] == 0


def test_brangesian_rejects_expansion():
    with pytest.raises(NotContraction):
        brangesian_complement(2.0 * np.eye(2))


def random_rank2_strict_contraction(rng, n=5, top=0.9):
    u, _ = np.linalg.qr(complex_gaussian(rng, n, n))
    v, _ = np.linalg.qr(complex_gaussian(rng, n, n))
    s = np.zeros(n)
    s[0], s[1] = top, 0.5 * top
    return u * s @ v.conj().T


def test_brangesian_split_identity_and_minimality():
    rng = rng_from_seed(9)
    a = random_rank2_strict_contraction(rng)
    dec = brangesian_complement(a)
    h = complex_gaussian(rng, 5, 1)[:, 0]
    k, kp = dec.decompose(h)
    np.testing.assert_allclose(k + kp, h, atol=1e-12)
    base_cost = dec.split_cost(k, kp)
    assert base_cost == pytest.approx(dec.ambient_norm(h) ** 2, rel=1e-9)

    overlap = dec.feasible_perturbation_basis()
    assert overlap.shape[1] == 2  # strict contraction: overlap is Ran A
    for _ in range(50):
        delta = overlap @ complex_gaussian(rng, overlap.shape[1], 1)[:, 0] * 0.3
        cost = dec.split_cost(k + delta, kp - delta)
        assert cost >= base_cost - 1e-9


def test_brangesian_double_complement_norms():
    rng = rng_from_seed(10)
    a = random_rank2_strict_contraction(rng)
    dec = brangesian_complement(a)
    # complement of the complement: use the defect square root as the contraction
    defect = dec.defect_root
    dec2 = brangesian_complement(defect)
    for _ in range(100):
        x = a @ complex_gaussian(rng, 5, 1)[:, 0]
        assert abs(dec.norm_m(x) - dec2.norm_h(x)) <= 1e-9 * max(1.0, dec.norm_m(x))


def test_ks_space_pullback_identity():
    # shift multiplier between flat polynomial models: the H(K_S) gramian of
    # kernel elements matches the pull-back norm of (I - M_S M_S*) g
    rng = rng_from_seed(11)
    source = scalar_poly_model(rng, degree=1)
    target = scalar_poly_model(rng, degree=2)
    s = NcSeries.monomial(1, (1,), [[1.0]])
    mult = Multiplier(s, source.kernel(), target.kernel())
    m_mat = multiplier_matrix(mult, source, target)

    dec = brangesian_complement(m_mat, gram_src=source.gram_full, gram_tgt=target.gram_full)
    ks = dbr_kernel(mult)

    elements = []
    for _ in range(2):
        w = nilpotent_tuple(rng, 1, 2)
        v = complex_gaussian(rng, 1, 2)
        y = complex_gaussian(rng, 2, 1)[:, 0]
        elements.append((w, v, y))

    g = sum(kernel_element_coefficients(target, w, v, y) for w, v, y in elements)
    gram_t = np.asarray(target.gram_full)
    adj = np.linalg.inv(np.asarray(source.gram_full)) @ m_mat.conj().T @ gram_t
    x = g - m_mat @ (adj @ g)

    lhs = dec.norm_h(x) ** 2
    rhs = 0.0
    for wi, vi, yi in elements:
        for wj, vj, yj in elements:
            value = ks.evaluate(wi, wj, vi.conj().T @ vj)
            rhs += complex(yi.conj() @ value @ yj).real
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def test_dbr_kernel_inherits_axioms():
    # Hermitian symmetry and direct sums survive the de Branges-Rovnyak difference
    from ncrkhs.kernels import check_kernel_axioms, draw_kernel_axiom_samples

    mult = Multiplier(NcSeries.constant(1, [[0.6]]), SZEGO, SZEGO)
    kernel = dbr_kernel(mult)
    samples = draw_kernel_axiom_samples(kernel, rng_from_seed(20), n_samples=3, sizes=(2, 3))
    report = check_kernel_axioms(kernel, samples)
    assert report.passed, report.max_violation


def scaled(kernel, factor):
    return MomentKernel(kernel.d, kernel.y_dim, {key: factor * val for key, val in kernel.moments.items()},
                        kernel.max_len)


def test_contractive_containment_cases():
    cert, diff = contractive_containment(scaled(SZEGO, 0.5), SZEGO, seed=12)
    assert cert.passed

    cert, _ = contractive_containment(scaled(SZEGO, 2.0), SZEGO, seed=12)
    assert not cert.passed


def test_dbr_and_difference_kernels_need_factored_kernels():
    opaque = CallableKernel(1, 1, AlgebraSpec(), lambda z, w, p: SZEGO.evaluate(z, w, p))
    with pytest.raises(InputError, match="factored"):
        dbr_kernel(Multiplier(NcSeries.constant(1, [[0.5]]), opaque, SZEGO))
    with pytest.raises(InputError, match="factored"):
        contractive_containment(SZEGO, opaque)


def test_containment_of_stacked_factors():
    # H = [H' H2]: K - K' is cp by construction
    rng = rng_from_seed(13)
    h_prime = NcSeries(2, 2, 2, {(): complex_gaussian(rng, 2, 2), (1,): complex_gaussian(rng, 2, 2)})
    h_extra = NcSeries(2, 2, 3, {(): complex_gaussian(rng, 2, 3), (2,): complex_gaussian(rng, 2, 3)})
    stacked_terms = {}
    for w in set(h_prime.support) | set(h_extra.support):
        stacked_terms[w] = np.hstack([h_prime.coefficient(w), h_extra.coefficient(w)])
    h_full = NcSeries(2, 2, 5, stacked_terms)

    kp = KolmogorovKernel(AlgebraSpec(), h_prime, s=2)
    kf = KolmogorovKernel(AlgebraSpec(), h_full, s=5)
    cert, diff = contractive_containment(kp, kf, seed=14)
    assert cert.passed
    # the complement kernel equals the kernel of the extra factor
    extra = KolmogorovKernel(AlgebraSpec(), h_extra, s=3)
    z = nilpotent_tuple(rng, 2, 2)
    w = nilpotent_tuple(rng, 2, 3)
    p = complex_gaussian(rng, 2, 3)
    np.testing.assert_allclose(diff.evaluate(z, w, p), extra.evaluate(z, w, p), atol=1e-10)


# ---------------------------------------------------------------------------
# one positive-definite gramian rule (core.pd_eigh) for every consumer
# ---------------------------------------------------------------------------

# gramian kind -> the verdict every consumer must reach
GRAMIAN_KINDS = {
    "hermitian-pd": "ok",
    "just-above-the-floor": "ok",
    "just-below-the-floor": "NotPsd",
    "indefinite": "NotPsd",
    "non-hermitian": "InputError",
}


def _gramian(rng, kind: str, n: int) -> np.ndarray:
    """A random n x n gramian of ``kind``; the floor cases sit a factor 2 from the default floor."""
    q, _ = np.linalg.qr(complex_gaussian(rng, n, n))
    vals = rng.uniform(0.5, 2.0, n) * 10.0 ** rng.uniform(-2.0, 2.0)
    floor = DEFAULT_TOL.psd_floor * max(1.0, float(vals.max()))
    vals[0] = {"just-above-the-floor": 2.0 * floor, "just-below-the-floor": 0.5 * floor,
               "indefinite": -vals[0]}.get(kind, vals[0])
    g = (q * vals) @ q.conj().T
    g = (g + g.conj().T) / 2.0
    if kind == "non-hermitian":
        g = g + 1e-6 * float(vals.max()) * np.triu(complex_gaussian(rng, n, n), 1)
    return g


def _verdict(build) -> tuple:
    """("ok",), ("NotPsd", min_eig, floor) or ("InputError",) for one consumer of a gramian."""
    try:
        build()
    except NotPsd as err:
        return ("NotPsd", err.min_eig, err.floor)
    except InputError:
        return ("InputError",)
    return ("ok",)


@pytest.mark.parametrize("kind", sorted(GRAMIAN_KINDS))
@settings(max_examples=10)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_every_gramian_consumer_reaches_the_same_verdict(kind, seed, n):
    g = _gramian(rng_from_seed(seed), kind, n)
    basis = [NcSeries.monomial(1, (1,) * i, [[1.0]]) for i in range(n)]
    zero = np.zeros((n, n))
    verdicts = {
        "gram basis": _verdict(lambda: GramBasisKernel(AlgebraSpec(), basis, g)),
        "model": _verdict(lambda: RkhsModel(AlgebraSpec(), basis, g)),
        "brangesian source": _verdict(lambda: BrangesianDecomposition(zero, gram_src=g)),
        "brangesian target": _verdict(lambda: BrangesianDecomposition(zero, gram_tgt=g)),
    }
    assert {v[0] for v in verdicts.values()} == {GRAMIAN_KINDS[kind]}, verdicts
    assert len(set(verdicts.values())) == 1, verdicts
