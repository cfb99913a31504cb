from functools import partial

import numpy as np
import pytest

from ncrkhs.core import (
    BadIntertwiner,
    DimMismatch,
    InputError,
    MatrixTuple,
    NotPsd,
    MissingPair,
    TruncationRefused,
    psd_factor,
    zero_tuple,
)
from ncrkhs import kernels, series
from ncrkhs.kernels import (
    AlgebraSpec,
    CallableKernel,
    EnvelopeKernel,
    FULL_MATRIX,
    GramBasisKernel,
    KernelAxiomSamples,
    KernelElement,
    KolmogorovKernel,
    MomentKernel,
    cb_norm_report,
    check_kernel_axioms,
    cp_certificate,
    cp_certificate_similarity_reduced,
    draw_kernel_axiom_samples,
    kolmogorov_at_sample,
    moment_kernel_from_factor,
    szego_kernel,
)
from ncrkhs.sampling import complex_gaussian, gaussian_tuple, nilpotent_tuple, random_similarity, rng_from_seed
from ncrkhs.series import NcSeries, nilpotency_order

J2 = np.array([[0.0, 1.0], [0.0, 0.0]])
JORDAN = MatrixTuple((J2,))


def dense_nilpotent(rng, d, n):
    """A strictly upper-triangular tuple conjugated by a random similarity: nilpotent, not triangular."""
    s = random_similarity(rng, n)
    return MatrixTuple(tuple(s @ c @ np.linalg.inv(s) for c in nilpotent_tuple(rng, d, n).coords))


def random_scalar_factor(rng, d, y_dim, s, max_len=2, n_terms=4):
    words = [()] + [
        tuple(int(l) for l in rng.integers(1, d + 1, size=rng.integers(1, max_len + 1)))
        for _ in range(n_terms - 1)
    ]
    terms = {}
    for w in words:
        terms[w] = terms.get(w, 0) + complex_gaussian(rng, y_dim, s)
    return NcSeries(d, y_dim, s, terms)


def test_szego_pinned_value():
    kernel = szego_kernel(1, max_len=3)
    value = kernel.evaluate(JORDAN, JORDAN, np.eye(2))
    np.testing.assert_allclose(value, np.diag([2.0, 1.0]), atol=1e-12)


def test_moment_kernel_refuses_truncation():
    kernel = szego_kernel(1, max_len=3)
    invertible = MatrixTuple((np.eye(2) * 0.5,))
    with pytest.raises(TruncationRefused):
        kernel.evaluate(invertible, invertible, np.eye(2))
    # accepted explicitly
    kernel.evaluate(invertible, invertible, np.eye(2), allow_truncation=True)


def test_moment_kernel_tests_each_point_once(monkeypatch):
    calls = []
    orders = kernels.nilpotency_orders

    def counted(points, tol):
        calls.extend(points)
        return orders(points, tol)

    monkeypatch.setattr(kernels, "nilpotency_orders", counted)
    kernel = szego_kernel(1, max_len=3)
    # fresh points: the module's JORDAN keeps what other tests found
    jordan = MatrixTuple((J2,))
    kernel.evaluate(jordan, zero_tuple(1, 3), np.zeros((2, 3)))
    # strictly triangular points of sizes <= max_len + 1 need no test
    assert calls == []
    # a dense nilpotent point is tested once, wherever it appears
    dense = dense_nilpotent(rng_from_seed(37), 1, 3)
    for _ in range(2):
        kernel.evaluate(dense, jordan, np.zeros((3, 2)))
        kernel.evaluate(jordan, dense, np.zeros((2, 3)))
        kernel.evaluate(dense, dense, np.zeros((3, 3)))
    assert calls == [dense]
    calls.clear()
    invertible = MatrixTuple((np.eye(2) * 0.5,))
    refusal = r"the moment kernel is exact only at jointly nilpotent points of order <= 4; .* truncation"
    with pytest.raises(TruncationRefused, match=refusal):
        kernel.evaluate(jordan, invertible, np.eye(2))
    assert calls == [invertible]


def test_moment_kernel_rejects_non_hermitian_table():
    with pytest.raises(InputError):
        MomentKernel(1, 1, {((), (1,)): [[1.0]]}, max_len=1)


def test_kolmogorov_identity_factor():
    h = NcSeries.constant(2, [[1.0]])
    kernel = KolmogorovKernel(AlgebraSpec(), h)
    rng = rng_from_seed(2)
    z = MatrixTuple(tuple(complex_gaussian(rng, 3, 3) for _ in range(2)))
    w = MatrixTuple(tuple(complex_gaussian(rng, 2, 2) for _ in range(2)))
    p = complex_gaussian(rng, 3, 2)
    np.testing.assert_allclose(kernel.evaluate(z, w, p), p)


def test_gram_basis_single_constant():
    basis = [NcSeries.constant(1, [[1.0]])]
    kernel = GramBasisKernel(AlgebraSpec(), basis, [[2.0]])
    rng = rng_from_seed(3)
    z = MatrixTuple((complex_gaussian(rng, 2, 2),))
    w = MatrixTuple((complex_gaussian(rng, 2, 2),))
    p = complex_gaussian(rng, 2, 2)
    np.testing.assert_allclose(kernel.evaluate(z, w, p), p / 2.0)


def test_gram_basis_rejects_non_positive_gram():
    basis = [NcSeries.constant(1, [[1.0]]), NcSeries.monomial(1, (1,), [[1.0]])]
    with pytest.raises(NotPsd):
        GramBasisKernel(AlgebraSpec(), basis, [[1.0, 0.0], [0.0, -1.0]])


def test_kernel_element_evaluation():
    # scalar algebra, n = m = 1: returns K(z, W)(u v) y
    kernel = szego_kernel(1, max_len=2)
    w = zero_tuple(1, 1)
    element = KernelElement(kernel, w, [[1.0]], [1.0])
    z = zero_tuple(1, 1)
    np.testing.assert_allclose(element.evaluate(z, [[1.0]]), [1.0])
    np.testing.assert_allclose(element.evaluate(z, [[0.0]]), [0.0])

    basis = [NcSeries.constant(1, [[1.0]])]
    gram_kernel = GramBasisKernel(AlgebraSpec(), basis, [[2.0]])
    element = KernelElement(gram_kernel, w, [[1.0]], [1.0])
    np.testing.assert_allclose(element.evaluate(z, [[1.0]]), [0.5])


def test_form_agreement_moment_vs_kolmogorov():
    rng = rng_from_seed(4)
    for _ in range(5):
        h = random_scalar_factor(rng, 2, 2, 3)
        kol = KolmogorovKernel(AlgebraSpec(), h, s=3)
        mom = moment_kernel_from_factor(h, max_len=3)
        z = nilpotent_tuple(rng, 2, 3)
        w = nilpotent_tuple(rng, 2, 2)
        p = complex_gaussian(rng, 3, 2)
        a = kol.evaluate(z, w, p)
        b = mom.evaluate(z, w, p)
        assert np.linalg.norm(a - b) <= 1e-10 * max(1.0, np.linalg.norm(a))


def test_kernel_axioms_pass_for_all_forms():
    rng = rng_from_seed(5)
    h = random_scalar_factor(rng, 2, 2, 2)
    forms = [
        szego_kernel(2, max_len=3),
        KolmogorovKernel(AlgebraSpec(), h, s=2),
        GramBasisKernel(
            AlgebraSpec(),
            [NcSeries.constant(2, [[1.0], [0.0]]), NcSeries.monomial(2, (1,), [[0.0], [1.0]])],
            np.eye(2) + 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]]),
        ),
    ]
    for kernel in forms:
        sampler = kernel.default_sampler
        samples = draw_kernel_axiom_samples(kernel, rng_from_seed(6), n_samples=3, sizes=(2, 3), sampler=sampler)
        report = check_kernel_axioms(kernel, samples)
        assert report.passed, report.max_violation


def test_axiom_samples_resolve_auto_sampler():
    kernel = szego_kernel(2, max_len=3)
    auto = draw_kernel_axiom_samples(kernel, rng_from_seed(8), n_samples=2, sampler="auto")
    default = draw_kernel_axiom_samples(kernel, rng_from_seed(8), n_samples=2)
    for (z, _, _), (z0, _, _) in zip(auto.hermitian, default.hermitian):
        for a, b in zip(z.coords, z0.coords):
            np.testing.assert_array_equal(a, b)
    assert check_kernel_axioms(kernel, auto).passed


def test_matrix_algebra_kernels_axioms_and_cp():
    # A = C^{2x2} with multiplicity r = 2: Kolmogorov and Gram forms
    rng = rng_from_seed(30)
    algebra = AlgebraSpec(FULL_MATRIX, k=2, r=2)
    h = NcSeries(2, 2, algebra.rep_dim, {
        (): complex_gaussian(rng, 2, 4), (1,): complex_gaussian(rng, 2, 4),
    })
    kol = KolmogorovKernel(algebra, h, s=1)
    samples = draw_kernel_axiom_samples(kol, rng_from_seed(31), n_samples=2, sizes=(2, 3))
    assert check_kernel_axioms(kol, samples).passed
    assert cp_certificate(kol, n_points=3, sizes=(1, 2), n_rows=2, seed=5).passed

    basis = [
        NcSeries(2, 2, 2, {(): complex_gaussian(rng, 2, 2)}),
        NcSeries(2, 2, 2, {(2,): complex_gaussian(rng, 2, 2)}),
    ]
    gram_alg = AlgebraSpec(FULL_MATRIX, k=2, r=1)
    gb = GramBasisKernel(gram_alg, basis, np.eye(2) + 0.2 * np.ones((2, 2)))
    samples = draw_kernel_axiom_samples(gb, rng_from_seed(32), n_samples=2, sizes=(2, 2))
    assert check_kernel_axioms(gb, samples).passed
    assert cp_certificate(gb, n_points=2, sizes=(1, 2), n_rows=2, seed=6).passed


def test_kernel_axiom_check_forms_each_point_value_once(monkeypatch):
    # the embedding sample's Z (+) Zt is the point the direct-sum check uses
    formed = []
    values = series._values

    def counted(f, points):
        formed.extend((id(f), z.stacked.shape, z.stacked.tobytes()) for z in points)
        return values(f, points)

    monkeypatch.setattr(series, "_values", counted)
    kernel = KolmogorovKernel(AlgebraSpec(), random_scalar_factor(rng_from_seed(3), 2, 1, 2), s=2)
    samples = draw_kernel_axiom_samples(kernel, rng_from_seed(4), n_samples=3, sizes=(2, 3))
    assert check_kernel_axioms(kernel, samples).passed
    assert formed and len(formed) == len(set(formed))


@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_kernel_axioms_reject_a_non_intertwining_alpha(side):
    kernel = szego_kernel(2, max_len=3)
    rng = rng_from_seed(9)
    z = MatrixTuple(tuple(complex_gaussian(rng, 2, 2) for _ in range(2)))
    bad, eye = np.array([[1.0, 0.0], [0.0, 2.0]]), np.eye(2)
    alpha, beta = (bad, eye) if side == "alpha" else (eye, bad)
    samples = KernelAxiomSamples(intertwinings=[(z, z, alpha, z, z, beta, eye)])
    with pytest.raises(BadIntertwiner, match="alpha Z_1"):
        check_kernel_axioms(kernel, samples)


def test_kernel_axioms_negative_control():
    # kernel evaluator violating Hermitian symmetry
    bad = CallableKernel(1, 1, AlgebraSpec(), lambda z, w, p: p + 1j * np.eye(p.shape[0], p.shape[1]))
    samples = draw_kernel_axiom_samples(bad, rng_from_seed(7), n_samples=2, sizes=(2, 2))
    report = check_kernel_axioms(bad, samples)
    assert not report.passed
    assert report.witness is not None


def test_cp_certificate_kolmogorov_always_passes():
    rng = rng_from_seed(8)
    for seed in range(5):
        h = random_scalar_factor(rng, 2, 2, 2)
        kernel = KolmogorovKernel(AlgebraSpec(), h, s=2)
        cert = cp_certificate(kernel, n_points=3, sizes=(2, 3), n_rows=2, seed=seed)
        assert cert.passed, cert.min_eig


def test_cp_certificate_szego_nilpotent():
    kernel = szego_kernel(2, max_len=3)
    cert = cp_certificate(kernel, n_points=3, sizes=(2, 3), n_rows=2, seed=11)
    assert cert.passed
    assert cert.sample_description["sampler"] == "nilpotent"


@pytest.mark.parametrize("sizes", [(), (0,), (2, -1)])
def test_point_sizes_must_be_positive(sizes):
    kernel = szego_kernel(1, max_len=3)
    for draw in (cp_certificate, cp_certificate_similarity_reduced, partial(draw_kernel_axiom_samples, rng=0)):
        with pytest.raises(InputError, match="point sizes must be positive"):
            draw(kernel, sizes=sizes)


def test_cp_certificate_negative_moment():
    kernel = MomentKernel(1, 1, {((), ()): [[-1.0]]}, max_len=0)
    value = kernel.evaluate(zero_tuple(1, 1), zero_tuple(1, 1), [[1.0]])
    np.testing.assert_allclose(value, [[-1.0]])
    cert = cp_certificate(kernel, n_points=1, sizes=(1,), n_rows=1, seed=0)
    assert not cert.passed
    assert cert.min_eig < 0
    assert cert.witness is not None


def test_reduced_certificate_positive_and_negative():
    kernel = szego_kernel(1, max_len=3)
    assert cp_certificate_similarity_reduced(kernel, seed=1).passed

    negated = CallableKernel(
        1, 1, AlgebraSpec(),
        lambda z, w, p: -kernel.evaluate(z, w, p, allow_truncation=True),
        default_sampler="nilpotent",
    )
    cert = cp_certificate_similarity_reduced(negated, seed=1)
    assert not cert.passed


def test_reduced_and_full_certificates_agree():
    # cross-check oracle: random Kolmogorov-built nilpotent-domain kernels,
    # possibly sign-flipped; the two certificates must agree in pass/fail
    rng = rng_from_seed(9)
    for trial in range(50):
        h = random_scalar_factor(rng, 2, 1, 2, max_len=2, n_terms=3)
        sign = 1.0 if trial % 2 == 0 else -1.0
        base = moment_kernel_from_factor(h, max_len=3)
        kernel = CallableKernel(
            2, 1, AlgebraSpec(),
            lambda z, w, p, s=sign, b=base: s * b.evaluate(z, w, p),
            default_sampler="nilpotent",
        )
        full = cp_certificate(kernel, n_points=3, sizes=(2, 3), n_rows=2, seed=trial)
        reduced = cp_certificate_similarity_reduced(
            kernel, n_points=3, sizes=(2, 3), seed=trial, check_axioms=False
        )
        assert full.passed == reduced.passed == (sign > 0)


def test_kolmogorov_at_sample_single_zero_point():
    kernel = szego_kernel(1, max_len=2)
    sample = kolmogorov_at_sample(kernel, [zero_tuple(1, 1)])
    assert sample.rank == 1
    np.testing.assert_allclose(np.abs(sample.factors[0]), [[1.0]], atol=1e-12)


def test_kolmogorov_at_sample_round_trip():
    rng = rng_from_seed(10)
    h = random_scalar_factor(rng, 2, 2, 2)
    kernel = KolmogorovKernel(AlgebraSpec(), h, s=2)
    points = [nilpotent_tuple(rng, 2, 2), nilpotent_tuple(rng, 2, 3)]
    sample = kolmogorov_at_sample(kernel, points)
    for i in range(2):
        for j in range(2):
            p = complex_gaussian(rng, points[i].n, points[j].n)
            want = kernel.evaluate(points[i], points[j], p)
            got = sample.reconstruct(i, j, p)
            assert np.linalg.norm(want - got) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_kolmogorov_at_sample_all_three_forms():
    rng = rng_from_seed(21)
    h = random_scalar_factor(rng, 2, 1, 2)
    forms = [
        moment_kernel_from_factor(h, max_len=3),
        KolmogorovKernel(AlgebraSpec(), h, s=2),
        GramBasisKernel(
            AlgebraSpec(),
            [NcSeries.constant(2, [[1.0]]), NcSeries.monomial(2, (2,), [[1.0]])],
            [[2.0, 0.3], [0.3, 1.0]],
        ),
    ]
    for kernel in forms:
        points = [nilpotent_tuple(rng, 2, 2), nilpotent_tuple(rng, 2, 2)]
        sample = kolmogorov_at_sample(kernel, points)
        for i in range(2):
            for j in range(2):
                p = complex_gaussian(rng, 2, 2)
                want = kernel.evaluate(points[i], points[j], p)
                got = sample.reconstruct(i, j, p)
                assert np.linalg.norm(want - got) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_kolmogorov_at_sample_zero_kernel():
    kernel = KolmogorovKernel(AlgebraSpec(), NcSeries.zero(1, 1, 1))
    sample = kolmogorov_at_sample(kernel, [zero_tuple(1, 2)])
    assert sample.rank == 0
    np.testing.assert_allclose(sample.reconstruct(0, 0, np.eye(2)), np.zeros((2, 2)))


def test_envelope_single_generator_direct_sum():
    value = np.array([[2.0]])
    env = EnvelopeKernel([1], 1, {(0, 0): lambda p: p * value})
    p = complex_gaussian(rng_from_seed(11), 2, 2)
    out = env.evaluate_on_indices([0, 0], [0, 0], p)
    np.testing.assert_allclose(out, 2.0 * p)


def test_envelope_missing_pair():
    env = EnvelopeKernel([1, 1], 1, {(0, 0): lambda p: p})
    with pytest.raises(MissingPair):
        env.evaluate_on_indices([0], [1], np.eye(1))


def test_envelope_bbls_three_points():
    # scalar-point kernel on 3 points with A = C^{2x2}: phi_{ij}(a) = c_i* a c_j
    rng = rng_from_seed(12)
    k = 2
    cols = [complex_gaussian(rng, k, 1) for _ in range(3)]

    def make(i, j):
        return lambda p: cols[i].conj().T @ p @ cols[j]

    env = EnvelopeKernel(
        [1, 1, 1], 1, {(i, j): make(i, j) for i in range(3) for j in range(3)},
        algebra=AlgebraSpec(FULL_MATRIX, k=k),
    )
    a = [complex_gaussian(rng, k, k) for _ in range(3)]
    big_p = np.block([[a[i].conj().T @ a[j] for j in range(3)] for i in range(3)])
    assembled = env.evaluate_on_indices([0, 1, 2], [0, 1, 2], big_p)
    direct = np.array(
        [[(cols[i].conj().T @ a[i].conj().T @ a[j] @ cols[j])[0, 0] for j in range(3)] for i in range(3)]
    )
    np.testing.assert_allclose(assembled, direct, atol=1e-12)
    # PSD exactly when the BBLS sum condition holds: here by construction
    eigs = np.linalg.eigvalsh((assembled + assembled.conj().T) / 2)
    assert eigs[0] >= -1e-10

    # consistency: restriction to one index reproduces the generator value
    p_small = complex_gaussian(rng, k, k)
    np.testing.assert_allclose(
        env.evaluate_on_indices([1], [1], p_small), make(1, 1)(p_small)
    )


def test_cb_norm_report_cases():
    h = NcSeries.constant(1, [[1.0]])
    kernel = KolmogorovKernel(AlgebraSpec(), h)
    z = MatrixTuple((complex_gaussian(rng_from_seed(13), 2, 2),))
    report = cb_norm_report(kernel, z, n_samples=10, seed=0)
    assert report.norm_at_identity == pytest.approx(1.0, abs=1e-12)
    assert report.max_sampled_ratio <= report.norm_at_identity + 1e-10

    szego = szego_kernel(1, max_len=3)
    report = cb_norm_report(szego, JORDAN, n_samples=10, seed=0)
    assert report.norm_at_identity == pytest.approx(2.0, abs=1e-12)
    assert report.max_sampled_ratio <= 2.0 + 1e-10

    zero = CallableKernel(
        1, 1, AlgebraSpec(), lambda z_, w_, p_: np.zeros((z_.n, w_.n), dtype=complex),
        default_sampler="nilpotent",
    )
    report = cb_norm_report(zero, zero_tuple(1, 2), n_samples=5, seed=0)
    assert report.norm_at_identity == 0.0
    assert report.max_sampled_ratio == 0.0


def test_cp_kernel_norm_bound_on_psd_arguments():
    # ||K(Z,Z)(P)|| <= ||K(Z,Z)(I)|| ||P|| for cp kernels
    rng = rng_from_seed(14)
    h = random_scalar_factor(rng, 2, 2, 3)
    kernel = KolmogorovKernel(AlgebraSpec(), h, s=3)
    z = MatrixTuple(tuple(complex_gaussian(rng, 3, 3) for _ in range(2)))
    norm_id = np.linalg.norm(kernel.evaluate(z, z, np.eye(3)), 2)
    for _ in range(20):
        r = complex_gaussian(rng, 3, 3)
        p = r @ r.conj().T
        lhs = np.linalg.norm(kernel.evaluate(z, z, p), 2)
        assert lhs <= norm_id * np.linalg.norm(p, 2) + 1e-10


def unit_evaluation_sample(kernel, points):
    """Rank, factors and Gram error of a sample from (sum n_i^2)^2 unit-argument evaluations."""
    y = kernel.y_dim
    triples = [(i, r, t) for i, z in enumerate(points) for r in range(z.n) for t in range(z.n)]
    gram = np.zeros((len(triples) * y, len(triples) * y), dtype=complex)
    for a, (i, r, t) in enumerate(triples):
        for b, (j, s, u) in enumerate(triples):
            e = np.zeros((points[i].n, points[j].n), dtype=complex)
            e[t, u] = 1.0
            value = kernel.evaluate(points[i], points[j], e)
            gram[a * y:(a + 1) * y, b * y:(b + 1) * y] = value[r * y:(r + 1) * y, s * y:(s + 1) * y]
    f = psd_factor(gram)
    factors, offset = [], 0
    for z in points:
        h = np.zeros((z.n * y, z.n * f.shape[1]), dtype=complex)
        for r in range(z.n):
            for t in range(z.n):
                row = offset + r * z.n + t
                h[r * y:(r + 1) * y, t * f.shape[1]:(t + 1) * f.shape[1]] = f[row * y:(row + 1) * y]
        factors.append(h)
        offset += z.n * z.n
    return f.shape[1], factors, np.linalg.norm(gram - f @ f.conj().T) / max(1.0, np.linalg.norm(gram))


def test_kolmogorov_at_sample_matches_unit_evaluations():
    rng = rng_from_seed(31)
    h = random_scalar_factor(rng, 2, 2, 3)
    basis = [random_scalar_factor(rng, 2, 2, 1) for _ in range(3)]
    forms = [
        moment_kernel_from_factor(h, max_len=3),
        KolmogorovKernel(AlgebraSpec(), h, s=3),
        GramBasisKernel(AlgebraSpec(), basis, np.eye(3) + 0.2 * np.ones((3, 3))),
    ]
    for kernel in forms:
        points = [nilpotent_tuple(rng, 2, n) for n in (1, 3, 2)]
        sample = kolmogorov_at_sample(kernel, points)
        rank, factors, gram_error = unit_evaluation_sample(kernel, points)
        assert kernel.y_dim == 2
        assert sample.rank == rank
        assert sample.gram_error <= 1e-12 and gram_error <= 1e-12
        for i, zi in enumerate(points):
            for j, zj in enumerate(points):
                p = complex_gaussian(rng, zi.n, zj.n)
                want = factors[i] @ np.kron(p, np.eye(rank)) @ factors[j].conj().T
                got = sample.reconstruct(i, j, p)
                assert np.linalg.norm(want - got) <= 1e-10 * max(1.0, np.linalg.norm(want))


def test_one_point_outside_the_domain_is_refused_alone(monkeypatch):
    # a batched domain test of the points that are not strictly triangular:
    # one Gaussian point and two dense nilpotent points of two sizes
    kernel = szego_kernel(2, max_len=3)
    rng = rng_from_seed(36)
    inside = [nilpotent_tuple(rng, 2, 3), dense_nilpotent(rng, 2, 2), nilpotent_tuple(rng, 2, 3),
              dense_nilpotent(rng, 2, 3), nilpotent_tuple(rng, 2, 2)]
    dense = [inside[1], inside[3]]
    outside = gaussian_tuple(rng, 2, 3)
    points = inside[:2] + [outside] + inside[2:]
    tested = []
    orders = kernels.nilpotency_orders
    monkeypatch.setattr(kernels, "nilpotency_orders", lambda zs, tol: tested.append(list(zs)) or orders(zs, tol))
    refusal = r"the moment kernel is exact only at jointly nilpotent points of order <= 4; .* truncation"
    with pytest.raises(TruncationRefused, match=refusal):
        kernel.block_matrix(points, [complex_gaussian(rng, z.n, 2) for z in points])
    assert tested == [[dense[0], outside, dense[1]]]
    assert kernel._orders(points) == [nilpotency_order(dense[0]), None, nilpotency_order(dense[1])]
    # the other points keep their orders and are accepted without a new test
    kernel.block_matrix(inside, [complex_gaussian(rng, z.n, 2) for z in inside])
    assert len(tested) == 1


def test_kolmogorov_at_sample_refuses_an_unfactored_kernel():
    base = KolmogorovKernel(AlgebraSpec(), random_scalar_factor(rng_from_seed(32), 2, 2, 2), s=2)
    kernel = CallableKernel(base.d, base.y_dim, base.algebra, base.evaluate)
    with pytest.raises(InputError, match="factored kernel"):
        kolmogorov_at_sample(kernel, [nilpotent_tuple(rng_from_seed(33), 2, 2)])


def test_kolmogorov_at_sample_evaluates_only_at_the_points(monkeypatch):
    # one factor value per sample point and one nilpotency test per point
    # that is not strictly triangular, none at an ampliation
    kernel = moment_kernel_from_factor(random_scalar_factor(rng_from_seed(32), 2, 2, 2), max_len=3)
    rng = rng_from_seed(33)
    points = [nilpotent_tuple(rng, 2, n) for n in (2, 3, 1)] + [dense_nilpotent(rng, 2, 3), nilpotent_tuple(rng, 2, 2)]
    factor_points, order_points = [], []
    factor_values, nilpotency_orders = kernels.factor_values, kernels.nilpotency_orders
    monkeypatch.setattr(kernels, "factor_values", lambda f, zs: factor_points.extend(zs) or factor_values(f, zs))
    monkeypatch.setattr(kernels, "nilpotency_orders",
                        lambda zs, tol: order_points.extend(zs) or nilpotency_orders(zs, tol))
    kolmogorov_at_sample(kernel, points)
    assert [id(z) for z in factor_points] == [id(z) for z in points]
    assert [id(z) for z in order_points] == [id(points[3])]


def test_an_empty_point_adds_empty_blocks():
    rng = rng_from_seed(34)
    empty = zero_tuple(2, 0)
    for kernel in (szego_kernel(2, 3, y_dim=2),
                   KolmogorovKernel(AlgebraSpec(), random_scalar_factor(rng, 2, 2, 2), s=2)):
        y = kernel.y_dim
        z, w = nilpotent_tuple(rng, 2, 3), nilpotent_tuple(rng, 2, 2)
        assert kernel.evaluate(empty, w, np.zeros((0, 2))).shape == (0, 2 * y)
        assert kernel.evaluate(z, empty, np.zeros((3, 0))).shape == (3 * y, 0)
        assert kernel.evaluate(empty, empty, np.zeros((0, 0))).shape == (0, 0)
        x, v = complex_gaussian(rng, 3, 2), complex_gaussian(rng, 2, 2)
        with_empty = kernel.block_matrix([z, empty, w], [x, np.zeros((0, 2)), v])
        assert np.array_equal(with_empty, kernel.block_matrix([z, w], [x, v]))
        sample = kolmogorov_at_sample(kernel, [z, empty, w])
        plain = kolmogorov_at_sample(kernel, [z, w])
        assert sample.rank == plain.rank and sample.gram_error == plain.gram_error
        assert sample.factors[1].shape == (0, 0)
        assert all(np.array_equal(a, b) for a, b in zip(sample.factors[::2], plain.factors))


def test_kolmogorov_at_sample_needs_a_point():
    with pytest.raises(InputError):
        kolmogorov_at_sample(szego_kernel(1, max_len=2), [])


@pytest.mark.parametrize(
    "moments, error",
    [
        ({((1,), ()): [[0.5]], ((), ()): [[1.0]], ((), (1,)): [[0.5]]}, None),
        ({((), ()): [[1.0]], ((), (1,)): [[np.nan]], ((1,), ()): [[1.0, 2.0]]},
         (InputError, "matrix has non-finite entries")),
        ({((1,), ()): [[1.0, 2.0]], ((), ()): [[np.nan]]}, (DimMismatch, "expected 1 columns, got 2")),
    ],
    ids=["unsorted", "non-finite-first", "wrong-shape-first"],
)
def test_moment_table_is_checked_in_the_order_given(moments, error):
    if error is not None:
        with pytest.raises(error[0], match=error[1]):
            MomentKernel(1, 1, moments, 1)
        return
    kernel = MomentKernel(1, 1, moments, 1)
    assert list(kernel.moments) == [((), ()), ((), (1,)), ((1,), ())]
    assert [complex(c[0, 0]) for c in kernel.moments.values()] == [1.0, 0.5, 0.5]
    assert all(not c.flags.writeable for c in kernel.moments.values())
