"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are pinned here; desk scale throughout (matrix sizes
<= 6, d <= 3, word length <= 4, bases <= 8).
"""

import contextlib
import json
import subprocess
import sys

import numpy as np
import pytest

from ncrkhs.core import MatrixTuple, zero_tuple
from ncrkhs.cpmaps import (
    CpMap,
    cb_norm_cp,
    effros_ruan_lower_bound,
    is_cp,
    stinespring,
)
from ncrkhs.formal import (
    is_formal_positive_truncated,
    nilpotent_positivity_check,
)
from ncrkhs.kernels import (
    AlgebraSpec,
    KolmogorovKernel,
    MomentKernel as FormalKernel,
    moment_kernel_from_factor as formal_kernel_from_factor,
    check_kernel_axioms,
    cp_certificate,
    draw_kernel_axiom_samples,
    kolmogorov_at_sample,
    szego_kernel,
)
from ncrkhs.multipliers import (
    Multiplier,
    adjoint_on_kernel_element,
    brangesian_complement,
    contractivity_certificate,
    dbr_kernel,
    multiplier_matrix,
)
from ncrkhs.rkhs import (
    RkhsModel,
    kernel_element_coefficients,
    reproducing_check,
    sigma_matrix,
)
from ncrkhs.rkhs import bergman_kernel
from ncrkhs.sampling import (
    complex_gaussian,
    gaussian_tuple,
    nilpotent_tuple,
    random_psd,
    random_similarity,
    rng_from_seed,
)
from ncrkhs.series import (
    NcSeries,
    check_respects_direct_sums,
    check_respects_intertwinings,
    evaluate,
    extract_taylor_coefficients,
    functional_evaluator as functional_from_series,
)
from ncrkhs.serialize import (
    dumps_canonical,
    encode_cp_map,
    encode_formal_kernel,
    encode_kernel,
    encode_matrix,
    encode_series,
)


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def random_series(rng, d, p, q, max_len=3, n_terms=4):
    words = [()] + [
        tuple(int(l) for l in rng.integers(1, d + 1, size=rng.integers(1, max_len + 1)))
        for _ in range(n_terms - 1)
    ]
    terms = {}
    for w in words:
        terms[w] = terms.get(w, 0) + complex_gaussian(rng, p, q)
    return NcSeries(d, p, q, terms)


def random_scalar_factor(rng, d, y_dim, s, max_len=2, n_terms=4):
    return random_series(rng, d, y_dim, s, max_len, n_terms)


def random_scalar_model(rng, d=2, n_basis=4, max_len=2):
    basis = []
    for _ in range(n_basis):
        basis.append(random_series(rng, d, 1, 1, max_len, 3))
    gram = random_psd(rng, n_basis) + n_basis * np.eye(n_basis)
    return RkhsModel(AlgebraSpec(), basis, gram)


def test_criterion_01_axiom_suite():
    with criterion(1, "nc function and kernel axiom suite (<= 1e-10)"):
        rng = rng_from_seed(101)
        worst = 0.0
        # 100 draws: series direct sums and intertwinings
        for _ in range(100):
            d = int(rng.integers(1, 4))
            f = random_series(rng, d, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            z = gaussian_tuple(rng, d, int(rng.integers(1, 4)))
            w = gaussian_tuple(rng, d, int(rng.integers(1, 4)))
            report = check_respects_direct_sums(f, [(z, w)])
            worst = max(worst, report.max_violation)
            s = random_similarity(rng, z.n)
            zt = MatrixTuple(tuple(s @ c @ np.linalg.inv(s) for c in z.coords))
            report = check_respects_intertwinings(f, [(z, zt, s)])
            worst = max(worst, report.max_violation)
        # 100 draws over the three kernel forms
        for trial in range(100):
            which = trial % 3
            if which == 0:
                kernel = szego_kernel(2, max_len=4)
            elif which == 1:
                h = random_scalar_factor(rng, 2, 2, 2)
                kernel = KolmogorovKernel(AlgebraSpec(), h, s=2)
            else:
                model = random_scalar_model(rng)
                kernel = model.kernel()
            samples = draw_kernel_axiom_samples(kernel, rng, n_samples=1, sizes=(2, 3))
            report = check_kernel_axioms(kernel, samples)
            worst = max(worst, report.max_violation)
        assert worst <= 1e-10, worst


def test_criterion_02_hermitian_symmetry():
    with criterion(2, "Hermitian symmetry in all three forms (<= 1e-10)"):
        rng = rng_from_seed(102)
        worst = 0.0
        for form in ("moment", "kolmogorov", "gram_basis"):
            for _ in range(100):
                if form == "moment":
                    h = random_scalar_factor(rng, 2, 1, 2)
                    from ncrkhs.kernels import moment_kernel_from_factor

                    kernel = moment_kernel_from_factor(h, max_len=3)
                    z = nilpotent_tuple(rng, 2, 2)
                    w = nilpotent_tuple(rng, 2, 3)
                elif form == "kolmogorov":
                    h = random_scalar_factor(rng, 2, 2, 2)
                    kernel = KolmogorovKernel(AlgebraSpec(), h, s=2)
                    z = gaussian_tuple(rng, 2, 2)
                    w = gaussian_tuple(rng, 2, 3)
                else:
                    model = random_scalar_model(rng, n_basis=3)
                    kernel = model.kernel()
                    z = gaussian_tuple(rng, 2, 2)
                    w = gaussian_tuple(rng, 2, 3)
                p = complex_gaussian(rng, z.n * kernel.algebra.k, w.n * kernel.algebra.k)
                lhs = kernel.evaluate(z, w, p).conj().T
                rhs = kernel.evaluate(w, z, p.conj().T)
                scale = max(1.0, np.linalg.norm(lhs))
                worst = max(worst, np.linalg.norm(lhs - rhs) / scale)
        assert worst <= 1e-10, worst


def test_criterion_03_kolmogorov_round_trip():
    with criterion(3, "cp certificate and Kolmogorov reconstruction for 50 kernels"):
        rng = rng_from_seed(103)
        for trial in range(50):
            y_dim = int(rng.integers(1, 3))
            h = random_scalar_factor(rng, 2, y_dim, int(rng.integers(1, 4)))
            kernel = KolmogorovKernel(AlgebraSpec(), h, s=h.in_dim)
            cert = cp_certificate(kernel, n_points=3, sizes=(2, 3), n_rows=2, seed=trial)
            assert cert.passed, cert.min_eig
            points = [nilpotent_tuple(rng, 2, 2), nilpotent_tuple(rng, 2, 3)]
            sample = kolmogorov_at_sample(kernel, points)
            for i in range(2):
                for j in range(2):
                    p = complex_gaussian(rng, points[i].n, points[j].n)
                    want = kernel.evaluate(points[i], points[j], p)
                    got = sample.reconstruct(i, j, p)
                    err = np.linalg.norm(want - got) / max(1.0, np.linalg.norm(want))
                    assert err <= 1e-8, err


def test_criterion_04_szego_pinned_value():
    with criterion(4, "Szego pinned value diag(2,1) (<= 1e-12)"):
        kernel = szego_kernel(1, max_len=4)
        jordan = MatrixTuple((np.array([[0.0, 1.0], [0.0, 0.0]]),))
        value = kernel.evaluate(jordan, jordan, np.eye(2))
        assert np.max(np.abs(value - np.diag([2.0, 1.0]))) <= 1e-12


def test_criterion_05_reproducing_and_sigma_laws():
    with criterion(5, "reproducing identity and sigma laws on 200 draws (<= 1e-8)"):
        rng = rng_from_seed(105)
        worst = 0.0
        for _ in range(200):
            model = random_scalar_model(rng, n_basis=int(rng.integers(2, 6)))
            w = nilpotent_tuple(rng, 2, int(rng.integers(1, 4)))
            c = complex_gaussian(rng, model.dim, 1)[:, 0]
            v = complex_gaussian(rng, 1, w.n)
            y = complex_gaussian(rng, w.n, 1)[:, 0]
            report = reproducing_check(model, c, w, v, y)
            worst = max(worst, report.max_violation)

            a = complex_gaussian(rng, 1, 1)[0, 0]
            b = complex_gaussian(rng, 1, 1)[0, 0]
            sa = sigma_matrix(model, [[a]])
            sb = sigma_matrix(model, [[b]])
            worst = max(worst, np.linalg.norm(sa @ sb - sigma_matrix(model, [[a * b]])))
            worst = max(worst, np.linalg.norm(sigma_matrix(model, [[1.0]]) - np.eye(model.dim)))
            gram = np.asarray(model.gram_full)
            adjoint = np.linalg.inv(gram) @ sa.conj().T @ gram
            worst = max(
                worst,
                np.linalg.norm(adjoint - sigma_matrix(model, [[np.conj(a)]]))
                / max(1.0, abs(a)),
            )
            # pointwise rep1: (sigma(a) f)(W)(u) = f(W)(u a)
            u = complex_gaussian(rng, w.n, 1)
            lhs = model.apply_element(sa @ c, w, u)
            rhs = model.apply_element(c, w, u * a)
            worst = max(worst, np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs)))
        assert worst <= 1e-8, worst


def test_criterion_06_bergman_two_path():
    with criterion(6, "Bergman vs gramian kernel on 20 models x 20 samples (<= 1e-8)"):
        rng = rng_from_seed(106)
        worst = 0.0
        for _ in range(20):
            model = random_scalar_model(rng, n_basis=int(rng.integers(2, 6)))
            gram_kernel = model.kernel()
            berg = bergman_kernel(model)
            for _ in range(20):
                z = nilpotent_tuple(rng, 2, 2)
                w = nilpotent_tuple(rng, 2, 2)
                p = complex_gaussian(rng, 2, 2)
                a = gram_kernel.evaluate(z, w, p)
                b = berg.evaluate(z, w, p)
                worst = max(worst, np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a)))
        assert worst <= 1e-8, worst


def test_criterion_07_multiplier_dichotomy():
    with criterion(7, "multiplier dichotomy at |lambda| = 0.5 and 2"):
        szego = szego_kernel(1, max_len=4)
        half = Multiplier(NcSeries.constant(1, [[0.5]]), szego, szego)
        cert = contractivity_certificate(half, seed=107)
        assert cert.passed, cert.min_eig

        double = Multiplier(NcSeries.constant(1, [[2.0]]), szego, szego)
        # pinned single scalar point: K_S(0,0)(1) = -3 exactly
        ks = dbr_kernel(double)
        z = zero_tuple(1, 1)
        assert abs(ks.evaluate(z, z, np.eye(1))[0, 0] + 3.0) <= 1e-12
        cert = contractivity_certificate(double, seed=107)
        assert not cert.passed
        scale = max(1.0, abs(cert.min_eig))
        assert cert.min_eig <= -3.0 * 1e-9 * scale
        assert cert.witness is not None


def test_criterion_08_adjoint_formula():
    with criterion(8, "multiplier adjoint inner products on 100 draws (<= 1e-9)"):
        rng = rng_from_seed(108)
        worst = 0.0
        for _ in range(100):
            model = random_scalar_model(rng, d=1, n_basis=3, max_len=2)
            kernel = model.kernel()
            lam = complex_gaussian(rng, 1, 1)[0, 0] * 0.5
            mult = Multiplier(NcSeries.constant(1, [[lam]]), kernel, kernel)
            m_mat = multiplier_matrix(mult, model, model)
            w = nilpotent_tuple(rng, 1, 2)
            v = complex_gaussian(rng, 1, 2)
            y = complex_gaussian(rng, 2, 1)[:, 0]
            f = complex_gaussian(rng, model.dim, 1)[:, 0]
            lhs = model.inner_product(m_mat @ f, kernel_element_coefficients(model, w, v, y))
            elem = adjoint_on_kernel_element(mult, w, v, y)
            rhs = model.inner_product(f, kernel_element_coefficients(model, w, v, elem.y))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        assert worst <= 1e-9, worst


def test_criterion_09_brangesian():
    with criterion(9, "Brangesian split identity, minimality and double complement"):
        rng = rng_from_seed(109)
        u, _ = np.linalg.qr(complex_gaussian(rng, 5, 5))
        v, _ = np.linalg.qr(complex_gaussian(rng, 5, 5))
        a = u * np.array([0.9, 0.45, 0.0, 0.0, 0.0]) @ v.conj().T
        dec = brangesian_complement(a)

        h = complex_gaussian(rng, 5, 1)[:, 0]
        k_part, h_part = dec.decompose(h)
        base = dec.split_cost(k_part, h_part)
        assert abs(base - dec.ambient_norm(h) ** 2) <= 1e-9 * max(1.0, base)

        overlap = dec.feasible_perturbation_basis()
        for _ in range(50):
            delta = overlap @ complex_gaussian(rng, overlap.shape[1], 1)[:, 0] * 0.25
            cost = dec.split_cost(k_part + delta, h_part - delta)
            assert cost - base >= -1e-9

        dec2 = brangesian_complement(dec.defect_root)
        for _ in range(100):
            x = a @ complex_gaussian(rng, 5, 1)[:, 0]
            gap = abs(dec.norm_m(x) - dec2.norm_h(x))
            assert gap <= 1e-9 * max(1.0, dec.norm_m(x))


def test_criterion_10_formal_functional():
    with criterion(10, "formal-functional round trip and positivity agreement"):
        rng = rng_from_seed(110)
        # coefficient recovery of degree <= 4 series, exact to 1e-12
        for d in (1, 2):
            f = random_series(rng, d, 2, 2, max_len=4, n_terms=6)
            got = extract_taylor_coefficients(functional_from_series(f), d, 4, 2, 2)
            for w in set(f.support) | set(got.support):
                gap = np.linalg.norm(got.coefficient(w) - f.coefficient(w))
                assert gap <= 1e-12 * max(1.0, np.linalg.norm(f.coefficient(w)))

        # pass/fail agreement of the two positivity routes on 50 kernels
        for trial in range(50):
            h = random_scalar_factor(rng, 2, 1, 2, max_len=2, n_terms=3)
            kernel = formal_kernel_from_factor(h, 2)
            if trial % 2 == 1:
                moments = dict(kernel.moments)
                scale = 5.0 * (1.0 + max(np.linalg.norm(c) for c in moments.values()))
                key = ((1,), (1,))
                moments[key] = moments.get(key, np.zeros((1, 1))) - scale * np.eye(1)
                kernel = FormalKernel(2, 1, moments, 2)
            moment_ok = is_formal_positive_truncated(kernel, 2)[0]
            nilp_ok = nilpotent_positivity_check(kernel, seed=trial).passed
            assert moment_ok == nilp_ok == (trial % 2 == 0)


def test_criterion_11_stinespring():
    with criterion(11, "Stinespring suite on 100 random Kraus maps"):
        rng = rng_from_seed(111)
        for trial in range(100):
            k = int(rng.integers(2, 4))
            m = int(rng.integers(1, 4))
            n_ops = int(rng.integers(1, 4))
            phi = CpMap.from_kraus([complex_gaussian(rng, m, k) for _ in range(n_ops)])
            ok, min_eig = is_cp(phi)
            assert ok, min_eig
            dil = stinespring(phi)
            assert dil.reconstruction_error <= 1e-10

            bound = cb_norm_cp(phi)
            assert abs(bound - np.linalg.norm(phi.unit_value(), 2)) <= 1e-12
            for _ in range(3):
                n_amp = int(rng.integers(1, 5))
                root = complex_gaussian(rng, n_amp * k, n_amp * k)
                p = root @ root.conj().T
                ratio = np.linalg.norm(phi.apply_amplified(p), 2) / np.linalg.norm(p, 2)
                assert ratio <= bound + 1e-10

            er = effros_ruan_lower_bound(phi, n_samples=10, seed=trial)
            assert er <= bound + 1e-8


CLI_CASES = None


def _cli_fixture_files(tmp_path):
    rng = rng_from_seed(112)
    szego = szego_kernel(1, max_len=3)
    files = {}

    def put(name, payload):
        path = tmp_path / name
        path.write_text(dumps_canonical(payload))
        files[name] = str(path)

    put("series.json", encode_series(NcSeries(2, 1, 1, {(): [[1.0]], (1,): [[0.5]]})))
    put("szego.json", encode_kernel(szego))
    half = {key: 0.5 * val for key, val in szego.moments.items()}
    from ncrkhs.kernels import MomentKernel

    put("half.json", encode_kernel(MomentKernel(1, 1, half, 3)))
    h = NcSeries(2, 1, 2, {(): complex_gaussian(rng, 1, 2), (1,): complex_gaussian(rng, 1, 2)})
    put("kol.json", encode_kernel(KolmogorovKernel(AlgebraSpec(), h, s=2)))
    put("s.json", encode_series(NcSeries.constant(1, [[0.5]])))
    u, _ = np.linalg.qr(complex_gaussian(rng, 4, 4))
    v, _ = np.linalg.qr(complex_gaussian(rng, 4, 4))
    a = u * np.array([0.9, 0.4, 0.0, 0.0]) @ v.conj().T
    put("contraction.json", {"a": encode_matrix(a)})
    from ncrkhs.kernels import szego_kernel as szego_formal_kernel

    put("formal.json", encode_formal_kernel(szego_formal_kernel(1, 2)))
    phi = CpMap.from_kraus([complex_gaussian(rng, 2, 2) for _ in range(2)])
    put("phi.json", encode_cp_map(phi))
    return files


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "byte-identical CLI output across 3 runs per randomized subcommand"):
        files = _cli_fixture_files(tmp_path)
        commands = [
            ["check-ncfun", "--series", files["series.json"], "--seed", "7"],
            ["check-kernel", "--kernel", files["szego.json"], "--seed", "7"],
            ["cp-certify", "--kernel", files["szego.json"], "--sampler", "nilpotent", "--seed", "7"],
            ["kolmogorov", "--kernel", files["kol.json"], "--seed", "7"],
            [
                "multiplier-check",
                "--source", files["szego.json"],
                "--target", files["szego.json"],
                "--s", files["s.json"],
                "--seed", "7",
            ],
            ["brangesian", "--contraction", files["contraction.json"], "--seed", "7"],
            ["containment", "--kprime", files["half.json"], "--k", files["szego.json"], "--seed", "7"],
            ["formal-positivity", "--kernel", files["formal.json"], "--L", "2", "--seed", "7"],
            ["cb-norm", "--map", files["phi.json"], "--seed", "7"],
            ["effros-ruan", "--map", files["phi.json"], "--seed", "7"],
        ]
        for argv in commands:
            outputs = []
            codes = []
            for _ in range(3):
                proc = subprocess.run(
                    [sys.executable, "-m", "ncrkhs.cli", *argv],
                    capture_output=True,
                )
                outputs.append(proc.stdout)
                codes.append(proc.returncode)
            assert outputs[0] == outputs[1] == outputs[2], argv[0]
            assert codes[0] == codes[1] == codes[2] == 0, (argv[0], codes, outputs[0])
            json.loads(outputs[0])  # stdout is exactly one JSON document
