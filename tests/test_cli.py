import argparse
import inspect
import json
import os
import re
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ncrkhs import cli
from ncrkhs.cli import main
from ncrkhs.cpmaps import CpMap
from ncrkhs.kernels import AlgebraSpec, KolmogorovKernel, MomentKernel, szego_kernel
from ncrkhs.kernels import MomentKernel as FormalKernel, szego_kernel as szego_formal_kernel
from ncrkhs.rkhs import RkhsModel
from ncrkhs.sampling import complex_gaussian, rng_from_seed
from ncrkhs.serialize import (
    dumps_canonical,
    encode_cp_map,
    encode_formal_kernel,
    encode_kernel,
    encode_matrix,
    encode_model,
    encode_series,
    encode_tuple,
)
from ncrkhs.series import NcSeries
from ncrkhs.core import Infeasible, MatrixTuple, NcrkhsError, NotContraction, NotCp, NotPsd, zero_tuple


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(dumps_canonical(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1  # exactly one JSON document
    return code, json.loads(captured.out)


def test_eval_product_word(tmp_path, capsys):
    f = NcSeries.monomial(2, (1, 2), [[1.0]])
    z1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    z2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    series_path = write(tmp_path, "f.json", encode_series(f))
    point_path = write(tmp_path, "z.json", encode_tuple(MatrixTuple((z1, z2))))
    code, payload = run(capsys, ["eval", "--series", series_path, "--point", point_path])
    assert code == 0
    data = payload["value"]["data"]
    np.testing.assert_allclose(np.array(data, dtype=float), [[1, 0], [0, 0], [0, 0], [0, 0]])


def test_nilp_eval_and_extract(tmp_path, capsys):
    f = NcSeries(1, 1, 1, {(): [[1.0]], (1,): [[2.0]]})
    series_path = write(tmp_path, "f.json", encode_series(f))
    point_path = write(tmp_path, "z.json", encode_tuple(zero_tuple(1, 2)))
    code, payload = run(capsys, ["nilp-eval", "--series", series_path, "--point", point_path])
    assert code == 0

    code, payload = run(capsys, ["extract-coeffs", "--series", series_path, "--max-len", "2"])
    assert code == 0
    words = [term["word"] for term in payload["series"]["terms"]]
    assert [1] in words


def test_extract_keeps_a_coefficient_whose_norm_underflows(tmp_path, capsys):
    f = NcSeries(1, 1, 1, {(): [[1.0]], (1,): [[1e-170]], (1, 1): [[0.5]]})
    series_path = write(tmp_path, "f.json", encode_series(f))
    code, payload = run(capsys, ["extract-coeffs", "--series", series_path, "--max-len", "2"])
    assert code == 0
    terms = {tuple(term["word"]): term for term in payload["series"]["terms"]}
    assert list(terms) == [(), (1,), (1, 1)]
    assert float(np.ravel(terms[(1,)]["coeff"]["data"])[0]) == pytest.approx(1e-170, rel=1e-12, abs=0.0)


def test_check_ncfun_and_kernel(tmp_path, capsys):
    f = NcSeries(2, 1, 1, {(): [[1.0]], (1,): [[0.5]], (2, 1): [[0.25]]})
    series_path = write(tmp_path, "f.json", encode_series(f))
    code, payload = run(capsys, ["check-ncfun", "--series", series_path, "--seed", "3"])
    assert code == 0 and payload["status"] == "ok"

    kernel_path = write(tmp_path, "k.json", encode_kernel(szego_kernel(2, 3)))
    code, payload = run(capsys, ["check-kernel", "--kernel", kernel_path, "--seed", "3"])
    assert code == 0 and payload["passed"]


def test_cp_certify_pass_and_fail(tmp_path, capsys):
    kernel_path = write(tmp_path, "szego.json", encode_kernel(szego_kernel(1, 3)))
    code, payload = run(
        capsys,
        ["cp-certify", "--kernel", kernel_path, "--sampler", "nilpotent", "--seed", "7"],
    )
    assert code == 0
    assert payload["min_eig"] >= -1e-9

    bad = MomentKernel(1, 1, {((), ()): [[-1.0]]}, 0)
    bad_path = write(tmp_path, "bad.json", encode_kernel(bad))
    code, payload = run(
        capsys, ["cp-certify", "--kernel", bad_path, "--sampler", "nilpotent", "--seed", "7"]
    )
    assert code == 3
    assert payload["status"] == "certificate_failed"
    assert "witness_vector" in payload


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, payload = run(capsys, ["eval", "--series", str(path), "--point", str(path)])
    assert code == 2
    assert payload["status"] == "input_error"
    assert "line" in payload["error"]


def test_kolmogorov_subcommand(tmp_path, capsys):
    rng = rng_from_seed(0)
    h = NcSeries(2, 1, 2, {(): complex_gaussian(rng, 1, 2), (1,): complex_gaussian(rng, 1, 2)})
    kernel_path = write(tmp_path, "kol.json", encode_kernel(KolmogorovKernel(AlgebraSpec(), h, s=2)))
    code, payload = run(capsys, ["kolmogorov", "--kernel", kernel_path, "--seed", "1"])
    assert code == 0
    assert payload["rank"] >= 1
    assert payload["gram_error"] <= 1e-8


def test_kernel_from_basis_and_bergman(tmp_path, capsys):
    basis = [NcSeries.constant(1, [[1.0]]), NcSeries.monomial(1, (1,), [[1.0]])]
    model = RkhsModel(AlgebraSpec(), basis, [[2.0, 0.5], [0.5, 1.0]])
    model_path = write(tmp_path, "m.json", encode_model(model))
    code, payload = run(capsys, ["kernel-from-basis", "--model", model_path])
    assert code == 0 and payload["kernel"]["form"] == "gram_basis"

    code, payload = run(capsys, ["bergman", "--model", model_path])
    assert code == 0
    gram = payload["kernel"]["gram"]
    flat = np.array(gram["data"], dtype=float)
    np.testing.assert_allclose(flat[:, 0].reshape(2, 2), np.eye(2), atol=1e-12)


def test_lifted_norm_subcommand(tmp_path, capsys):
    h = NcSeries.constant(1, [[1.0]])
    kernel_path = write(tmp_path, "k.json", encode_kernel(KolmogorovKernel(AlgebraSpec(), h)))
    target = {
        "samples": [
            {
                "point": encode_tuple(zero_tuple(1, 1)),
                "u": encode_matrix(np.array([[1.0]])),
                "value": encode_matrix(np.array([[3.0]])),
            }
        ]
    }
    target_path = write(tmp_path, "t.json", target)
    code, payload = run(capsys, ["lifted-norm", "--kernel", kernel_path, "--target", target_path])
    assert code == 0
    assert payload["norm"] == pytest.approx(3.0)

    # infeasible target: zero factor cannot produce a nonzero value
    zero_h = NcSeries.constant(1, [[0.0]])
    zk_path = write(tmp_path, "zk.json", encode_kernel(KolmogorovKernel(AlgebraSpec(), zero_h)))
    code, payload = run(capsys, ["lifted-norm", "--kernel", zk_path, "--target", target_path])
    assert code == 4
    assert payload["status"] == "infeasible"


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_lifted_norm_of_a_huge_kernel_does_not_underflow(tmp_path, capsys, scale):
    j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    target = {"samples": [{"point": encode_tuple(MatrixTuple((j2,))), "u": encode_matrix(np.ones((2, 1))),
                           "value": encode_matrix(np.array([[1.5], [1.0]]))}]}
    target_path = write(tmp_path, "t.json", target)
    norms = []
    for s in (1.0, scale):
        h = NcSeries(1, 1, 1, {(): [[s]], (1,): [[0.5 * s]]})
        kernel_path = write(tmp_path, "k.json", encode_kernel(KolmogorovKernel(AlgebraSpec(), h)))
        code, payload = run(capsys, ["lifted-norm", "--kernel", kernel_path, "--target", target_path])
        assert code == 0
        norms.append(payload["norm"])
    assert norms[1] == pytest.approx(norms[0] / scale, rel=1e-12, abs=0.0)


def test_multiplier_check_dichotomy(tmp_path, capsys):
    kernel_path = write(tmp_path, "szego.json", encode_kernel(szego_kernel(1, 3)))
    for lam, expected in ((0.5, 0), (2.0, 3)):
        s_path = write(tmp_path, f"s{lam}.json", encode_series(NcSeries.constant(1, [[lam]])))
        code, payload = run(
            capsys,
            [
                "multiplier-check",
                "--source", kernel_path,
                "--target", kernel_path,
                "--s", s_path,
                "--seed", "11",
            ],
        )
        assert code == expected
        if expected == 3:
            assert "witness_vector" in payload


def test_brangesian_subcommand(tmp_path, capsys):
    rng = rng_from_seed(5)
    u, _ = np.linalg.qr(complex_gaussian(rng, 4, 4))
    v, _ = np.linalg.qr(complex_gaussian(rng, 4, 4))
    a = u * np.array([0.9, 0.4, 0.0, 0.0]) @ v.conj().T
    path = write(tmp_path, "a.json", {"a": encode_matrix(a)})
    code, payload = run(capsys, ["brangesian", "--contraction", path, "--seed", "2"])
    assert code == 0
    assert payload["norm_identity_max_violation"] <= 1e-9
    assert payload["min_split_margin"] >= -1e-9

    bad = write(tmp_path, "bad.json", {"a": encode_matrix(2 * np.eye(2))})
    code, payload = run(capsys, ["brangesian", "--contraction", bad, "--seed", "2"])
    assert code == 3


def test_containment_subcommand(tmp_path, capsys):
    szego = szego_kernel(1, 3)
    half = MomentKernel(1, 1, {key: 0.5 * val for key, val in szego.moments.items()}, 3)
    double = MomentKernel(1, 1, {key: 2.0 * val for key, val in szego.moments.items()}, 3)
    k_path = write(tmp_path, "k.json", encode_kernel(szego))
    half_path = write(tmp_path, "half.json", encode_kernel(half))
    double_path = write(tmp_path, "double.json", encode_kernel(double))
    code, _ = run(capsys, ["containment", "--kprime", half_path, "--k", k_path, "--seed", "4"])
    assert code == 0
    code, _ = run(capsys, ["containment", "--kprime", double_path, "--k", k_path, "--seed", "4"])
    assert code == 3


def test_shift_on_szego_is_certified_on_its_exact_domain(tmp_path, capsys):
    # S = z1 is an isometry of H(K) for the Szego table K of max_len 2: K - S K S*
    # is exact at nilpotent points of order <= 3, so size 5 is clamped to 3
    szego = szego_kernel(1, 2)
    k_path = write(tmp_path, "k.json", encode_kernel(szego))
    s_path = write(tmp_path, "s.json", encode_series(NcSeries.monomial(1, (1,), [[1.0]])))
    argv = ["multiplier-check", "--source", k_path, "--target", k_path, "--s", s_path, "--seed", "1"]
    code, payload = run(capsys, argv + ["--sizes", "5"])
    assert code == 0
    assert payload["sample"]["sizes"] == [3, 3, 3, 3]

    # Gaussian points lie outside the exact domain of every kernel built on a moment table
    code, payload = run(capsys, argv + ["--sampler", "gaussian"])
    assert code == 2 and "truncation" in payload["error"]
    assert payload["error"].startswith("the de Branges-Rovnyak kernel is exact only at jointly nilpotent "
                                       "points of order <= 3")
    half = MomentKernel(1, 1, {key: 0.5 * val for key, val in szego.moments.items()}, 2)
    half_path = write(tmp_path, "half.json", encode_kernel(half))
    code, payload = run(capsys, ["containment", "--kprime", half_path, "--k", k_path, "--seed", "1",
                                 "--sampler", "gaussian"])
    assert code == 2 and "truncation" in payload["error"]
    assert payload["error"].startswith("the difference kernel is exact only at jointly nilpotent "
                                       "points of order <= 3")


def test_formal_factor_and_positivity(tmp_path, capsys):
    kernel_path = write(tmp_path, "fk.json", encode_formal_kernel(szego_formal_kernel(1, 2)))
    code, payload = run(capsys, ["formal-factor", "--kernel", kernel_path, "--L", "2"])
    assert code == 0
    assert payload["rank"] == 3

    code, payload = run(capsys, ["formal-positivity", "--kernel", kernel_path, "--L", "2", "--seed", "1"])
    assert code == 0
    assert payload["routes_agree"]

    bad = FormalKernel(1, 1, {((), ()): [[-1.0]]}, 1)
    bad_path = write(tmp_path, "bad.json", encode_formal_kernel(bad))
    code, payload = run(capsys, ["formal-positivity", "--kernel", bad_path, "--L", "1", "--seed", "1"])
    assert code == 3
    assert payload["routes_agree"]


def test_stinespring_cb_norm_effros_ruan(tmp_path, capsys):
    rng = rng_from_seed(6)
    phi = CpMap.from_kraus([complex_gaussian(rng, 2, 2) for _ in range(2)])
    map_path = write(tmp_path, "phi.json", encode_cp_map(phi))

    code, payload = run(capsys, ["stinespring", "--map", map_path])
    assert code == 0
    assert payload["reconstruction_error"] <= 1e-10

    code, payload = run(capsys, ["cb-norm", "--map", map_path, "--seed", "1"])
    assert code == 0
    assert payload["max_amplified_ratio"] <= payload["cb_norm"] + 1e-10

    code, payload = run(capsys, ["effros-ruan", "--map", map_path, "--seed", "1"])
    assert code == 0
    assert payload["lower_bound"] <= payload.get("cb_norm", np.inf) or True

    # non-cp map: stinespring fails with certificate code
    units = {(p, q): np.zeros((2, 2)) for p in range(2) for q in range(2)}
    units[(0, 0)] = np.diag([1.0, -0.1])
    bad_path = write(tmp_path, "bad.json", encode_cp_map(CpMap(2, 2, units)))
    code, payload = run(capsys, ["stinespring", "--map", bad_path])
    assert code == 3
    assert payload["min_eig"] == pytest.approx(-0.1, abs=1e-12)


def test_out_redirect(tmp_path, capsys):
    f = NcSeries.constant(1, [[1.0]])
    series_path = write(tmp_path, "f.json", encode_series(f))
    point_path = write(tmp_path, "z.json", encode_tuple(zero_tuple(1, 1)))
    out_path = tmp_path / "result.json"
    code = main(["eval", "--series", series_path, "--point", point_path, "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""  # payload went to the file
    payload = json.loads(out_path.read_text())
    assert payload["status"] == "ok"


def test_seed_required_for_randomized_commands(tmp_path, capsys):
    kernel_path = write(tmp_path, "k.json", encode_kernel(szego_kernel(1, 2)))
    with pytest.raises(SystemExit):
        main(["cp-certify", "--kernel", kernel_path])


def test_in_process_determinism(tmp_path, capsys):
    kernel_path = write(tmp_path, "szego.json", encode_kernel(szego_kernel(2, 3)))
    outputs = []
    for _ in range(3):
        main(["cp-certify", "--kernel", kernel_path, "--seed", "9"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_payloads_render_arrays_without_encode_matrix(tmp_path, capsys, monkeypatch):
    rng = rng_from_seed(5)
    f = NcSeries(2, 1, 1, {(): [[1.0]], (1,): [[0.5]], (2, 1): [[-0.25]]})
    h = NcSeries(2, 1, 2, {(): complex_gaussian(rng, 1, 2), (1,): complex_gaussian(rng, 1, 2)})
    model = RkhsModel(AlgebraSpec(), [NcSeries.constant(1, [[1.0]]), NcSeries.monomial(1, (1,), [[1.0]])],
                      [[2.0, 0.5], [0.5, 1.0]])
    z = MatrixTuple(tuple(complex_gaussian(rng, 2, 2) for _ in range(2)))
    paths = {
        "f": write(tmp_path, "f.json", encode_series(f)),
        "z": write(tmp_path, "z.json", encode_tuple(z)),
        "nz": write(tmp_path, "nz.json", encode_tuple(zero_tuple(2, 3))),
        "kol": write(tmp_path, "kol.json", encode_kernel(KolmogorovKernel(AlgebraSpec(), h, s=2))),
        "formal": write(tmp_path, "fk.json", encode_formal_kernel(szego_formal_kernel(2, 2))),
        "bad": write(tmp_path, "bad.json", encode_kernel(MomentKernel(1, 1, {((), ()): [[-1.0]]}, 0))),
        "model": write(tmp_path, "m.json", encode_model(model)),
        "map": write(tmp_path, "phi.json", encode_cp_map(CpMap.from_kraus([complex_gaussian(rng, 2, 2)]))),
    }
    commands = [
        ["eval", "--series", "{f}", "--point", "{z}"],
        ["nilp-eval", "--series", "{f}", "--point", "{nz}"],
        ["extract-coeffs", "--series", "{f}", "--max-len", "2"],
        ["kolmogorov", "--kernel", "{kol}", "--seed", "1"],
        ["formal-factor", "--kernel", "{formal}", "--L", "2"],
        ["cp-certify", "--kernel", "{bad}", "--sampler", "nilpotent", "--seed", "7"],
        ["kernel-from-basis", "--model", "{model}"],
        ["bergman", "--model", "{model}"],
        ["stinespring", "--map", "{map}"],
    ]
    commands = [[arg.format(**paths) for arg in argv] for argv in commands]
    before = []
    for argv in commands:
        main(argv)
        before.append(capsys.readouterr().out)
    failed = json.loads(before[5])
    assert failed["status"] == "certificate_failed" and "witness_points" in failed and "witness_vector" in failed

    from ncrkhs import serialize

    def refuse(m):
        raise AssertionError("a CLI payload built a list of [re, im] pairs")

    monkeypatch.setattr(serialize, "encode_matrix", refuse)
    for argv, want in zip(commands, before):
        main(argv)
        assert capsys.readouterr().out == want, argv[0]


def _asymmetric_table(formal: bool) -> dict:
    """d = 1 table [[1, 0.1], [0.1 + 1e-9, 1]]: positive, Hermitian only to 1e-9."""
    entries = {((), ()): 1.0, ((1,), (1,)): 1.0, ((), (1,)): 0.1, ((1,), ()): 0.1 + 1e-9}
    table = {
        "form": "moment", "d": 1, "y_dim": 1, "max_len": 1,
        "moments": [
            {"row_word": list(a), "col_word": list(b), "coeff": encode_matrix(np.array([[c]]))}
            for (a, b), c in entries.items()
        ],
    }
    if formal:
        table["formal"] = True
    return table


def _asymmetric_model() -> dict:
    rng = rng_from_seed(5)
    basis = [NcSeries(2, 1, 1, {w: complex_gaussian(rng, 1, 1)}) for w in [(), (1,), (2, 1)]]
    gram = np.eye(3, dtype=complex)
    gram[0, 1] = 0.1
    gram[1, 0] = 0.1 + 1e-9
    return {
        "algebra": {"kind": "scalar", "k": 1, "r": 1}, "y_dim": 1,
        "basis": [encode_series(f) for f in basis], "gram": encode_matrix(gram),
    }


_POINT_COMMANDS = {
    "cp-certify": ["cp-certify", "--kernel", "{k}"],
    "cp-certify-reduced": ["cp-certify", "--reduced", "--kernel", "{k}"],
    "multiplier-check": ["multiplier-check", "--source", "{k}", "--target", "{k}", "--s", "{s}"],
    "containment": ["containment", "--kprime", "{k}", "--k", "{k}"],
}


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(command + ["--points", points], id=f"{name}-{label}")
        for name, command in _POINT_COMMANDS.items()
        for label, points in (("zero", "0"), ("negative", "-1"))
    ]
    + [
        pytest.param(["cp-certify", "--kernel", "{k}", "--rows", "0"], id="cp-certify-rows-zero"),
        pytest.param(["cp-certify", "--kernel", "{k}", "--rows", "-1"], id="cp-certify-rows-negative"),
        pytest.param(["cp-certify", "--reduced", "--kernel", "{k}", "--rows", "-5"],
                     id="cp-certify-reduced-rows-negative"),
        pytest.param(["check-kernel", "--kernel", "{k}", "--samples", "0"], id="check-kernel-samples-zero"),
        pytest.param(["check-ncfun", "--series", "{s}", "--samples", "0"], id="check-ncfun-samples-zero"),
        pytest.param(["kolmogorov", "--kernel", "{k}", "--points", "0"], id="kolmogorov-zero"),
    ],
)
def test_no_sample_points_is_input_error(tmp_path, capsys, command):
    files = {
        "k": write(tmp_path, "k.json", encode_kernel(szego_kernel(1, 3))),
        "s": write(tmp_path, "s.json", encode_series(NcSeries.constant(1, [[0.5]]))),
    }
    argv = [arg.format(**files) for arg in command] + ["--seed", "1"]
    code, out = run(capsys, argv)
    assert code == 2
    assert out["status"] == "input_error"


@pytest.mark.parametrize("sizes", ["0", "1,-2"])
@pytest.mark.parametrize(
    "command",
    [*_POINT_COMMANDS.values(), ["check-kernel", "--kernel", "{k}"], ["kolmogorov", "--kernel", "{k}"]],
    ids=[*_POINT_COMMANDS, "check-kernel", "kolmogorov"],
)
def test_nonpositive_sizes_are_refused_by_the_library(tmp_path, capsys, command, sizes):
    files = {
        "k": write(tmp_path, "k.json", encode_kernel(szego_kernel(1, 3))),
        "s": write(tmp_path, "s.json", encode_series(NcSeries.constant(1, [[0.5]]))),
    }
    code = main([arg.format(**files) for arg in command] + ["--sizes", sizes, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    given = tuple(int(s) for s in sizes.split(","))
    assert json.loads(captured.out) == {"status": "input_error", "error": f"point sizes must be positive, got {given}"}
    assert captured.err == f"ncrkhs {command[0]}: input_error\n"


# a child's address space: enough to start the tool, far below what the inputs below ask for
CHILD_BYTES = 2 << 30


def run_capped(argv, cwd) -> subprocess.CompletedProcess:
    """The tool run as ``python -m ncrkhs.cli ARGV`` in a child process capped at CHILD_BYTES."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_BYTES, CHILD_BYTES))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "ncrkhs.cli", *argv], preexec_fn=cap, env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def assert_refused(proc, command: str, error: str) -> None:
    """Exit 2 with an input_error payload whose error contains ``error``, and one summary line on stderr."""
    assert proc.returncode == 2, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "input_error" and error in payload["error"]
    assert proc.stderr == f"ncrkhs {command}: input_error\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["extract-coeffs", "--series", "{s}", "--max-len", "13"],
         "16383 words of length <= 13 over 2 letters exceed the limit of 2048"),
        (["formal-factor", "--kernel", "{k}", "--L", "30"],
         "2147483647 words of length <= 30 over 2 letters exceed the limit of 2048"),
        (["formal-positivity", "--kernel", "{k}", "--L", "40", "--seed", "1"],
         "2199023255551 words of length <= 40 over 2 letters exceed the limit of 2048"),
    ],
    ids=["extract-coeffs", "formal-factor", "formal-positivity"],
)
def test_exponential_word_lists_are_refused(tmp_path, argv, error):
    files = {
        "s": write(tmp_path, "s.json", encode_series(NcSeries(2, 1, 1, {(): [[1.0]], (2, 1): [[0.5]]}))),
        "k": write(tmp_path, "k.json", encode_formal_kernel(FormalKernel(2, 1, {((), ()): np.eye(1)}, 40))),
    }
    assert_refused(run_capped([arg.format(**files) for arg in argv], tmp_path), argv[0], error)


def test_formal_positivity_builds_its_shift_at_the_longest_stored_word(tmp_path):
    # one stored moment, a declared max_len of 40: the moment route at L = 1 has 3 words, the shift 1
    path = write(tmp_path, "k.json", encode_formal_kernel(FormalKernel(2, 1, {((), ()): np.eye(1)}, 40)))
    proc = run_capped(["formal-positivity", "--kernel", path, "--L", "1", "--seed", "1"], tmp_path)
    assert proc.returncode == 0, proc.stdout
    payload = json.loads(proc.stdout)
    assert payload["status"] == "ok" and payload["routes_agree"]
    assert payload["moment_route"]["level"] == 1
    assert payload["nilpotent_route"]["sample"]["sizes"] == [2, 3, 2, 1, 1, 1]


# each first allocation is over a pebibyte, which the allocator refuses outright
@pytest.mark.parametrize(
    "argv",
    [
        ["kolmogorov", "--kernel", "{kol}", "--points", "1", "--sizes", "100000000"],
        ["cp-certify", "--kernel", "{kol}", "--points", "1", "--sizes", "100000000"],
        ["check-ncfun", "--series", "{s}", "--samples", "1", "--max-size", "100000000"],
    ],
    ids=["kolmogorov", "cp-certify", "check-ncfun"],
)
def test_a_refused_allocation_is_input_error(tmp_path, argv):
    files = {
        "kol": write(tmp_path, "kol.json", _KOLMOGOROV),
        "s": write(tmp_path, "s.json", encode_series(NcSeries.constant(1, [[0.5]]))),
    }
    proc = run_capped([arg.format(**files) for arg in argv] + ["--seed", "1"], tmp_path)
    assert_refused(proc, argv[0], "Unable to allocate")


_SERIES = {"d": 1, "p": 1, "q": 1, "terms": []}
_POINT = {"d": 1, "n": 1, "coords": [{"rows": 1, "cols": 1, "data": [[0.0, 0.0]]}]}
_MOMENTS = {"form": "moment", "d": 1, "y_dim": 1, "max_len": 1, "moments": []}
_KOLMOGOROV = encode_kernel(KolmogorovKernel(AlgebraSpec(), NcSeries.constant(1, [[1.0]])))


def _series_with_word(word):
    return {**_SERIES, "terms": [{"word": word, "coeff": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}]}


@pytest.mark.parametrize(
    "command, files",
    [
        (["eval", "--series", "{a}", "--point", "{b}"], [{**_SERIES, "terms": [1]}, _POINT]),
        (["eval", "--series", "{a}", "--point", "{b}"], [{**_SERIES, "terms": 3}, _POINT]),
        (["eval", "--series", "{a}", "--point", "{b}"], [_SERIES, {**_POINT, "coords": 2}]),
        (["cp-certify", "--seed", "1", "--kernel", "{a}"], [{**_MOMENTS, "moments": [1]}]),
        (["cp-certify", "--seed", "1", "--kernel", "{a}"], [{**_MOMENTS, "moments": 5}]),
        (["formal-factor", "--L", "1", "--kernel", "{a}"], [{**_MOMENTS, "moments": [1]}]),
        (["kernel-from-basis", "--model", "{a}"], [{"basis": 5, "gram": _POINT["coords"][0]}]),
        (["stinespring", "--map", "{a}"], [{"k": 2, "m": 1, "units": [1, 2]}]),
        (["lifted-norm", "--kernel", "{a}", "--target", "{b}"], ["kolmogorov", {"samples": [1]}]),
        (["lifted-norm", "--kernel", "{a}", "--target", "{b}"], ["kolmogorov", {"samples": 5}]),
        (["eval", "--series", "{a}", "--point", "{b}"], [_SERIES, {**_POINT, "d": "x"}]),
        (["eval", "--series", "{a}", "--point", "{b}"], [_SERIES, {**_POINT, "n": [1]}]),
        (["eval", "--series", "{a}", "--point", "{b}"],
         [_SERIES, {**_POINT, "coords": [{"rows": -1, "cols": -1, "data": [[0.0, 0.0]]}]}]),
        (["kernel-from-basis", "--model", "{a}"], [{"algebra": {"k": "x"}, "basis": []}]),
        (["kernel-from-basis", "--model", "{a}"], [{"algebra": {"r": None}, "basis": []}]),
        (["cp-certify", "--seed", "1", "--kernel", "{a}"], [{**_KOLMOGOROV, "s": "x"}]),
        (["formal-factor", "--L", "1", "--kernel", "{a}"], [None]),
        (["eval", "--series", "{a}", "--point", "{b}"], [_SERIES, {**_POINT, "n": 1.7}]),
        (["eval", "--series", "{a}", "--point", "{b}"],
         [_SERIES, {**_POINT, "coords": [{"rows": 1.9, "cols": 1, "data": [[0.0, 0.0]]}]}]),
        (["eval", "--series", "{a}", "--point", "{b}"], [_series_with_word([1.6]), _POINT]),
        (["eval", "--series", "{a}", "--point", "{b}"],
         [_series_with_word([1.6]), {"d": 1, "n": 1.7, "coords": [{"rows": 1.9, "cols": 1, "data": [[0.5, 0.0]]}]}]),
        (["eval", "--series", "{a}", "--point", "{b}"], [_SERIES, {**_POINT, "d": True}]),
        (["eval", "--series", "{a}", "--point", "{b}"], [_series_with_word([True]), _POINT]),
    ],
    ids=[
        "terms-entry", "terms-array", "coords-array", "moments-entry", "moments-array",
        "formal-moments-entry", "basis-array", "units-row", "samples-entry", "samples-array",
        "point-d-field", "point-n-field", "matrix-negative-rows", "algebra-k-field",
        "algebra-r-field", "kolmogorov-s-field", "formal-null", "point-n-fraction",
        "matrix-rows-fraction", "word-letter-fraction", "all-fractional", "point-d-boolean",
        "word-letter-boolean",
    ],
)
def test_wrong_json_entry_type_is_input_error(tmp_path, capsys, command, files):
    kolmogorov = encode_kernel(KolmogorovKernel(AlgebraSpec(), NcSeries.constant(1, [[1.0]])))
    paths = {
        name: write(tmp_path, f"{name}.json", kolmogorov if payload == "kolmogorov" else payload)
        for name, payload in zip("ab", files)
    }
    code, out = run(capsys, [arg.format(**paths) for arg in command])
    assert code == 2
    assert out["status"] == "input_error"


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["cp-certify", "--seed", "3", "--kernel"], lambda: _asymmetric_table(False)),
        (["formal-factor", "--L", "1", "--kernel"], lambda: _asymmetric_table(True)),
        (["kernel-from-basis", "--model"], _asymmetric_model),
    ],
    ids=["moment-kernel", "formal-kernel", "model"],
)
def test_tol_eq_applies_while_parsing(tmp_path, capsys, argv, payload):
    path = write(tmp_path, "in.json", payload())
    code, out = run(capsys, argv + [path])
    assert code == 2
    assert "Hermitian" in out["error"]
    code, out = run(capsys, argv + [path, "--tol-eq", "1e-6"])
    assert code == 0
    assert out["status"] == "ok"


def _reject_constant(name):
    raise ValueError(f"bare {name} in the payload")


def _point_with_entries(entries):
    """A one-coordinate point file whose square matrix holds the given [re, im] entries as written."""
    n = int(round(len(entries) ** 0.5))
    return {"d": 1, "n": n, "coords": [{"rows": n, "cols": n, "data": entries}]}


# every unit entry is 1e308: phi(1) is finite, but its Choi test and the
# Effros-Ruan products overflow to NaN/Infinity
_OVERFLOWING_MAP = CpMap(1, 2, {(0, 0): np.full((2, 2), 1e308)})


def _gram_basis(gram):
    """Gram-basis fields for the basis 1, z_1 with the given gram matrix."""
    basis = [NcSeries.constant(1, [[1.0]]), NcSeries.monomial(1, (1,), [[1.0]])]
    return {"basis": [encode_series(f) for f in basis], "gram": encode_matrix(np.array(gram))}


def _contraction(a, **grams):
    return {"a": encode_matrix(np.array(a))} | {name: encode_matrix(np.array(g)) for name, g in grams.items()}


def _moment_table(d, max_len, moments):
    return {"form": "moment", "d": d, "y_dim": 1, "max_len": max_len, "moments": [
        {"row_word": list(a), "col_word": list(b), "coeff": encode_matrix(np.array([[c]]))}
        for (a, b), c in moments.items()
    ]}


# finite entries whose norm overflows: a singular gram, which a check with an
# infinite scale passed
_HUGE_GRAM = _gram_basis(np.full((2, 2), 1e308))
_SKEW_GRAM = _gram_basis([[1e200, 1e190], [0.0, 1e200]])
_UNPAIRED_MOMENT = _moment_table(1, 1, {((), ()): 1e200, ((1,), (1,)): 1e200, ((), (1,)): 1e190})


@pytest.mark.parametrize(
    "argv, files",
    [
        (["eval", "--series", "{a}", "--point", "{b}"],
         [NcSeries.monomial(1, (1, 1), [[1.0]]), MatrixTuple((np.full((2, 2), 1e200),))]),
        (["cp-certify", "--seed", "1", "--sampler", "gaussian", "--kernel", "{a}"],
         [KolmogorovKernel(AlgebraSpec(), NcSeries.monomial(1, (1, 1), [[1e200]]))]),
        (["kolmogorov", "--seed", "1", "--kernel", "{a}"],
         [KolmogorovKernel(AlgebraSpec(), NcSeries.monomial(1, (1, 1), [[1e200]]))]),
        (["eval", "--series", "{a}", "--point", "{b}"],
         [NcSeries.constant(1, [[1.0]]), _point_with_entries([[10 ** 400, 0]])]),
        (["eval", "--series", "{a}", "--point", "{b}"],
         [NcSeries.constant(1, [[1.0]]), _point_with_entries([[0.5, 0.0], [0, 0], [1, 0], [0.5, -(10 ** 400)]])]),
        (["cb-norm", "--seed", "1", "--map", "{a}"], [_OVERFLOWING_MAP]),
        (["effros-ruan", "--seed", "1", "--map", "{a}"], [_OVERFLOWING_MAP]),
        (["brangesian", "--seed", "1", "--contraction", "{a}"],
         [_contraction(0.5 * np.eye(2), gram_src=np.diag([1e308, 1e-300]))]),
        (["brangesian", "--seed", "1", "--contraction", "{a}"],
         [_contraction(np.diag([1e300, 0.0]), gram_tgt=np.diag([1e200, 1e200]))]),
        (["kernel-from-basis", "--model", "{a}"], [_HUGE_GRAM]),
        (["cp-certify", "--seed", "1", "--kernel", "{a}"], [{"form": "gram_basis", **_HUGE_GRAM}]),
        (["check-kernel", "--seed", "1", "--kernel", "{a}"],
         [KolmogorovKernel(AlgebraSpec(), NcSeries(1, 1, 1, {(): [[1e300]], (1,): [[1e300]]}))]),
    ],
    ids=["eval", "cp-certify", "kolmogorov", "huge-integer-entry", "huge-integer-among-floats",
         "cb-norm-nan-min-eig", "effros-ruan", "brangesian-gramian-root", "brangesian-normalized-contraction",
         "singular-huge-gram", "cp-certify-huge-gram", "check-kernel-huge-factor"],
)
def test_overflow_is_a_typed_input_error(tmp_path, capsys, argv, files):
    encoders = {NcSeries: encode_series, MatrixTuple: encode_tuple, KolmogorovKernel: encode_kernel,
                CpMap: encode_cp_map, dict: dict}
    paths = {name: write(tmp_path, f"{name}.json", encoders[type(obj)](obj)) for name, obj in zip("ab", files)}
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    out = json.loads(captured.out, parse_constant=_reject_constant)
    assert out["status"] == "input_error"
    assert "overflow" in out["error"]


# finite entries above 1e154, whose squares overflow: the norms are rescaled,
# so each check sees the data and reaches its own verdict
@pytest.mark.parametrize(
    "argv, file, code, error",
    [
        (["kernel-from-basis", "--model", "{a}"], _SKEW_GRAM, 2, "gram matrix must be Hermitian"),
        (["cp-certify", "--seed", "1", "--kernel", "{a}"], _UNPAIRED_MOMENT, 2,
         "moment table is not Hermitian at pair ((), (1,))"),
        (["check-ncfun", "--seed", "1", "--series", "{a}"],
         encode_series(NcSeries(2, 1, 1, {(): [[1e200]], (1,): [[1e200]], (1, 2): [[1e200]]})), 0, None),
        (["kernel-from-basis", "--model", "{a}"], _gram_basis(np.diag([1e160, 1e160])), 0, None),
    ],
    ids=["non-hermitian-huge-gram", "cp-certify-unpaired-moment", "check-ncfun-huge-coefficients",
         "huge-diagonal-gram"],
)
def test_huge_finite_norms_do_not_overflow(tmp_path, capsys, argv, file, code, error):
    path = write(tmp_path, "a.json", file)
    got, payload = run(capsys, [arg.format(a=path) for arg in argv])
    assert got == code
    assert payload.get("error") == error


# one gramian rule (core.pd_eigh): a brangesian gramian gets the outcome of a Gram-basis kernel's gram matrix
_NOT_PSD_TINY = "matrix is not PSD: min eigenvalue 1.000000e-300 below floor 1.000000e-09"


@pytest.mark.parametrize(
    "gram, code, brangesian_error, basis_error",
    [
        ([[1.0, 0.5], [0.0, 1.0]], 2, "gramian gram_src must be Hermitian", "gram matrix must be Hermitian"),
        (np.diag([1.0, 1e-300]), 3, _NOT_PSD_TINY, _NOT_PSD_TINY),
    ],
    ids=["non-hermitian", "below-the-floor"],
)
def test_brangesian_gramians_meet_the_gram_basis_rule(tmp_path, capsys, gram, code, brangesian_error, basis_error):
    contraction = write(tmp_path, "c.json", _contraction(0.5 * np.eye(2), gram_src=gram))
    got, payload = run(capsys, ["brangesian", "--seed", "1", "--contraction", contraction])
    assert (got, payload["error"]) == (code, brangesian_error)
    got, payload = run(capsys, ["kernel-from-basis", "--model", write(tmp_path, "m.json", _gram_basis(gram))])
    assert (got, payload["error"]) == (code, basis_error)


def test_tol_psd_reaches_the_brangesian_gramian_floor(tmp_path, capsys):
    # below a floor of 1e-310 the gramian diag(1, 1e-300) is accepted, and the contraction is tested:
    # 0.5 I normalized by its inverse square root has norm 5e149
    contraction = write(tmp_path, "c.json", _contraction(0.5 * np.eye(2), gram_src=np.diag([1.0, 1e-300])))
    got, payload = run(capsys, ["brangesian", "--seed", "1", "--contraction", contraction, "--tol-psd", "1e-310"])
    assert got == 3 and payload["status"] == "certificate_failed"
    norm = float(re.fullmatch(r"operator norm (\S+) exceeds 1", payload["error"]).group(1))
    assert abs(norm - 5e149) <= 1e-12 * 5e149


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
def test_containment_of_huge_kernels_fails_as_a_certificate(tmp_path, capsys, scale):
    # K' = 2 K, so K - K' = -K is not positive at any scale
    szego = szego_kernel(2, 2)
    paths = [write(tmp_path, f"{t}.json", encode_kernel(MomentKernel(
        2, 1, {key: t * scale * val for key, val in szego.moments.items()}, 2))) for t in (1, 2)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["containment", "--kprime", paths[1], "--k", paths[0], "--seed", "1"])
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1
    assert code == 3 and json.loads(captured.out)["status"] == "certificate_failed"
    # the overflowing plain norm is replaced without a warning: stderr holds the summary alone
    assert [str(w.message) for w in caught] == []
    assert captured.err == "ncrkhs containment: certificate_failed\n"


def _scaled_formal_szego(scale):
    szego = szego_formal_kernel(2, 2)
    return encode_formal_kernel(MomentKernel(2, 1, {key: scale * val for key, val in szego.moments.items()}, 2))


@pytest.mark.parametrize(
    "argv, file",
    [(["formal-factor", "--kernel", "{a}", "--L", "2"], _scaled_formal_szego(1e160)),
     (["formal-factor", "--kernel", "{a}", "--L", "2"], _scaled_formal_szego(1e200)),
     (["stinespring", "--map", "{a}"], encode_cp_map(CpMap.from_kraus([np.array([[1, 0.5], [0, 1]]) * 1e80])))],
    ids=["formal-factor-1e160", "formal-factor-1e200", "stinespring-1e80"],
)
def test_huge_blockwise_reconstruction_norms_do_not_overflow(tmp_path, capsys, argv, file):
    path = write(tmp_path, "a.json", file)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([arg.format(a=path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["reconstruction_error"] <= 1e-12
    assert [str(w.message) for w in caught] == []
    assert captured.err == f"ncrkhs {argv[0]}: ok\n"


@pytest.mark.parametrize(
    "error",
    [NotCp(float("nan")), NotPsd(float("-inf"), 1e-9), Infeasible(float("nan"))],
    ids=["not-cp", "not-psd", "infeasible"],
)
def test_non_finite_error_field_is_an_input_error(error):
    def handler(args, tol):
        raise error

    args = argparse.Namespace(handler=handler, tol_eq=1e-10, tol_psd=1e-9)
    text, status, code = cli._outcome(args)
    assert (status, code) == ("input_error", 2)
    out = json.loads(text, parse_constant=_reject_constant)
    assert out["status"] == "input_error"
    assert "overflow" in out["error"]


def _error_classes(cls=NcrkhsError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


@pytest.mark.parametrize("error_class", sorted(set(_error_classes()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_library_error_maps_to_its_status(error_class):
    if error_class.__init__ is Exception.__init__:
        error = error_class("boom")
    else:  # fill the numeric fields (min_eig, residual, ...) an error carries
        params = list(inspect.signature(error_class.__init__).parameters.values())[1:]
        error = error_class(*[0.5 for p in params if p.default is p.empty])

    def handler(args, tol):
        raise error

    args = argparse.Namespace(handler=handler, tol_eq=1e-10, tol_psd=1e-9)
    text, status, code = cli._outcome(args)
    if error_class in (NotCp, NotPsd, NotContraction):
        expected = ("certificate_failed", 3)
    elif error_class is Infeasible:
        expected = ("infeasible", 4)
    else:
        expected = ("input_error", 2)
    assert (status, code) == expected
    out = json.loads(text)
    assert out["status"] == status
    assert out["error"] == str(error)


def test_shared_parser_leaks_no_state(tmp_path, capsys, monkeypatch):
    kernel_path = write(tmp_path, "szego.json", encode_kernel(szego_kernel(2, 2)))
    series_path = write(tmp_path, "f.json", encode_series(NcSeries.monomial(1, (1,), [[2.0]])))
    point_path = write(tmp_path, "z.json", encode_tuple(MatrixTuple((np.array([[0.0, 1.0], [0.0, 0.0]]),))))
    out_path = tmp_path / "value.json"
    namespaces, built = [], []
    outcome, build = cli._outcome, cli.build_parser

    def recording_outcome(args):
        namespaces.append(vars(args).copy())
        return outcome(args)

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_outcome", recording_outcome)
    monkeypatch.setattr(cli, "build_parser", counting_build)

    certify = ["cp-certify", "--kernel", kernel_path, "--seed", "5", "--rows", "3", "--sampler", "nilpotent"]
    assert main(certify) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as rejected:
        main(["eval", "--series", series_path, "--point", point_path, "--rows", "3"])
    assert rejected.value.code == 2
    capsys.readouterr()
    assert main(["eval", "--series", series_path, "--point", point_path, "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out_path.read_text())["status"] == "ok"
    assert main(certify) == 0
    assert capsys.readouterr().out == first

    # the rejected argv reaches no handler; the parser is built at most once
    assert [ns["command"] for ns in namespaces] == ["cp-certify", "eval", "cp-certify"]
    assert len(built) <= 1
    assert cli._parser() is cli._parser()
    first_certify, evaluation, second_certify = namespaces
    assert not {"rows", "sampler", "points", "sizes", "reduced", "kernel"} & evaluation.keys()
    assert evaluation["out"] == str(out_path)
    assert second_certify["out"] is None
    assert not {"series", "point"} & second_certify.keys()
    assert first_certify == second_certify


# The option surface of every subcommand: (option strings, dest, type, default,
# required, choices), with type "flag" for an option that takes no value.
_TOL_OUT = [
    (("--tol-eq",), "tol_eq", float, 1e-10, False, None),
    (("--tol-psd",), "tol_psd", float, 1e-09, False, None),
    (("--out",), "out", None, None, False, None),
]
_SEED = [(("--seed",), "seed", int, None, True, None)]
_SAMPLERS = ["auto", "nilpotent", "gaussian"]
_SAMPLING = [
    (("--points",), "points", int, 4, False, None),
    (("--sizes",), "sizes", None, "1,2,3", False, None),
    (("--rows",), "rows", int, 2, False, None),
    (("--sampler",), "sampler", None, "auto", False, _SAMPLERS),
]
_OPTION_SURFACE = {
    "eval": [
        (("--series",), "series", None, None, True, None),
        (("--point",), "point", None, None, True, None),
        *_TOL_OUT,
    ],
    "nilp-eval": [
        (("--series",), "series", None, None, True, None),
        (("--point",), "point", None, None, True, None),
        *_TOL_OUT,
    ],
    "extract-coeffs": [
        (("--series",), "series", None, None, True, None),
        (("--max-len",), "max_len", int, 3, False, None),
        *_TOL_OUT,
    ],
    "check-ncfun": [
        (("--series",), "series", None, None, True, None),
        (("--samples",), "samples", int, 5, False, None),
        (("--max-size",), "max_size", int, 3, False, None),
        (("--sampler",), "sampler", None, "gaussian", False, ["nilpotent", "gaussian"]),
        *_TOL_OUT, *_SEED,
    ],
    "check-kernel": [
        (("--kernel",), "kernel", None, None, True, None),
        (("--samples",), "samples", int, 3, False, None),
        (("--sizes",), "sizes", None, "2,3", False, None),
        (("--sampler",), "sampler", None, "auto", False, _SAMPLERS),
        *_TOL_OUT, *_SEED,
    ],
    "cp-certify": [
        (("--kernel",), "kernel", None, None, True, None),
        (("--reduced",), "reduced", "flag", False, False, None),
        *_SAMPLING, *_TOL_OUT, *_SEED,
    ],
    "kolmogorov": [
        (("--kernel",), "kernel", None, None, True, None),
        (("--points",), "points", int, 2, False, None),
        (("--sizes",), "sizes", None, "2,3", False, None),
        *_TOL_OUT, *_SEED,
    ],
    "kernel-from-basis": [(("--model",), "model", None, None, True, None), *_TOL_OUT],
    "bergman": [(("--model",), "model", None, None, True, None), *_TOL_OUT],
    "lifted-norm": [
        (("--kernel",), "kernel", None, None, True, None),
        (("--target",), "target", None, None, True, None),
        *_TOL_OUT,
    ],
    "multiplier-check": [
        (("--source",), "source", None, None, True, None),
        (("--target",), "target", None, None, True, None),
        (("--s",), "s", None, None, True, None),
        *_SAMPLING, *_TOL_OUT, *_SEED,
    ],
    "brangesian": [
        (("--contraction",), "contraction", None, None, True, None),
        (("--vectors",), "vectors", int, 20, False, None),
        (("--splits",), "splits", int, 50, False, None),
        *_TOL_OUT, *_SEED,
    ],
    "containment": [
        (("--kprime",), "kprime", None, None, True, None),
        (("--k",), "k", None, None, True, None),
        *_SAMPLING, *_TOL_OUT, *_SEED,
    ],
    "formal-factor": [
        (("--kernel",), "kernel", None, None, True, None),
        (("--L",), "level", int, None, True, None),
        *_TOL_OUT,
    ],
    "formal-positivity": [
        (("--kernel",), "kernel", None, None, True, None),
        (("--L",), "level", int, None, True, None),
        *_TOL_OUT, *_SEED,
    ],
    "stinespring": [(("--map",), "map", None, None, True, None), *_TOL_OUT],
    "cb-norm": [
        (("--map",), "map", None, None, True, None),
        (("--samples",), "samples", int, 10, False, None),
        *_TOL_OUT, *_SEED,
    ],
    "effros-ruan": [
        (("--map",), "map", None, None, True, None),
        (("--samples",), "samples", int, 30, False, None),
        *_TOL_OUT, *_SEED,
    ],
}


def test_subcommand_options_are_pinned():
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(subs.choices) == sorted(_OPTION_SURFACE)
    for name, sub in subs.choices.items():
        got = sorted(
            (tuple(a.option_strings), a.dest, "flag" if a.nargs == 0 else a.type, a.default, a.required, a.choices)
            for a in sub._actions if not isinstance(a, argparse._HelpAction)
        )
        assert got == sorted(_OPTION_SURFACE[name]), name
