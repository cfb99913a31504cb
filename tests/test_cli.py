import json

import numpy as np
import pytest

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
from ncrkhs.core import MatrixTuple, zero_tuple


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


@pytest.mark.parametrize(
    "argv, files",
    [
        (["eval", "--series", "{a}", "--point", "{b}"],
         [NcSeries.monomial(1, (1, 1), [[1.0]]), MatrixTuple((np.full((2, 2), 1e200),))]),
        (["cp-certify", "--seed", "1", "--sampler", "gaussian", "--kernel", "{a}"],
         [KolmogorovKernel(AlgebraSpec(), NcSeries.monomial(1, (1, 1), [[1e200]]))]),
        (["kolmogorov", "--seed", "1", "--kernel", "{a}"],
         [KolmogorovKernel(AlgebraSpec(), NcSeries.monomial(1, (1, 1), [[1e200]]))]),
    ],
    ids=["eval", "cp-certify", "kolmogorov"],
)
def test_overflow_is_a_typed_input_error(tmp_path, capsys, argv, files):
    encoders = {NcSeries: encode_series, MatrixTuple: encode_tuple, KolmogorovKernel: encode_kernel}
    paths = {name: write(tmp_path, f"{name}.json", encoders[type(obj)](obj)) for name, obj in zip("ab", files)}
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    out = json.loads(captured.out, parse_constant=_reject_constant)
    assert out["status"] == "input_error"
    assert "overflow" in out["error"]
