import numpy as np
import pytest

from ncrkhs.core import InputError, MatrixTuple
from ncrkhs.cpmaps import CpMap
from ncrkhs.kernels import AlgebraSpec, GramBasisKernel, KolmogorovKernel, szego_kernel
from ncrkhs.kernels import szego_kernel as szego_formal_kernel
from ncrkhs.rkhs import RkhsModel
from ncrkhs.sampling import complex_gaussian, rng_from_seed
from ncrkhs.serialize import (
    decode_cp_map,
    decode_int,
    decode_formal_kernel,
    decode_kernel,
    decode_matrix,
    decode_model,
    decode_series,
    decode_tuple,
    decode_word,
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


def test_matrix_round_trip():
    rng = rng_from_seed(0)
    m = complex_gaussian(rng, 3, 2)
    np.testing.assert_allclose(decode_matrix(encode_matrix(m)), m)


def test_matrix_rejects_bad_payloads():
    with pytest.raises(InputError):
        decode_matrix({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(InputError):
        decode_matrix({"rows": 1, "cols": 1, "data": [["x", 0]]})


def test_tuple_round_trip_and_validation():
    rng = rng_from_seed(1)
    z = MatrixTuple(tuple(complex_gaussian(rng, 2, 2) for _ in range(3)))
    back = decode_tuple(encode_tuple(z))
    for a, b in zip(z.coords, back.coords):
        np.testing.assert_allclose(a, b)
    bad = encode_tuple(z)
    bad["d"] = 5
    with pytest.raises(InputError):
        decode_tuple(bad)


def test_series_round_trip_and_duplicate_words():
    rng = rng_from_seed(2)
    f = NcSeries(2, 2, 1, {(): complex_gaussian(rng, 2, 1), (1, 2): complex_gaussian(rng, 2, 1)})
    back = decode_series(encode_series(f))
    for w in f.support:
        np.testing.assert_allclose(back.coefficient(w), f.coefficient(w))

    payload = encode_series(f)
    payload["terms"].append(payload["terms"][0])
    with pytest.raises(InputError):
        decode_series(payload)


def test_kernel_round_trips_all_forms():
    rng = rng_from_seed(3)
    szego = szego_kernel(2, 2)
    back = decode_kernel(encode_kernel(szego))
    assert back.moments.keys() == szego.moments.keys()

    h = NcSeries(2, 2, 3, {(): complex_gaussian(rng, 2, 3)})
    kol = KolmogorovKernel(AlgebraSpec(), h, s=3)
    back = decode_kernel(encode_kernel(kol))
    assert back.s == 3 and back.y_dim == 2

    basis = [NcSeries.constant(2, [[1.0]]), NcSeries.monomial(2, (1,), [[1.0]])]
    gb = GramBasisKernel(AlgebraSpec(), basis, np.eye(2))
    back = decode_kernel(encode_kernel(gb))
    assert len(back.basis) == 2


def _without_form(payload):
    return {key: value for key, value in payload.items() if key != "form"}


@pytest.mark.parametrize(
    "decode, strip",
    [(decode_formal_kernel, dict), (decode_kernel, dict), (decode_formal_kernel, _without_form)],
    ids=["formal-file", "formal-file-as-kernel", "no-form-field"],
)
def test_formal_kernel_round_trip_marks_formal(decode, strip):
    kernel = szego_formal_kernel(2, 2)
    payload = encode_formal_kernel(kernel)
    assert payload["formal"] is True
    back = decode(strip(payload))
    assert back.moments.keys() == kernel.moments.keys()


def test_model_round_trip():
    basis = [NcSeries.constant(1, [[1.0]]), NcSeries.monomial(1, (1,), [[1.0]])]
    model = RkhsModel(AlgebraSpec(), basis, np.eye(2))
    back = decode_model(encode_model(model))
    assert back.n_basis == 2


def test_cp_map_round_trip():
    rng = rng_from_seed(4)
    phi = CpMap.from_kraus([complex_gaussian(rng, 2, 2)])
    back = decode_cp_map(encode_cp_map(phi))
    for key in phi.unit_values:
        np.testing.assert_allclose(back.unit_values[key], phi.unit_values[key])


def test_dumps_canonical_floats():
    assert dumps_canonical({"a": 1.0, "b": [0.0, -0.0]}) == '{"a":1,"b":[0,0]}'
    assert dumps_canonical(1 / 3) == "0.33333333333333331"
    assert dumps_canonical({"z": True, "a": None}) == '{"z":true,"a":null}'


@pytest.mark.parametrize("value", ["x", None, [1], float("inf"), float("nan")])
def test_non_integer_fields_and_letters_raise_input_error(value):
    with pytest.raises(InputError):
        decode_int({"k": value}, "k", "obj")
    with pytest.raises(InputError):
        decode_word([value], 2)
    assert decode_int({}, "k", "obj", 3) == 3
    with pytest.raises(InputError):
        decode_int({}, "k", "obj")
