import numpy as np
import pytest

from ncrkhs.core import InputError, MatrixTuple, as_cmatrix, word_key
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


@pytest.mark.parametrize("value", ["x", None, [1], float("inf"), float("nan"), 1.7, -0.5, True, False, "2"])
def test_non_integer_fields_and_letters_raise_input_error(value):
    with pytest.raises(InputError):
        decode_int({"k": value}, "k", "obj")
    with pytest.raises(InputError):
        decode_word([value], 2)
    assert decode_int({}, "k", "obj", 3) == 3
    assert decode_int({"k": 2.0}, "k", "obj") == 2
    assert decode_word([2.0, 1], 2) == (2, 1)
    with pytest.raises(InputError):
        decode_int({}, "k", "obj")


# ---------------------------------------------------------------------------
# decoding against a per-entry reference
# ---------------------------------------------------------------------------

def _reference_complex(entry, where):
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise InputError(f"{where}: complex scalar must be a two-element [re, im] array")
    try:
        return complex(float(entry[0]), float(entry[1]))
    except OverflowError as exc:
        raise InputError(f"{where}: complex scalar overflows double precision") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: non-numeric complex scalar") from exc


def _reference_matrix(data, where="matrix"):
    """One [re, im] pair at a time, then one finiteness check; rows, cols and length are valid here."""
    values = [_reference_complex(e, where) for e in data["data"]]
    return as_cmatrix(np.array(values, dtype=np.complex128).reshape(data["rows"], data["cols"]))


def _reference_series(data, where="series"):
    terms = {}
    for i, item in enumerate(data["terms"]):
        coeff = _reference_matrix(item["coeff"], f"{where}.terms[{i}].coeff")
        terms[tuple(item["word"])] = as_cmatrix(coeff, data["p"], data["q"])
    return dict(sorted(terms.items(), key=lambda kv: word_key(kv[0])))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the comparison covers the exception type and message
        return exc


def _same(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    if isinstance(want, dict):
        return (isinstance(got, dict) and list(got) == list(want)
                and all(_same(got[w], want[w]) for w in want))
    return (isinstance(got, np.ndarray) and got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


_ENTRIES = {
    "ints": (2, 2, [[1, 2], [3, -4], [0, 0], [-7, 9]]),
    "floats": (2, 1, [[0.5, -0.25], [1e-300, -0.0]]),
    "mixed": (1, 3, [[1, 0.5], [2.0, -3], [-0.0, 4]]),
    "booleans": (1, 2, [[True, False], [1.5, True]]),
    "all-booleans": (1, 1, [[True, False]]),
    "numeric-strings": (1, 2, [["1.5", "0"], [" 2 ", "-1e3"]]),
    "strings-and-numbers": (1, 2, [["1.5", 2], [0.25, "1_0"]]),
    "none": (1, 2, [[0.5, 0], [None, 1]]),
    "three-element": (1, 2, [[1, 2, 3], [4, 5, 6]]),
    "one-three-element": (1, 2, [[1, 2], [4, 5, 6]]),
    "ragged": (1, 2, [[1, 2], [3]]),
    "not-a-pair": (1, 2, [[1, 2], 3]),
    "nested": (1, 1, [[[1], [2]]]),
    "nan": (1, 2, [[0.5, 0], [float("nan"), 1]]),
    "infinity": (1, 2, [[float("inf"), 0], [0.5, 1]]),
    "nan-string": (1, 1, [["nan", 0]]),
    "huge-float-string": (1, 1, [["1e400", 0]]),
    "two-to-the-70": (1, 2, [[2 ** 70, 1], [0.5, -(2 ** 70) - 1]]),
    "two-to-the-70-alone": (1, 1, [[2 ** 70, 0]]),
    "beyond-int64": (1, 3, [[2 ** 63 + 1, 0], [2 ** 64 - 1, 1], [-(2 ** 63) - 3, 0]]),
    "int-rounding": (1, 2, [[2 ** 53 + 1, 2 ** 62 + 2 ** 9 + 1], [0.5, 2 ** 62 + 3 * 2 ** 9]]),
    "400-digits": (1, 1, [[10 ** 400 - 1, 0]]),
    "400-digits-among-floats": (1, 2, [[0.5, 0.25], [1, -(10 ** 400)]]),
    "0-by-k": (0, 3, []),
    "k-by-0": (3, 0, []),
}


@pytest.mark.parametrize("rows, cols, entries", _ENTRIES.values(), ids=_ENTRIES.keys())
def test_decode_matrix_matches_per_entry_reference(rows, cols, entries):
    data = {"rows": rows, "cols": cols, "data": entries}
    got, want = _outcome(decode_matrix, data, "m"), _outcome(_reference_matrix, data, "m")
    assert _same(got, want), (got, want)


def _series_payload(p, q, coeffs):
    """A d = 2 series whose terms are written out of graded-lex order."""
    words = [[2, 1], [1], [], [2], [1, 1, 2]]
    return {"d": 2, "p": p, "q": q,
            "terms": [{"word": w, "coeff": c} for w, c in zip(words, coeffs)]}


def _matrix_payload(rows, cols, rng):
    values = complex_gaussian(rng, rows, cols)
    return {"rows": rows, "cols": cols, "data": [[z.real, z.imag] for z in values.reshape(-1)]}


@pytest.mark.parametrize("rows, cols, entries", _ENTRIES.values(), ids=_ENTRIES.keys())
def test_decode_series_matches_per_entry_reference(rows, cols, entries):
    rng = rng_from_seed(8)
    p, q = max(rows, 1), max(cols, 1)
    bad = {"rows": rows, "cols": cols, "data": entries}
    cases = [
        # the entries under test as the third of four coefficients
        (p, q, [_matrix_payload(p, q, rng), _matrix_payload(p, q, rng), bad, _matrix_payload(p, q, rng)]),
        # and as a coefficient whose shape is the transpose of (p, q)
        (cols, rows, [bad, _matrix_payload(cols, rows, rng)]),
    ]
    for p_, q_, coeffs in cases:
        if min(p_, q_) < 1:
            continue
        data = _series_payload(p_, q_, coeffs)
        got, want = _outcome(decode_series, data), _outcome(_reference_series, data)
        assert _same(got.terms if isinstance(got, NcSeries) else got, want), (got, want)
        if isinstance(got, NcSeries):
            assert all(not c.flags.writeable for c in got.terms.values())


def test_decode_series_transposed_coefficient():
    rng = rng_from_seed(9)
    data = _series_payload(2, 3, [_matrix_payload(2, 3, rng), _matrix_payload(3, 2, rng)])
    got, want = _outcome(decode_series, data), _outcome(_reference_series, data)
    assert isinstance(want, Exception) and _same(got, want)

    data = _series_payload(2, 3, [_matrix_payload(2, 3, rng) for _ in range(5)])
    got = decode_series(data)
    assert _same(got.terms, _reference_series(data))
    assert all(not c.flags.writeable for c in got.terms.values())
