import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncrkhs import serialize
from ncrkhs.core import InputError, MatrixTuple, as_cmatrix, word_key
from ncrkhs.cpmaps import CpMap
from ncrkhs.kernels import AlgebraSpec, GramBasisKernel, KolmogorovKernel, MomentKernel, szego_kernel
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
    decode_objects,
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
    assert dumps_canonical({"50%": "%s %.17g %%", "x": 0.5}) == '{"50%":"%s %.17g %%","x":0.5}'
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


# ---------------------------------------------------------------------------
# words and moment tables against the per-entry walk
# ---------------------------------------------------------------------------

def _walk_series(data, where="series"):
    """Word by word and matrix by matrix, as every series was decoded before tables were batched."""
    terms = {}
    for i, item in enumerate(data["terms"]):
        word = decode_word(item.get("word"), data["d"], f"{where}.terms[{i}].word")
        if word in terms:
            raise InputError(f"{where}.terms[{i}]: duplicate word {list(word)}")
        terms[word] = decode_matrix(item.get("coeff"), f"{where}.terms[{i}].coeff")
    return NcSeries(data["d"], data["p"], data["q"], terms)


def _walk_moments(data, where="kernel"):
    """Pair by pair, as every moment table was decoded before tables were batched."""
    moments = {}
    for i, item in enumerate(data["moments"]):
        at = f"{where}.moments[{i}]"
        wa = decode_word(item.get("row_word"), data["d"], f"{at}.row_word")
        wb = decode_word(item.get("col_word"), data["d"], f"{at}.col_word")
        if (wa, wb) in moments:
            raise InputError(f"{at}: duplicate moment pair")
        moments[(wa, wb)] = decode_matrix(item.get("coeff"), f"{at}.coeff")
    return MomentKernel(data["d"], data["y_dim"], moments, data["max_len"])


def _moments_of(kernel):
    return {"moments": kernel.moments, "middle": kernel.middle} if isinstance(kernel, MomentKernel) else kernel


def _moment_payload(y, coeffs, words=None):
    """A d = 2, max_len = 2 table: a diagonal with one off-diagonal pair, out of graded-lex order."""
    words = words or [([1, 2], [1, 2]), ([1], []), ([], []), ([], [1]), ([2], [2])]
    return {"form": "moment", "d": 2, "y_dim": y, "max_len": 2, "moments": [
        {"row_word": a, "col_word": b, "coeff": c} for (a, b), c in zip(words, coeffs)]}


def _scalar(value):
    return {"rows": 1, "cols": 1, "data": [[value, 0.0]]}


@pytest.mark.parametrize("rows, cols, entries", _ENTRIES.values(), ids=_ENTRIES.keys())
def test_decode_moments_match_per_entry_reference(rows, cols, entries):
    rng = rng_from_seed(10)
    y = max(rows, 1)
    eye = {"rows": y, "cols": y, "data": [[float(i % (y + 1) == 0), 0.0] for i in range(y * y)]}
    bad = {"rows": rows, "cols": cols, "data": entries}
    # the entries under test on the diagonal, and as one half of the off-diagonal pair
    for coeffs in ([eye, _matrix_payload(y, y, rng), eye, _matrix_payload(y, y, rng), bad],
                   [eye, bad, eye, bad, eye]):
        data = _moment_payload(y, coeffs)
        got, want = _outcome(decode_kernel, data), _outcome(_walk_moments, data)
        assert _same(_moments_of(got), _moments_of(want)), (got, want)


_ONE = _scalar(1.0)
_WORD_FAULTS = {
    "valid": [([1, 2], [1, 2]), ([1], [1]), ([], []), ([2], []), ([], [2])],
    "float-letters": [([1.0, 2], [1, 2.0]), ([1], [1.0]), ([], []), ([2], []), ([], [2.0])],
    "bool-letter": [([1, 2], [1, 2]), ([True], [1]), ([], []), ([2], []), ([], [2])],
    "letter-out-of-range": [([1, 2], [1, 2]), ([1], [1]), ([], []), ([3], []), ([], [3])],
    "zero-letter": [([1, 0], [1, 0]), ([1], [1]), ([], []), ([2], []), ([], [2])],
    "string-word": [([1, 2], [1, 2]), ("1", [1]), ([], []), ([2], []), ([], [2])],
    "none-word": [([1, 2], [1, 2]), ([1], None), ([], []), ([2], []), ([], [2])],
    "nested-letter": [([1, 2], [1, 2]), ([[1]], [[1]]), ([], []), ([2], []), ([], [2])],
    "duplicate-pair": [([1, 2], [1, 2]), ([1], [1]), ([], []), ([1], [1]), ([], [2])],
    "duplicate-by-float": [([1, 2], [1, 2]), ([1], [1]), ([], []), ([1.0], [1]), ([], [2])],
    "too-long": [([1, 2, 1], [1, 2, 1]), ([1], [1]), ([], []), ([2], []), ([], [2])],
    "too-long-and-bad-letter": [([1, 2, 1], [1, 2, 1]), ([1], [1]), ([], []), ([2], []), ([], [5])],
    "not-hermitian": [([1, 2], [1, 2]), ([1], [1]), ([], []), ([2], []), ([], [1])],
}


@pytest.mark.parametrize("words", _WORD_FAULTS.values(), ids=_WORD_FAULTS.keys())
def test_decode_moment_words_match_per_entry_reference(words):
    data = _moment_payload(1, [_ONE] * 5, words)
    got, want = _outcome(decode_kernel, data), _outcome(_walk_moments, data)
    assert _same(_moments_of(got), _moments_of(want)), (got, want)
    # the same words as a series, each row word a term
    series = {"d": 2, "p": 1, "q": 1, "terms": [{"word": a, "coeff": _ONE} for a, _ in words]}
    got, want = _outcome(decode_series, series), _outcome(_walk_series, series)
    assert _same(got.terms if isinstance(got, NcSeries) else got,
                 want.terms if isinstance(want, NcSeries) else want), (got, want)


_TABLE_FAULTS = {
    "wrong-rows": lambda c: c[1].update(rows=2, data=[[1, 0], [0, 0]]),
    "wrong-cols": lambda c: c[1].update(cols=2, data=[[1, 0], [0, 0]]),
    "bool-rows": lambda c: c[1].update(rows=True),
    "float-cols": lambda c: c[1].update(cols=1.0),
    "missing-data": lambda c: c[1].pop("data"),
    "tuple-data": lambda c: c[1].update(data=([1.0, 0.0],)),
    "ragged-data": lambda c: c[1].update(data=[[1.0]]),
    "nan": lambda c: c[1].update(data=[[float("nan"), 0.0]]),
    "infinity": lambda c: c[2].update(data=[[1.0, float("-inf")]]),
    "string": lambda c: c[1].update(data=[["1", 0.0]]),
    "huge-integer": lambda c: c[1].update(data=[[10 ** 400, 0]]),
    "coeff-not-object": lambda c: c.__setitem__(1, [[1.0, 0.0]]),
}


@pytest.mark.parametrize("fault", _TABLE_FAULTS.values(), ids=_TABLE_FAULTS.keys())
def test_decode_table_faults_match_per_entry_reference(fault):
    coeffs = [_scalar(1.0) for _ in range(5)]
    fault(coeffs)
    data = _moment_payload(1, coeffs, _WORD_FAULTS["valid"])
    got, want = _outcome(decode_kernel, data), _outcome(_walk_moments, data)
    assert _same(_moments_of(got), _moments_of(want)), (got, want)
    series = {"d": 2, "p": 1, "q": 1, "terms": [{"word": list(w), "coeff": c}
                                                 for w, c in zip(([1, 2], [1], [], [2], [2, 2]), coeffs)]}
    got, want = _outcome(decode_series, series), _outcome(_walk_series, series)
    assert _same(got.terms if isinstance(got, NcSeries) else got,
                 want.terms if isinstance(want, NcSeries) else want), (got, want)


@pytest.mark.parametrize("entries", [None, {}, [1], [{"row_word": [], "col_word": [], "coeff": _ONE}, 3]])
def test_decode_moment_table_not_an_array_of_objects(entries):
    data = {"form": "moment", "d": 1, "y_dim": 1, "max_len": 1, "moments": entries}
    got = _outcome(decode_kernel, data)
    want = _outcome(lambda: (decode_objects(data["moments"], "kernel.moments"), _walk_moments(data)))
    assert isinstance(want, Exception) and _same(got, want), (got, want)


# ---------------------------------------------------------------------------
# encoding against the entry-by-entry codec
# ---------------------------------------------------------------------------

def _entrywise_render_float(x):
    if x == 0.0:
        return "0"
    if not math.isfinite(x):
        raise InputError(f"cannot encode the non-finite number {x} (the computation overflowed)")
    return format(float(x), ".17g")


def _entrywise_dumps(obj):
    """The canonical dumper as it was before lists of pairs were rendered in one call."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _entrywise_render_float(float(obj))
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_entrywise_dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_entrywise_dumps(v) for v in obj) + "]"
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def _entrywise_encode_matrix(m):
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": [[complex(z).real, complex(z).imag] for z in m.reshape(-1)]}


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e17, 2.0 ** 53, 0.1, 1 / 3,
                1.7976931348623157e308, -1.7976931348623157e308]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_ANY_FLOATS = st.one_of(_FLOATS, st.sampled_from([math.nan, math.inf, -math.inf]))
_PAIRS = st.lists(st.lists(_ANY_FLOATS, min_size=2, max_size=2), max_size=12)
_LEAVES = st.one_of(_ANY_FLOATS, st.integers(), st.booleans(), _FLOATS.map(np.float64), st.none(),
                    st.text(alphabet="%sd.1\"\\", max_size=4))
_MIXED = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.tuples(inner, inner), st.lists(st.tuples(_FLOATS, _FLOATS), max_size=3),
    st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=20)


def _same_text(got, want):
    return _same(got, want) if isinstance(want, Exception) else got == want


@settings(max_examples=300)
@given(st.one_of(_PAIRS, _MIXED))
def test_dumps_canonical_matches_entrywise_dumper(obj):
    got, want = _outcome(dumps_canonical, obj), _outcome(_entrywise_dumps, obj)
    assert _same_text(got, want), (got, want)


@pytest.mark.parametrize("obj, text", [
    ([[-0.0, 0.0], [5e-324, -1.7976931348623157e308]],
     "[[0,0],[4.9406564584124654e-324,-1.7976931348623157e+308]]"),
    ([[1e16, 1.0], [0.5, 2.0]], "[[10000000000000000,1],[0.5,2]]"),
    ([[1.0, 2]], "[[1,2]]"),
    ([[True, 0.5]], "[[true,0.5]]"),
    ([(0.5, 1.0)], "[[0.5,1]]"),
    ([[np.float64(-0.0), 1.0]], "[[0,1]]"),
])
def test_dumps_canonical_pairs(obj, text):
    assert dumps_canonical(obj) == text == _entrywise_dumps(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dumps_canonical_non_finite_pair_raises_the_same_error(bad):
    obj = {"data": [[0.5, 1.0], [1.0, bad]]}
    with pytest.raises(InputError) as got:
        dumps_canonical(obj)
    with pytest.raises(InputError) as want:
        _entrywise_dumps(obj)
    assert str(got.value) == str(want.value)


def _bits(data):
    assert all(type(x) is float for pair in data for x in pair)
    return np.array(data, dtype=np.float64).tobytes()


def _variants(rows, cols, data):
    """A drawn complex matrix, any entry possibly non-finite, as the views the encoders must agree on."""
    parts = data.draw(st.lists(_ANY_FLOATS, min_size=2 * rows * cols, max_size=2 * rows * cols))
    m = np.zeros((rows, cols), dtype=np.complex128)
    m.real, m.imag = np.array(parts[::2]).reshape(rows, cols), np.array(parts[1::2]).reshape(rows, cols)
    return m, m.T, m[:, ::-1], m.reshape(-1), m.real


@settings(max_examples=200)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_encode_matrix_matches_entrywise_encoder(rows, cols, data):
    for value in _variants(rows, cols, data):
        got, want = encode_matrix(value), _entrywise_encode_matrix(value)
        assert (got["rows"], got["cols"]) == (want["rows"], want["cols"])
        assert _bits(got["data"]) == _bits(want["data"])
        assert _same_text(_outcome(dumps_canonical, got), _outcome(_entrywise_dumps, want))


@settings(max_examples=200)
@given(st.integers(0, 4), st.integers(1, 4), st.data())
def test_dumps_canonical_renders_an_array_as_its_matrix_object(rows, cols, data):
    for value in _variants(rows, cols, data):
        got = _outcome(dumps_canonical, value)
        assert _same_text(got, _outcome(dumps_canonical, encode_matrix(value)))
        assert _same_text(got, _outcome(_entrywise_dumps, _entrywise_encode_matrix(value)))


@pytest.mark.parametrize("value, text", [
    (np.array([[-0.0 - 0.0j, 5e-324 + 1j]]), '{"rows":1,"cols":2,"data":[[0,0],[4.9406564584124654e-324,1]]}'),
    (np.array([1.7976931348623157e308, -1.7976931348623157e308]),
     '{"rows":2,"cols":1,"data":[[1.7976931348623157e+308,0],[-1.7976931348623157e+308,0]]}'),
    (np.array([[1, -2]]), '{"rows":1,"cols":2,"data":[[1,0],[-2,0]]}'),
    (np.zeros((0, 3)), '{"rows":0,"cols":3,"data":[]}'),
])
def test_dumps_canonical_array_edges(value, text):
    assert dumps_canonical(value) == text == dumps_canonical(encode_matrix(value))


@pytest.mark.parametrize("payload", [
    {"a": np.array([[0.5, np.inf]]), "b": math.nan},
    {"a": -math.inf, "b": np.array([[0.5, np.nan]])},
    {"a": [np.array([1.0]), np.array([[0.5 + 1j * np.nan]])], "b": np.array([np.inf])},
], ids=["array-first", "scalar-first", "imaginary-part"])
def test_dumps_canonical_names_the_first_non_finite_number(payload):
    native = {key: [encode_matrix(v) for v in value] if isinstance(value, list)
              else encode_matrix(value) if isinstance(value, np.ndarray) else value
              for key, value in payload.items()}
    got, want = _outcome(dumps_canonical, payload), _outcome(_entrywise_dumps, native)
    assert isinstance(want, InputError) and _same(got, want), (got, want)


@pytest.mark.parametrize("value", [np.zeros((2, 2, 2)), np.array(1.0), np.array([["x"]])],
                         ids=["3-d", "0-d", "strings"])
def test_dumps_canonical_refuses_arrays_that_are_not_matrices(value):
    with pytest.raises(InputError, match="cannot serialize object of type ndarray"):
        dumps_canonical(value)


def _file_forms():
    rng = rng_from_seed(12)
    h = NcSeries(2, 2, 3, {(): complex_gaussian(rng, 2, 3), (2, 1): complex_gaussian(rng, 2, 3)})
    basis = [NcSeries.constant(2, [[1.0]]), NcSeries.monomial(2, (1,), [[-0.5]])]
    z = MatrixTuple(tuple(complex_gaussian(rng, 3, 3) for _ in range(2)))
    kernels = [szego_kernel(2, 2), KolmogorovKernel(AlgebraSpec(), h, s=3),
               GramBasisKernel(AlgebraSpec(), basis, [[2.0, 0.5], [0.5, 1.0]])]
    return ([(serialize._series_form, encode_series, h), (serialize._tuple_form, encode_tuple, z)]
            + [(serialize._kernel_form, encode_kernel, k) for k in kernels])


@pytest.mark.parametrize("form, encode, obj", _file_forms(),
                         ids=["series", "tuple", "moment", "kolmogorov", "gram_basis"])
def test_each_file_form_renders_the_same_from_arrays(form, encode, obj):
    native = encode(obj)
    assert form(obj, encode_matrix) == native
    assert dumps_canonical(form(obj, np.asarray)) == dumps_canonical(native)
    json.dumps(native)  # the public encoders stay JSON-native


def test_decoding_a_valid_table_checks_no_word_by_word(monkeypatch):
    # the letters of a decoded table are checked once, in one pass by the series or kernel
    from ncrkhs import kernels, serialize, series

    calls = []
    for module in (kernels, serialize, series):
        monkeypatch.setattr(module, "validate_word", lambda w, d: calls.append(w))
    rng = rng_from_seed(11)
    decode_series(_series_payload(2, 1, [_matrix_payload(2, 1, rng) for _ in range(5)]))
    decode_kernel(encode_kernel(szego_kernel(2, 3)))
    assert calls == []
