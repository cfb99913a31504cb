"""A decoded coefficient table is converted once: the decoder's checked keys and block go to the constructor core.

:func:`decode_series` and the moment-table decoder read every coefficient of
a table into one array and check the letters of every word in one pass;
the series or kernel then keeps that block, so it is neither checked letter
by letter, stacked again nor sorted again.  The reference is the Mapping
constructor on the same table.
"""

import json

import numpy as np
import pytest

from ncrkhs import kernels, series
from ncrkhs.core import words_up_to
from ncrkhs.kernels import MomentKernel
from ncrkhs.sampling import complex_gaussian, rng_from_seed
from ncrkhs.serialize import decode_kernel, decode_matrix, decode_series, dumps_canonical, encode_kernel, encode_series
from ncrkhs.series import NcSeries


def root_of(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory of ``a``."""
    while a.base is not None:
        a = a.base
    return a


@pytest.fixture
def forbid_second_pass(monkeypatch):
    """Once called, the Mapping constructors' letter check and stack fail, so only the decoder's own pass may run."""
    def refused(*args, **kwargs):
        raise AssertionError("a decoded table was checked or stacked a second time")

    def forbid():
        for module in (series, kernels):
            monkeypatch.setattr(module, "int_words", refused)
            monkeypatch.setattr(module, "checked_stack", refused)
    return forbid


@pytest.mark.parametrize("d, degree, p, q", [(1, 3, 1, 1), (2, 4, 2, 3), (3, 2, 1, 2)])
def test_a_decoded_series_keeps_the_decoders_block(d, degree, p, q, forbid_second_pass):
    rng = rng_from_seed(92)
    data = {"d": d, "p": p, "q": q, "terms": [
        {"word": list(w), "coeff": {"rows": p, "cols": q, "data": complex_gaussian(rng, p * q, 1).view(np.float64).tolist()}}
        for w in words_up_to(d, degree)]}
    mapping = mapping_series(data)
    forbid_second_pass()
    g = decode_series(json.loads(json.dumps(data)))
    # the float64 [re, im] array the entries were read into, not a stacked complex copy
    root = root_of(g._coeffs)
    assert root.dtype == np.float64 and root.shape == (len(data["terms"]), p * q, 2)
    assert all(np.shares_memory(c, g._coeffs) for c in g.terms.values())
    assert list(g.terms) == list(mapping.terms)
    assert g._coeffs.tobytes() == mapping._coeffs.tobytes()
    assert g._coeffs.flags.writeable == mapping._coeffs.flags.writeable is False
    assert all(not c.flags.writeable for c in g.terms.values())


def mapping_series(data: dict) -> NcSeries:
    """The Mapping constructor on the same table."""
    return NcSeries(data["d"], data["p"], data["q"],
                    {tuple(t["word"]): decode_matrix(t["coeff"]) for t in data["terms"]})


def test_a_decoded_series_out_of_order_is_sorted_once():
    rng = rng_from_seed(93)
    f = NcSeries(2, 1, 2, {w: complex_gaussian(rng, 1, 2) for w in words_up_to(2, 3)})
    data = json.loads(dumps_canonical(encode_series(f)))
    data["terms"] = [data["terms"][i] for i in rng.permutation(len(data["terms"]))]
    g = decode_series(data)
    assert list(g.terms) == list(f.terms)
    assert g._coeffs.tobytes() == f._coeffs.tobytes()
    assert not g._coeffs.flags.writeable


def test_a_decoded_moment_table_equals_the_mapping_constructors(forbid_second_pass):
    rng = rng_from_seed(94)
    words = words_up_to(2, 2)
    h = complex_gaussian(rng, 2 * len(words), 3)
    gram = (h @ h.conj().T).reshape(len(words), 2, len(words), 2)
    moments = {(a, b): gram[i, :, j, :] for i, a in enumerate(words) for j, b in enumerate(words) if (i + j) % 3}
    data = json.loads(dumps_canonical(encode_kernel(MomentKernel(2, 2, moments, 2))))
    data["moments"].reverse()
    mapping = MomentKernel(2, 2, {(tuple(m["row_word"]), tuple(m["col_word"])): decode_matrix(m["coeff"])
                                  for m in data["moments"]}, 2)
    forbid_second_pass()
    kernel = decode_kernel(data)
    assert kernel.words == mapping.words
    assert np.array_equal(kernel.stored, mapping.stored)
    assert kernel.middle.tobytes() == mapping.middle.tobytes()
    assert not kernel.middle.flags.writeable and not kernel.stored.flags.writeable


@pytest.mark.parametrize("edit, message", [
    (lambda m: m[0].update(row_word=[1, 2, 1]), "exceeds max_len=2"),
    (lambda m: m[0].update(row_word=[3]), "letter 3 outside 1..2"),
    (lambda m: m.append(dict(m[0])), "duplicate moment pair"),
])
def test_a_moment_table_the_core_refuses_is_walked_and_named(edit, message):
    moments = {((1,), (1,)): np.eye(1), ((), ()): np.eye(1)}
    data = json.loads(dumps_canonical(encode_kernel(MomentKernel(2, 1, moments, 2))))
    edit(data["moments"])
    with pytest.raises(Exception, match=message):
        decode_kernel(data)
