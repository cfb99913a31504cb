"""Work skipped where its answer is exact: Hermitian moment tables and the truncated shift's block.

An exactly Hermitian moment table has every blockwise gap exactly zero, so
``MomentKernel`` builds it without the blockwise norms of its Hermitian test;
any other table takes the test, with its refusal text.  The truncated free
shift keeps the one block it builds as its coordinates, so its peak memory is
about that block.
"""

import json
import tracemalloc

import numpy as np
import pytest

from ncrkhs import kernels
from ncrkhs.core import InputError, Tolerances, words_up_to
from ncrkhs.kernels import MomentKernel, szego_kernel
from ncrkhs.sampling import complex_gaussian, rng_from_seed
from ncrkhs.serialize import decode_kernel, encode_kernel
from ncrkhs.series import truncated_shift_tuple


@pytest.fixture
def frobenius_calls(monkeypatch):
    """The calls made to ``kernels.frobenius``, which still computes."""
    calls = []
    real = kernels.frobenius

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(kernels, "frobenius", counted)
    return calls


def _hermitian_tables():
    rng = rng_from_seed(2511)
    words = words_up_to(2, 2)
    a = complex_gaussian(rng, 2 * len(words), 2 * len(words))
    # (a + a*) / 2 is exactly Hermitian: floating-point addition commutes
    blocks = ((a + a.conj().T) / 2).reshape(len(words), 2, len(words), 2)
    random = MomentKernel(2, 2, {(u, v): blocks[i, :, j, :] for i, u in enumerate(words)
                                 for j, v in enumerate(words)}, 2)
    return [szego_kernel(2, 3), random, MomentKernel(1, 1, {((), ()): [[1.0]]}, 0),
            MomentKernel(2, 1, {((1,), (2,)): [[1 + 2j]], ((2,), (1,)): [[1 - 2j]]}, 1)]


@pytest.mark.parametrize("kernel", _hermitian_tables(), ids=["szego", "random", "single", "off-diagonal"])
def test_an_exactly_hermitian_table_is_built_without_frobenius(kernel, frobenius_calls):
    middle = kernel.middle
    assert np.array_equal(middle, middle.conj().T)
    frobenius_calls.clear()
    rebuilt = [MomentKernel(kernel.d, kernel.y_dim, kernel.moments, kernel.max_len),
               decode_kernel(json.loads(json.dumps(encode_kernel(kernel)))),
               MomentKernel._of_matrix(kernel.d, kernel.y_dim, kernel.words, kernel.stored.copy(), middle.copy(),
                                       kernel.max_len)]
    assert frobenius_calls == []
    for k in rebuilt:
        assert k.words == kernel.words and k.middle.tobytes() == middle.tobytes()


@pytest.mark.parametrize("gap", [1e-12, 1e-11, 5e-11])
def test_a_table_within_eq_rel_of_hermitian_still_passes(gap, frobenius_calls):
    kernel = MomentKernel(1, 1, {((), ()): [[1.0]], ((), (1,)): [[0.1]], ((1,), ()): [[0.1 + gap]],
                                 ((1,), (1,)): [[1.0]]}, 1)
    assert frobenius_calls  # not exactly Hermitian: the test ran
    assert kernel.middle[1, 0] == 0.1 + gap


@pytest.mark.parametrize("moments, tol, pair", [
    ({((), ()): [[1.0]], ((), (1,)): [[0.1]], ((1,), ()): [[0.2]]}, Tolerances(), "((), (1,))"),
    ({((), ()): [[1.0]], ((), (1,)): [[0.1]], ((1,), ()): [[0.1 + 1e-9]]}, Tolerances(), "((), (1,))"),
    ({((), ()): [[1.0]], ((), (1,)): [[0.1]], ((1,), ()): [[0.1 + 1e-9]]}, Tolerances(eq_rel=1e-12), "((), (1,))"),
    ({((), ()): [[1.0]], ((), (1,)): [[1j]], ((1,), ()): [[1j]]}, Tolerances(), "((), (1,))"),
    ({((1,), (1,)): [[1.0 + 1e-3j]]}, Tolerances(), "((1,), (1,))"),
], ids=["asymmetric", "just-beyond", "tight-eq-rel", "not-conjugated", "complex-diagonal"])
def test_a_table_beyond_eq_rel_raises_todays_text(moments, tol, pair):
    with pytest.raises(InputError, match=r"^moment table is not Hermitian at pair " + pair.replace("(", r"\(")
                       .replace(")", r"\)") + "$"):
        MomentKernel(1, 1, moments, 1, tol)


def test_a_non_finite_table_takes_the_test(frobenius_calls):
    with pytest.raises(InputError, match="non-finite norm"):
        MomentKernel._of_matrix(1, 1, ((),), np.ones((1, 1), dtype=bool), np.array([[np.nan + 0j]]), 0)
    assert frobenius_calls


@pytest.mark.parametrize("d, max_len", [(2, 7), (3, 4), (1, 200)])
def test_the_truncated_shift_keeps_the_one_block_it_builds(d, max_len):
    tracemalloc.start()
    try:
        z = truncated_shift_tuple(d, max_len)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = sum(d ** k for k in range(max_len + 1))
    block = z.stacked
    assert block.shape == (d, m, m) and not block.flags.writeable
    assert all(c.base is block for c in z.coords)
    # the block and a few index vectors; a second copy would double it
    assert peak < 1.1 * block.nbytes + 100_000, (peak, block.nbytes)
