"""A moment table is held once: its words, the mask of stored pairs, and the moment matrix.

``MomentKernel.moments`` is derived from ``middle`` and ``stored``; the
factored term's C is ``middle`` itself.  ``moment_kernel_from_factor`` builds
its table as one product H H*, checked here against the pairwise definition
K_{a,b} = H_a H_b*.
"""

import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ncrkhs
from ncrkhs.core import words_up_to
from ncrkhs.kernels import (
    AlgebraSpec,
    GramBasisKernel,
    MomentKernel,
    moment_kernel_from_factor,
    szego_kernel,
)
from ncrkhs.sampling import complex_gaussian, nilpotent_tuple, rng_from_seed
from ncrkhs.serialize import decode_kernel, encode_kernel
from ncrkhs.series import NcSeries

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ncrkhs.__file__)))


def sparse_table(rng, d: int, y: int, max_len: int) -> dict:
    """A Hermitian table on a random set of word pairs, inserted in a shuffled order.

    About a third of the stored blocks are explicit zeros.
    """
    words = words_up_to(d, max_len)
    pairs = {}
    for i, a in enumerate(words):
        for b in words[i:]:
            if rng.random() < 0.3:
                c = np.zeros((y, y), dtype=np.complex128) if rng.random() < 0.35 else complex_gaussian(rng, y, y)
                if a == b:
                    c = c + c.conj().T
                pairs[(a, b)] = c
                pairs[(b, a)] = c.conj().T
    keys = list(pairs)
    return {keys[i]: pairs[keys[i]] for i in rng.permutation(len(keys))}


def graded(pair):
    a, b = pair
    return (len(a), a, len(b), b)


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 2), st.integers(0, 3))
def test_the_table_is_held_once_and_moments_derived(seed, d, y, max_len):
    rng = rng_from_seed(seed)
    table = sparse_table(rng, d, y, max_len)
    k = MomentKernel(d, y, table, max_len)

    again = MomentKernel(d, y, k.moments, max_len)
    assert again.words == k.words
    assert again.stored.dtype == bool and bits(again.stored) == bits(k.stored)
    assert again.middle.shape == k.middle.shape and bits(again.middle) == bits(k.middle)

    moments = k.moments
    assert list(moments) == sorted(table, key=graded)
    for key, c in moments.items():
        assert np.array_equal(c, table[key])
        assert not c.flags.writeable and np.shares_memory(c, k.middle)
    assert not k.stored.flags.writeable and not k.middle.flags.writeable
    assert int(k.stored.sum()) == len(table)

    encoded = encode_kernel(k)
    assert encode_kernel(decode_kernel(encoded)) == encoded

    assert "moments" not in vars(k)
    if table:
        assert len(k.terms) == 1 and k.middle is k.terms[0][1]
    else:
        assert k.terms == () and k.middle.shape == (0, 0)

    z = nilpotent_tuple(rng, d, max_len + 1)
    value = k.evaluate(z, z, np.eye(z.n))
    moments.clear()
    k.moments[((), ())] = np.ones((y, y))
    assert encode_kernel(k) == encoded
    assert bits(k.evaluate(z, z, np.eye(z.n))) == bits(value)


def test_stored_zero_blocks_encode_and_absent_ones_do_not():
    k = MomentKernel(2, 1, {((1,), (1,)): [[0.0]], ((), ()): [[1.0]]}, 2)
    assert list(k.moments) == [((), ()), ((1,), (1,))]
    assert [(e["row_word"], e["col_word"]) for e in encode_kernel(k)["moments"]] == [([], []), ([1], [1])]
    assert k.stored.tolist() == [[True, False], [False, True]]


def test_the_constructors_keep_one_array_per_matrix():
    szego = szego_kernel(2, 2, y_dim=2)
    assert szego.middle is szego.terms[0][1]
    assert np.array_equal(szego.middle, np.eye(14)) and np.array_equal(szego.stored, np.eye(7, dtype=bool))
    basis = [NcSeries.constant(1, [[1.0]]), NcSeries.monomial(1, (1,), [[1.0]])]
    gram = GramBasisKernel(AlgebraSpec(), basis, [[2.0, 0.5], [0.5, 1.0]])
    assert gram.gram_inv is gram.terms[0][1]


def pairwise_moments(h: NcSeries, max_len: int) -> dict:
    """The pairwise table K_{a,b} = H_a H_b* over the words of length <= max_len, one product per pair."""
    moments = {}
    for wa, ca in h.terms.items():
        for wb, cb in h.terms.items():
            if max(len(wa), len(wb)) <= max_len:
                moments[(wa, wb)] = ca @ cb.conj().T
    return moments


@pytest.mark.parametrize("out_dim", [1, 2])
@pytest.mark.parametrize("in_dim", [1, 2, 3])
@pytest.mark.parametrize("d, degree, max_len", [(1, 4, 2), (2, 3, 3), (2, 4, 2), (3, 2, 1)])
def test_the_factor_table_matches_the_pairwise_products(out_dim, in_dim, d, degree, max_len):
    rng = rng_from_seed(100 * out_dim + 10 * in_dim + d)
    words = [w for w in words_up_to(d, degree) if rng.random() < 0.7]
    h = NcSeries(d, out_dim, in_dim, {w: complex_gaussian(rng, out_dim, in_dim) for w in reversed(words)})
    k = moment_kernel_from_factor(h, max_len)
    want = MomentKernel(d, out_dim, pairwise_moments(h, max_len), max_len)
    assert k.words == want.words and np.array_equal(k.stored, want.stored)
    assert np.linalg.norm(k.middle - want.middle) <= 1e-12 * np.linalg.norm(want.middle)
    assert k.max_len == max_len and all(len(w) <= max_len for w in k.words)


# built pair by pair this table peaks at about 0.8 GiB of address space, as one product at
# about 0.2 GiB (VmPeak with one BLAS thread, numpy loaded)
CAP_BYTES = 512 << 20

_FULL_SUPPORT = """
import numpy as np
from ncrkhs.core import words_up_to
from ncrkhs.kernels import moment_kernel_from_factor
from ncrkhs.series import NcSeries
rng = np.random.default_rng(5)
h = NcSeries(3, 1, 2, {w: rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2)) for w in words_up_to(3, 6)})
k = moment_kernel_from_factor(h, 6)
print(len(k.words), k.middle.shape[0])
"""


def test_the_factor_table_at_the_north_star_truncation_fits_a_small_address_space():
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _FULL_SUPPORT], preexec_fn=cap, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1093", "1093"]
