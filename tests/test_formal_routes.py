"""The formal routes read the stored moment table, checked against the padded matrix over every word.

``is_formal_positive_truncated`` and ``formal_kolmogorov_truncated`` read the
block of the moment matrix at the stored words; the reference here pads the
table with zeros to every word of length <= L, as both routes did before,
and tests or factors that matrix.  Over random tables (positive
semidefinite, shifted by a multiple of I, rank deficient; on every word or
on a random subset; d = 1-3, y = 1-2):

- the moment route's verdict is the padded matrix's, and its ``min_eig`` is
  within the PSD floor of it;
- the nilpotent route agrees with the moment route at the table's max_len;
- the factor has the padded factor's rank, and F F* is within 1e-12
  (relative to the table) of the padded factor's product on the stored blocks.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from ncrkhs.core import DEFAULT_TOL, psd_factor, psd_verdict, words_up_to
from ncrkhs.formal import formal_kolmogorov_truncated, is_formal_positive_truncated, nilpotent_positivity_check
from ncrkhs.kernels import MomentKernel
from ncrkhs.sampling import complex_gaussian, rng_from_seed

# the longest stored word for each d, so that every word up to it is few
LEVELS = {1: 6, 2: 4, 3: 3}


def padded(kernel: MomentKernel, level: int) -> np.ndarray:
    """The moment matrix over every word of length <= level, zero at the words not stored."""
    words = words_up_to(kernel.d, level)
    index = {w: i for i, w in enumerate(words)}
    y, n = kernel.y_dim, len(words)
    out = np.zeros((n, y, n, y), dtype=np.complex128)
    for (a, b), block in kernel.moments.items():
        if len(a) <= level and len(b) <= level:
            out[index[a], :, index[b], :] = block
    return out.reshape(n * y, n * y)


def random_table(seed: int, d: int, y: int, level: int, sparse: bool, kind: str) -> MomentKernel:
    rng = rng_from_seed(seed)
    words = [w for w in words_up_to(d, level) if not sparse or rng.random() < 0.4]
    size = len(words) * y
    a = complex_gaussian(rng, size, size if kind != "rank-deficient" else max(1, size // 3))
    table = a @ a.conj().T
    if kind == "shifted" and size:
        # below or above the smallest eigenvalue, so both verdicts are drawn
        table -= rng.choice([0.5, 2.0]) * np.linalg.eigvalsh(table)[0] * np.eye(size)
    table = ((table + table.conj().T) / 2).reshape(len(words), y, len(words), y)
    moments = {(u, v): table[i, :, j, :] for i, u in enumerate(words) for j, v in enumerate(words)}
    return MomentKernel(d, y, moments, level)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 3), y=st.integers(1, 2), sparse=st.booleans(),
       kind=st.sampled_from(["psd", "shifted", "rank-deficient"]), data=st.data())
def test_the_routes_match_the_padded_matrix(seed, d, y, sparse, kind, data):
    level = data.draw(st.integers(0, LEVELS[d]), label="max_len")
    at = data.draw(st.integers(0, level), label="L")
    kernel = random_table(seed, d, y, level, sparse, kind)
    for length in (at, level):
        m = padded(kernel, length)
        scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(m)))))
        want = psd_verdict([m])
        # a smallest eigenvalue at the floor may fall either side of it with rounding
        assume(abs(want.min_eig + DEFAULT_TOL.psd_floor * scale) > 1e-12 * scale)
        passed, min_eig = is_formal_positive_truncated(kernel, length)
        assert passed == want.passed
        assert abs(min_eig - want.min_eig) <= DEFAULT_TOL.psd_floor * scale
    cert = nilpotent_positivity_check(kernel, seed=seed % 97)
    assert cert.passed == passed  # the routes agree at max_len

    passed, _ = is_formal_positive_truncated(kernel, at)
    if passed:
        fact = formal_kolmogorov_truncated(kernel, at)
        ref = psd_factor(padded(kernel, at))
        assert fact.rank == ref.shape[1]
        words = words_up_to(d, at)
        index = {w: i for i, w in enumerate(words)}
        stored = [w for w in kernel.words if len(w) <= at]
        rows = np.concatenate([np.arange(index[w] * y, (index[w] + 1) * y) for w in stored] or [[]]).astype(int)
        h = np.vstack([fact.h.coefficient(w) for w in stored]) if stored and fact.rank else np.zeros((len(rows), 0))
        want = (ref @ ref.conj().T)[np.ix_(rows, rows)]
        assert np.linalg.norm(h @ h.conj().T - want) <= 1e-12 * max(1.0, np.linalg.norm(padded(kernel, at)))
