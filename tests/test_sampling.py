"""Batched draws against a test-local copy of the one-draw-at-a-time samplers.

:func:`sample_tuples` takes every normal of a batch from one call of the
generator and converts the points of one size together.  The references
below draw each coordinate with its own ``complex_gaussian`` and take one
``eigvals`` per coordinate, as the samplers did before batching; a batch
must equal them bit for bit and leave the generator in the same state.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ncrkhs.sampling import (
    complex_gaussian,
    random_algebra_matrices,
    random_algebra_matrix,
    rng_from_seed,
    sample_tuple,
    sample_tuples,
)


def reference_coords(rng, sampler, d, n):
    coords = []
    for _ in range(d):
        m = complex_gaussian(rng, n, n)
        if sampler == "nilpotent":
            m = np.triu(m, 1)
        else:
            rho = float(np.max(np.abs(np.linalg.eigvals(m)))) if n > 0 else 0.0
            if rho > 0.5:
                m = m * (0.5 / rho)
        coords.append(m)
    return np.array(coords, dtype=np.complex128).reshape(d, n, n)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


draws = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.lists(st.integers(0, 5), max_size=9),
                  st.sampled_from(["nilpotent", "gaussian"]))


@settings(max_examples=40)
@given(draws)
def test_a_batch_equals_its_points_drawn_in_turn(draw):
    seed, d, sizes, sampler = draw
    ref, one, batch = rng_from_seed(seed), rng_from_seed(seed), rng_from_seed(seed)
    want = [reference_coords(ref, sampler, d, n) for n in sizes]
    singles = [sample_tuple(one, sampler, d, n) for n in sizes]
    points = sample_tuples(batch, sampler, d, sizes)
    assert [z.n for z in points] == sizes
    for coords, single, z in zip(want, singles, points):
        assert same_bits(z.stacked, coords) and same_bits(single.stacked, coords)
    assert ref.bit_generator.state == one.bit_generator.state == batch.bit_generator.state


@settings(max_examples=20)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2), st.integers(1, 3), st.lists(st.integers(0, 4), max_size=9))
def test_test_rows_drawn_together_equal_rows_drawn_in_turn(seed, k, rows, cols):
    one, batch = rng_from_seed(seed), rng_from_seed(seed)
    want = [random_algebra_matrix(one, k, rows, c) for c in cols]
    got = random_algebra_matrices(batch, k, rows, cols)
    assert len(got) == len(want) and all(same_bits(a, b) for a, b in zip(got, want))
    assert one.bit_generator.state == batch.bit_generator.state
