"""Exact zeros of an array are written as literals; the formal factor is built as one block.

The dumper writes an array that holds at least ``serialize._ZERO_LITERALS``
exact-zero floats pair by pair from four templates, and only its nonzero
floats are formatted; the reference is a copy of the array rendering that
formats every float.  ``formal_kolmogorov_truncated`` keeps the nonzero row
blocks of its factor as one block; the reference is a copy of the build that
filtered them into a dict, row by row, and stacked them again.
"""

import math

import numpy as np
import pytest

from ncrkhs import serialize
from ncrkhs.core import DEFAULT_TOL, InputError, psd_factor
from ncrkhs.formal import formal_kolmogorov_truncated
from ncrkhs.kernels import MomentKernel, moment_kernel_from_factor, szego_kernel
from ncrkhs.sampling import complex_gaussian, rng_from_seed
from ncrkhs.serialize import dumps_canonical
from ncrkhs.series import NcSeries

LIMIT = serialize._ZERO_LITERALS


def every_float_rendered(a: np.ndarray) -> str:
    """The dumper's text of one array as it was before zero literals: one ``%.17g`` slot per float."""
    rows, cols = a.shape if a.ndim == 2 else (a.shape[0], 1)
    text = f'{{"rows":{rows},"cols":{cols},"data":[' + ",".join(["[%.17g,%.17g]"] * a.size) + "]}"
    flat = np.ascontiguousarray(a, dtype=np.complex128).reshape(-1).view(np.float64) + 0.0
    finite = np.isfinite(flat)
    if not finite.all():
        bad = float(flat[np.argmin(finite)])
        raise InputError(f"cannot encode the non-finite number {bad} (the computation overflowed)")
    return text % tuple(flat.tolist())


def with_zeros(rng, shape, dtype, zeros: int) -> np.ndarray:
    """A random array of ``shape`` and ``dtype`` with exactly ``zeros`` exact-zero floats, some of them -0.0."""
    size = int(np.prod(shape))
    values = np.zeros(2 * size)
    slots = rng.permutation(2 * size)
    if np.dtype(dtype).kind != "c":
        slots = slots[slots % 2 == 0]  # the imaginary parts of a real array are zero anyway
        zeros -= size
    values[slots[zeros:]] = rng.choice([1.0, -1.0, 0.5, 3.0, 1e-300, 1e300, 1 / 3], size=len(slots) - zeros)
    values[slots[:zeros]] = rng.choice([0.0, -0.0], size=zeros)
    z = values.view(np.complex128).reshape(shape)
    return z if np.dtype(dtype).kind == "c" else z.real.astype(dtype)


def float_zeros(a: np.ndarray) -> int:
    return int(np.count_nonzero(np.ascontiguousarray(a, dtype=np.complex128).view(np.float64) == 0))


def formatted(a: np.ndarray) -> int:
    """How many of the array's floats the dumper formats."""
    text, numbers = [], []
    serialize._layout(a, text, numbers)
    return numbers[0].size


@pytest.mark.parametrize("shape", [(40,), (1, 127), (5, 7), (20, 20), (3,), (2, 1)])
@pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 0.9, 0.99, 1.0])
def test_random_complex_arrays_render_as_before(shape, density):
    rng = rng_from_seed(2501 + len(shape) * 1000 + int(100 * density))
    for _ in range(5):
        size = 2 * int(np.prod(shape))
        a = with_zeros(rng, shape, np.complex128, int(round(density * size)))
        assert dumps_canonical(a) == every_float_rendered(a)


@pytest.mark.parametrize("zeros", [LIMIT - 1, LIMIT, LIMIT + 1])
@pytest.mark.parametrize("shape", [(LIMIT,), (4, LIMIT // 4 + 1), (LIMIT + 3, 1)])
def test_the_count_of_zeros_decides_the_path(zeros, shape):
    rng = rng_from_seed(2502 + zeros)
    for dtype in (np.complex128, np.float64):
        size = int(np.prod(shape))
        if dtype is np.float64 and zeros < size:
            continue  # a real array's imaginary parts already hold size zeros
        a = with_zeros(rng, shape, dtype, zeros)
        assert float_zeros(a) == zeros
        assert dumps_canonical(a) == every_float_rendered(a)
        assert formatted(a) == (2 * size - zeros if zeros >= LIMIT else 2 * size)


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16, np.bool_, np.float64, np.float32, np.complex64])
@pytest.mark.parametrize("shape", [(50,), (6, 9), (1, 1)])
def test_int_bool_and_real_arrays_render_as_before(dtype, shape):
    rng = rng_from_seed(2503)
    for density in (0.0, 0.5, 1.0):
        values = rng.integers(-3, 4, size=shape) * (rng.random(shape) >= density)
        a = values.astype(dtype) if np.dtype(dtype).kind in "biu" else (values / 3).astype(dtype)
        assert dumps_canonical(a) == every_float_rendered(a)


@pytest.mark.parametrize("a", [
    np.zeros(LIMIT), np.zeros((16, 16)), np.zeros((3, 4), dtype=int), np.zeros(1),
    np.full((8, 8), -0.0), np.full(LIMIT, complex(-0.0, -0.0)), np.zeros((0, 4)),
    np.eye(LIMIT)[::-1], -np.eye(20, dtype=complex) * 1j,
], ids=["1d", "2d", "int", "single", "minus-zero", "minus-zero-complex", "empty", "permutation", "imaginary"])
def test_zero_heavy_edges_render_as_before(a):
    assert dumps_canonical(a) == every_float_rendered(a)


def test_arrays_inside_a_payload_keep_the_document_order():
    rng = rng_from_seed(2504)
    sparse = with_zeros(rng, (6, 6), np.complex128, 60)
    dense = with_zeros(rng, (2, 3), np.complex128, 1)
    payload = {"a": 0.25, "m": sparse, "b": [dense, -0.0, 1.5, sparse.T], "c": "100%"}
    assert dumps_canonical(payload) == (
        '{"a":0.25,"m":' + every_float_rendered(sparse) + ',"b":[' + every_float_rendered(dense)
        + ",0,1.5," + every_float_rendered(sparse.T) + '],"c":"100%"}')


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 17, -1])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_a_non_finite_number_beside_zeros_raises_todays_error(bad, where, part):
    a = np.zeros((8, 8), dtype=np.complex128)
    a[3, 5] = 2.0
    flat = a.reshape(-1)
    if part == "real":
        flat[where] = complex(bad, 0.0)
    else:
        flat[where] = complex(0.0, bad)
    assert float_zeros(a) >= LIMIT
    with pytest.raises(InputError) as want:
        every_float_rendered(a)
    for payload in (a, {"x": 0.0, "m": a, "y": [np.zeros(LIMIT)]}):
        with pytest.raises(InputError) as got:
            dumps_canonical(payload)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the formal factor as one block
# ---------------------------------------------------------------------------

def dict_built_factor(kernel: MomentKernel, max_len: int) -> NcSeries:
    """``h`` as :func:`formal_kolmogorov_truncated` built it before: a dict of the nonzero row blocks, stacked again.

    Both factor the moment matrix's block at the stored words of length <= max_len.
    """
    words = [w for w in kernel.words if len(w) <= max_len]
    y = kernel.y_dim
    f = psd_factor(kernel.middle[:len(words) * y, :len(words) * y], DEFAULT_TOL)
    rank = f.shape[1]
    terms = {w: h_w for w, h_w in zip(words, f.reshape(len(words), y, rank)) if h_w.any()}
    return NcSeries(kernel.d, y, max(rank, 1), terms if rank else {})


def _factor_kernels():
    rng = rng_from_seed(2505)
    sparse = NcSeries(2, 2, 3, {(): complex_gaussian(rng, 2, 3), (2, 1): complex_gaussian(rng, 2, 3),
                                (1, 1, 2): np.zeros((2, 3))})
    cases = [(szego_kernel(d, level), level, at) for d, level, at in [(1, 5, 5), (2, 4, 4), (2, 6, 6), (3, 3, 2)]]
    cases += [(moment_kernel_from_factor(sparse, 3), 3, 3), (moment_kernel_from_factor(sparse, 3), 3, 1)]
    # a table stored on some words only: the factor's rows at the others are zero
    cases.append((MomentKernel(2, 1, {((), ()): [[2.0]], ((1, 2), (1, 2)): [[1.0]], ((), (1, 2)): [[0.5]],
                                      ((1, 2), ()): [[0.5]]}, 2), 2, 2))
    # rank 0: the zero table, and a table whose only stored word is cut
    cases.append((MomentKernel(2, 2, {((), ()): np.zeros((2, 2))}, 2), 2, 2))
    cases.append((MomentKernel(1, 1, {((1, 1), (1, 1)): [[1.0]]}, 2), 2, 1))
    return cases


@pytest.mark.parametrize("kernel, level, max_len", _factor_kernels(),
                         ids=["szego-d1", "szego-d2-L4", "szego-d2-L6", "szego-d3-cut", "factor", "factor-cut",
                              "partial", "rank0-zero", "rank0-cut"])
def test_the_formal_factor_matches_the_dict_build(kernel, level, max_len):
    got = formal_kolmogorov_truncated(kernel, max_len).h
    want = dict_built_factor(kernel, max_len)
    assert (got.d, got.out_dim, got.in_dim) == (want.d, want.out_dim, want.in_dim)
    assert list(got.terms) == list(want.terms)
    assert got._coeffs.shape == want._coeffs.shape and got._coeffs.dtype == want._coeffs.dtype
    assert got._coeffs.tobytes() == want._coeffs.tobytes()
    assert got._coeffs.flags.writeable == want._coeffs.flags.writeable is False
    assert all(not c.flags.writeable and np.shares_memory(c, got._coeffs) for c in got.terms.values())


def test_rank_zero_keeps_the_empty_series():
    fac = formal_kolmogorov_truncated(MomentKernel(3, 2, {((), ()): np.zeros((2, 2))}, 1), 1)
    assert fac.rank == 0 and fac.h.terms == {} and (fac.h.out_dim, fac.h.in_dim) == (2, 1)
    assert fac.h._coeffs.shape == (0, 2, 1)
