"""Seeded random draws for points, matrices and similarities.

Every certificate in the library takes an explicit seed; all randomness flows
through ``numpy.random.Generator`` so repeated runs are bit-identical.

A batch of draws takes all its normals in one call of the generator, in the
order that the draws made one at a time would take them, and converts them
in one pass: :func:`sample_tuples` makes the points of one size together
(one stacked ``eigvals`` per size for the Gaussian sampler), and
:func:`sample_tuple` is its one-point case; :func:`random_algebra_matrices`
draws a certificate's test rows.  So a batch equals its draws made in turn,
and leaves the generator in the same state.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from .core import InputError, MatrixTuple, SamplerUnavailable

NILPOTENT = "nilpotent"
GAUSSIAN = "gaussian"
GAUSSIAN_RADIUS = 0.5


def rng_from_seed(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid seed {seed!r}: {exc}") from exc


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _complex_normals(rng: np.random.Generator, counts: Sequence[int]) -> np.ndarray:
    """The entries of ``complex_gaussian`` draws of ``counts[0], counts[1], ...`` entries in turn, concatenated.

    One call of the generator draws them all; each draw takes its real
    parts, then its imaginary parts.
    """
    counts = np.asarray(counts, dtype=np.intp)
    normals = rng.standard_normal(2 * int(counts.sum()))
    real = np.repeat(np.tile([True, False], len(counts)), np.repeat(counts, 2))
    return (normals[real] + 1j * normals[~real]) / np.sqrt(2.0)


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    r = complex_gaussian(rng, n, rank if rank is not None else n)
    return r @ r.conj().T


def sample_tuples(rng: np.random.Generator, sampler: str, d: int, sizes: Sequence[int]) -> list[MatrixTuple]:
    """One point of each size in turn, drawn as :func:`sample_tuple` would draw them one at a time.

    ``nilpotent`` points have strictly upper-triangular i.i.d. Gaussian
    coordinates (jointly nilpotent); ``gaussian`` points have dense Gaussian
    coordinates, each rescaled to spectral radius at most
    :data:`GAUSSIAN_RADIUS`.  The points of one size are made together.
    """
    if sampler not in (NILPOTENT, GAUSSIAN):
        raise SamplerUnavailable(f"unknown sampler {sampler!r}")
    values = _complex_normals(rng, [n * n for n in sizes for _ in range(d)])
    ends = list(accumulate(d * n * n for n in sizes))
    by_size: dict[int, list[int]] = {}
    for i, n in enumerate(sizes):
        by_size.setdefault(n, []).append(i)
    points: list = [None] * len(sizes)
    for n, members in by_size.items():
        coords = np.array([values[ends[i] - d * n * n:ends[i]] for i in members]).reshape(len(members), d, n, n)
        if sampler == NILPOTENT:
            coords = np.triu(coords, 1)
        elif n > 0:
            # a coordinate within the radius is multiplied by 1, which keeps
            # its entries (nonzero Gaussian draws) bit for bit
            rho = np.max(np.abs(np.linalg.eigvals(coords)), axis=-1)
            coords *= (GAUSSIAN_RADIUS / np.maximum(rho, GAUSSIAN_RADIUS))[..., None, None]
        for i, point in zip(members, coords):
            points[i] = MatrixTuple(point)
    return points


def sample_tuple(rng: np.random.Generator, sampler: str, d: int, n: int) -> MatrixTuple:
    return sample_tuples(rng, sampler, d, [n])[0]


def nilpotent_tuple(rng: np.random.Generator, d: int, n: int) -> MatrixTuple:
    """Strictly upper-triangular i.i.d. Gaussian coordinates (jointly nilpotent)."""
    return sample_tuple(rng, NILPOTENT, d, n)


def gaussian_tuple(rng: np.random.Generator, d: int, n: int) -> MatrixTuple:
    """Dense Gaussian coordinates rescaled to spectral radius <= GAUSSIAN_RADIUS."""
    return sample_tuple(rng, GAUSSIAN, d, n)


def random_similarity(rng: np.random.Generator, n: int, cond: float = 10.0) -> np.ndarray:
    """Random invertible matrix with condition number ~cond."""
    u, _ = np.linalg.qr(complex_gaussian(rng, n, n))
    v, _ = np.linalg.qr(complex_gaussian(rng, n, n))
    if n == 1:
        s = np.ones(1)
    else:
        exponents = np.linspace(-0.5, 0.5, n)
        s = cond ** exponents
    return u * s @ v.conj().T


def random_algebra_matrix(rng: np.random.Generator, k: int, rows: int, cols: int) -> np.ndarray:
    """Gaussian element of A^{rows x cols} for A = C^{k x k}, in the block encoding."""
    return complex_gaussian(rng, rows * k, cols * k)


def random_algebra_matrices(rng: np.random.Generator, k: int, rows: int, cols: Sequence[int]) -> list[np.ndarray]:
    """:func:`random_algebra_matrix` for each column count in turn, from one call of the generator."""
    values = _complex_normals(rng, [rows * k * c * k for c in cols])
    ends = accumulate(rows * k * c * k for c in cols)
    return [values[end - rows * k * c * k:end].reshape(rows * k, c * k) for c, end in zip(cols, ends)]
