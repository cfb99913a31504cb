"""Seeded random draws for points, matrices and similarities.

Every certificate in the library takes an explicit seed; all randomness flows
through ``numpy.random.Generator`` so repeated runs are bit-identical.
"""

from __future__ import annotations

import numpy as np

from .core import InputError, MatrixTuple, SamplerUnavailable

NILPOTENT = "nilpotent"
GAUSSIAN = "gaussian"


def rng_from_seed(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid seed {seed!r}: {exc}") from exc


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    r = complex_gaussian(rng, n, rank if rank is not None else n)
    return r @ r.conj().T


def nilpotent_tuple(rng: np.random.Generator, d: int, n: int) -> MatrixTuple:
    """Strictly upper-triangular i.i.d. Gaussian coordinates (jointly nilpotent)."""
    coords = []
    for _ in range(d):
        m = complex_gaussian(rng, n, n)
        coords.append(np.triu(m, 1))
    return MatrixTuple(tuple(coords))


def gaussian_tuple(rng: np.random.Generator, d: int, n: int, radius: float = 0.5) -> MatrixTuple:
    """Dense Gaussian coordinates rescaled to spectral radius <= radius."""
    coords = []
    for _ in range(d):
        m = complex_gaussian(rng, n, n)
        rho = float(np.max(np.abs(np.linalg.eigvals(m)))) if n > 0 else 0.0
        if rho > radius:
            m = m * (radius / rho)
        coords.append(m)
    return MatrixTuple(tuple(coords))


def sample_tuple(rng: np.random.Generator, sampler: str, d: int, n: int) -> MatrixTuple:
    if sampler == NILPOTENT:
        return nilpotent_tuple(rng, d, n)
    if sampler == GAUSSIAN:
        return gaussian_tuple(rng, d, n)
    raise SamplerUnavailable(f"unknown sampler {sampler!r}")


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
