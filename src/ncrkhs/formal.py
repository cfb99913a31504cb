"""Formal nc power series over the free monoid: kernels, positivity, factorization.

A formal kernel is a Hermitian word-indexed moment table.  Truncated
positivity (the moment matrix over words of length <= L) is a necessary
condition in general and is complete for kernels supported within the
truncation; the nilpotent-point route checks the same data through
functional evaluation, with the truncated free shift as a universal witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    DEFAULT_TOL,
    InputError,
    MatrixTuple,
    Tolerances,
    TruncationTooShort,
    Word,
    as_cmatrix,
    frobenius,
    frozen,
    hermitize,
    rel_err,
    validate_word,
    word_key,
    words_up_to,
)
from .kernels import CpCertificate, MomentKernel
from .sampling import nilpotent_tuple, rng_from_seed
from .series import (
    NcSeries,
    functional_evaluator,
    multiply,
    truncate,
    truncated_shift_tuple,
)


@dataclass(frozen=True)
class FormalKernel:
    """Finitely supported Hermitian moment table K_{a,b} over stored words."""

    d: int
    y_dim: int
    moments: Mapping[tuple, np.ndarray]
    max_len: int
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        if self.max_len < 0:
            raise InputError("max_len must be >= 0")
        clean: dict[tuple[Word, Word], np.ndarray] = {}
        for (wa, wb), c in self.moments.items():
            key = (validate_word(wa, self.d), validate_word(wb, self.d))
            if max(len(key[0]), len(key[1])) > self.max_len:
                raise InputError(f"moment pair {key} exceeds max_len={self.max_len}")
            if key in clean:
                raise InputError(f"duplicate moment pair {key}")
            clean[key] = frozen(as_cmatrix(c, self.y_dim, self.y_dim))
        ordered = dict(sorted(clean.items(), key=lambda kv: (word_key(kv[0][0]), word_key(kv[0][1]))))
        object.__setattr__(self, "moments", ordered)
        scale = max([1.0] + [frobenius(c) for c in ordered.values()])
        for (wa, wb), c in ordered.items():
            other = ordered.get((wb, wa))
            mirror = other if other is not None else np.zeros_like(c)
            if frobenius(c - mirror.conj().T) > self.tol.eq_rel * scale:
                raise InputError(f"formal kernel is not Hermitian at pair {(wa, wb)}")

    def moment(self, wa, wb) -> np.ndarray:
        c = self.moments.get((validate_word(wa, self.d), validate_word(wb, self.d)))
        if c is None:
            return np.zeros((self.y_dim, self.y_dim), dtype=np.complex128)
        return c


def szego_formal_kernel(d: int, max_len: int, y_dim: int = 1) -> FormalKernel:
    eye = np.eye(y_dim, dtype=np.complex128)
    return FormalKernel(d, y_dim, {(w, w): eye for w in words_up_to(d, max_len)}, max_len)


def formal_kernel_from_factor(h: NcSeries, max_len: int) -> FormalKernel:
    """Gram-structured table K_{a,b} = H_a H_b* (positive by construction)."""
    moments = {}
    for wa, ca in h.terms.items():
        for wb, cb in h.terms.items():
            if max(len(wa), len(wb)) <= max_len:
                moments[(wa, wb)] = ca @ cb.conj().T
    return FormalKernel(h.d, h.out_dim, moments, max_len)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def convolve(f: NcSeries, g: NcSeries) -> NcSeries:
    """Noncommutative convolution product; degree adds, no truncation."""
    return multiply(f, g)


def convolve_truncated(f: NcSeries, g: NcSeries, max_len: int) -> tuple[NcSeries, bool]:
    """Convolution truncated at max_len; the flag reports whether terms were cut."""
    full = multiply(f, g)
    cut = truncate(full, max_len)
    truncated = len(cut.terms) != len(full.terms)
    return cut, truncated


# ---------------------------------------------------------------------------
# truncated moment positivity and Kolmogorov factorization
# ---------------------------------------------------------------------------

def moment_matrix(kernel: FormalKernel, max_len: int) -> np.ndarray:
    """Hermitian block matrix of K_{a,b} over words of length <= max_len (graded lex)."""
    if max_len > kernel.max_len:
        raise TruncationTooShort(
            f"moment matrix at L={max_len} exceeds stored truncation {kernel.max_len}"
        )
    words = words_up_to(kernel.d, max_len)
    y = kernel.y_dim
    out = np.zeros((len(words) * y, len(words) * y), dtype=np.complex128)
    for i, wa in enumerate(words):
        for j, wb in enumerate(words):
            out[i * y:(i + 1) * y, j * y:(j + 1) * y] = kernel.moment(wa, wb)
    return out


def is_formal_positive_truncated(
    kernel: FormalKernel, max_len: int, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, float]:
    """PSD-floor eigencheck of the truncated moment matrix; returns (passed, min_eig)."""
    m = moment_matrix(kernel, max_len)
    vals = np.linalg.eigvalsh(hermitize(m))
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 0.0)
    return bool(vals[0] >= -tol.psd_floor * scale), float(vals[0])


@dataclass(frozen=True)
class FormalFactorization:
    """Truncated Kolmogorov factor: K_{a,b} ~= H_a H_b* for |a|,|b| <= max_len."""

    h: NcSeries
    rank: int
    reconstruction_error: float


def formal_kolmogorov_truncated(
    kernel: FormalKernel, max_len: int, tol: Tolerances = DEFAULT_TOL
) -> FormalFactorization:
    """Factor the truncated moment matrix; row blocks become the coefficients H_a.

    The factor rank is the dimension of the truncated space H(K).
    """
    from .core import psd_factor

    words = words_up_to(kernel.d, max_len)
    y = kernel.y_dim
    m = moment_matrix(kernel, max_len)
    f = psd_factor(m, tol)
    rank = f.shape[1]
    terms = {}
    for i, w in enumerate(words):
        block = f[i * y:(i + 1) * y, :]
        if np.linalg.norm(block) > 0.0:
            terms[w] = block
    h = NcSeries(kernel.d, y, max(rank, 1), terms if rank else {})
    err = 0.0
    for i, wa in enumerate(words):
        for j, wb in enumerate(words):
            got = h.coefficient(wa) @ h.coefficient(wb).conj().T if rank else np.zeros((y, y))
            err = max(err, rel_err(frobenius(kernel.moment(wa, wb) - got),
                                   frobenius(kernel.moment(wa, wb))))
    return FormalFactorization(h, rank, err)


# ---------------------------------------------------------------------------
# formal <-> functional
# ---------------------------------------------------------------------------

def functional_from_formal(kernel: FormalKernel, tol: Tolerances = DEFAULT_TOL) -> MomentKernel:
    """The nilpotent-domain functional kernel with the same moment table."""
    return MomentKernel(kernel.d, kernel.y_dim, dict(kernel.moments), kernel.max_len, tol)


def formal_from_functional(kernel: MomentKernel) -> FormalKernel:
    """Inverse of :func:`functional_from_formal` (same data, formal reading)."""
    return FormalKernel(kernel.d, kernel.y_dim, dict(kernel.moments), kernel.max_len, kernel.tol)


def functional_from_series(f: NcSeries, tol: Tolerances = DEFAULT_TOL):
    """Evaluator Z -> sum_a Z^a (x) f_a, exact on jointly nilpotent tuples."""
    return functional_evaluator(f, tol)


# ---------------------------------------------------------------------------
# nilpotent-point positivity with the shift-tuple witness
# ---------------------------------------------------------------------------

def nilpotent_positivity_check(
    kernel: FormalKernel,
    seed=0,
    n_points: int = 3,
    sizes=None,
    shift_scales=(1.0, 2.0, 4.0),
    tol: Tolerances = DEFAULT_TOL,
) -> CpCertificate:
    """Eigencheck K(Z,Z)(I) over sampled nilpotent points plus scaled shift tuples.

    Evaluation is exact because the table is finitely supported; the sampled
    orders must stay within max_len + 1.  The scaled truncated free shift
    witnesses any negative direction of the truncated moment matrix, so the
    verdict agrees with :func:`is_formal_positive_truncated` for kernels
    exactly representable at this truncation.
    """
    if sizes is None:
        sizes = tuple(min(n, kernel.max_len + 1) for n in (2, 3))
    for n in sizes:
        if n > kernel.max_len + 1:
            raise TruncationTooShort(
                f"sampled size {n} can exceed nilpotency coverage max_len+1={kernel.max_len + 1}"
            )
    rng = rng_from_seed(seed)
    functional = functional_from_formal(kernel, tol)
    points: list[MatrixTuple] = [
        nilpotent_tuple(rng, kernel.d, int(sizes[i % len(sizes)])) for i in range(n_points)
    ]
    shift = truncated_shift_tuple(kernel.d, kernel.max_len)
    points.extend(shift.scaled(float(t)) for t in shift_scales)

    min_eig = np.inf
    worst_scale = 1.0
    witness = None
    for z in points:
        value = functional.evaluate(z, z, np.eye(z.n))
        vals, vecs = np.linalg.eigh(hermitize(value))
        scale = max(1.0, float(np.max(np.abs(vals))))
        if float(vals[0]) / scale < min_eig / worst_scale:
            min_eig = float(vals[0])
            worst_scale = scale
            witness = vecs[:, 0]
    passed = min_eig >= -tol.psd_floor * worst_scale
    description = {
        "sampler": "nilpotent+shift",
        "sizes": [z.n for z in points],
        "shift_scales": list(shift_scales),
    }
    return CpCertificate(
        passed, float(min_eig), description, seed, None if passed else witness, tuple(points)
    )
