"""Formal nc power series over the free monoid: moment positivity and factorization.

A formal kernel is a Hermitian word-indexed moment table, held by
:class:`~ncrkhs.kernels.MomentKernel`.  Truncated positivity (the moment
matrix over words of length <= L) is a necessary condition in general and is
complete for kernels supported within the truncation; the nilpotent-point
route checks the same table through functional evaluation, with the
truncated free shift as a universal witness.  Convolution of formal series
is :func:`ncrkhs.series.multiply`, and a series acts on nilpotent tuples
through :func:`ncrkhs.series.functional_evaluator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    MatrixTuple,
    Tolerances,
    TruncationTooShort,
    frobenius,
    psd_factor,
    psd_verdict,
    rel_err,
    words_up_to,
)
from .kernels import CpCertificate, MomentKernel
from .sampling import nilpotent_tuple, rng_from_seed
from .series import NcSeries, multiply, truncate, truncated_shift_tuple


# ---------------------------------------------------------------------------
# truncated convolution
# ---------------------------------------------------------------------------

def convolve_truncated(f: NcSeries, g: NcSeries, max_len: int) -> tuple[NcSeries, bool]:
    """Convolution truncated at max_len; the flag reports whether terms were cut."""
    full = multiply(f, g)
    cut = truncate(full, max_len)
    truncated = len(cut.terms) != len(full.terms)
    return cut, truncated


# ---------------------------------------------------------------------------
# truncated moment positivity and Kolmogorov factorization
# ---------------------------------------------------------------------------

def moment_matrix(kernel: MomentKernel, max_len: int) -> np.ndarray:
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
    kernel: MomentKernel, max_len: int, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, float]:
    """PSD-floor eigencheck of the truncated moment matrix; returns (passed, min_eig)."""
    verdict = psd_verdict([moment_matrix(kernel, max_len)], tol)
    return verdict.passed, verdict.min_eig


@dataclass(frozen=True)
class FormalFactorization:
    """Truncated Kolmogorov factor: K_{a,b} ~= H_a H_b* for |a|,|b| <= max_len."""

    h: NcSeries
    rank: int
    reconstruction_error: float


def formal_kolmogorov_truncated(
    kernel: MomentKernel, max_len: int, tol: Tolerances = DEFAULT_TOL
) -> FormalFactorization:
    """Factor the truncated moment matrix; row blocks become the coefficients H_a.

    The factor rank is the dimension of the truncated space H(K).
    """
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
# nilpotent-point positivity with the shift-tuple witness
# ---------------------------------------------------------------------------

def nilpotent_positivity_check(
    kernel: MomentKernel,
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
    points: list[MatrixTuple] = [
        nilpotent_tuple(rng, kernel.d, int(sizes[i % len(sizes)])) for i in range(n_points)
    ]
    shift = truncated_shift_tuple(kernel.d, kernel.max_len)
    points.extend(shift.scaled(float(t)) for t in shift_scales)

    verdict = psd_verdict((kernel.evaluate(z, z, np.eye(z.n)) for z in points), tol)
    description = {
        "sampler": "nilpotent+shift",
        "sizes": [z.n for z in points],
        "shift_scales": list(shift_scales),
    }
    return CpCertificate(
        verdict.passed, verdict.min_eig, description, seed, verdict.witness, tuple(points)
    )
