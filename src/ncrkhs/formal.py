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
    Tolerances,
    TruncationTooShort,
    psd_factor,
    psd_verdict,
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
    """Hermitian block matrix of K_{a,b} over words of length <= max_len (graded lex).

    It is the kernel's middle matrix C, placed at its words among all words.
    """
    if max_len > kernel.max_len:
        raise TruncationTooShort(
            f"moment matrix at L={max_len} exceeds stored truncation {kernel.max_len}"
        )
    index = {w: i for i, w in enumerate(words_up_to(kernel.d, max_len))}
    y = kernel.y_dim
    # the kernel's words are graded lex too, so those of length <= max_len come first
    kept = [index[w] for w in kernel.words if len(w) <= max_len]
    m = len(kernel.words)
    middle = kernel.middle.reshape(m, y, m, y)[:len(kept), :, :len(kept), :]
    out = np.zeros((len(index), y, len(index), y), dtype=np.complex128)
    out[np.ix_(kept, range(y), kept, range(y))] = middle
    return out.reshape(len(index) * y, len(index) * y)


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
    # blockwise ||(M - F F*)_{ab}|| / max(1, ||M_{ab}||), maximized over word pairs
    blocks = (len(words), y, len(words), y)
    diff = np.linalg.norm((m - f @ f.conj().T).reshape(blocks), axis=(1, 3))
    scale = np.maximum(1.0, np.linalg.norm(m.reshape(blocks), axis=(1, 3)))
    err = float(np.max(diff / scale))
    return FormalFactorization(h, rank, err)


# ---------------------------------------------------------------------------
# nilpotent-point positivity with the shift-tuple witness
# ---------------------------------------------------------------------------

# scales of the truncated free shift added to every nilpotent positivity check
SHIFT_SCALES = (1.0, 2.0, 4.0)


def nilpotent_positivity_check(
    kernel: MomentKernel,
    seed=0,
    n_points: int = 3,
    sizes=None,
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
    sampled = [nilpotent_tuple(rng, kernel.d, int(sizes[i % len(sizes)])) for i in range(n_points)]
    shift = truncated_shift_tuple(kernel.d, kernel.max_len)

    def unit_values():
        for z in sampled:
            yield kernel.evaluate(z, z, np.eye(z.n))
        # a scaled shift keeps its factor value (n x n*N for the table's N words),
        # so each is made where it is evaluated and dropped before the next
        for t in SHIFT_SCALES:
            z = shift.scaled(float(t))
            yield kernel.evaluate(z, z, np.eye(z.n))

    verdict = psd_verdict(unit_values(), tol)
    points = sampled + [shift.scaled(float(t)) for t in SHIFT_SCALES]
    description = {
        "sampler": "nilpotent+shift",
        "sizes": [z.n for z in points],
        "shift_scales": list(SHIFT_SCALES),
    }
    return CpCertificate(
        verdict.passed, verdict.min_eig, description, seed, verdict.witness, tuple(points)
    )
