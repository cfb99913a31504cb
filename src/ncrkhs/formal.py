"""Formal nc power series over the free monoid: moment positivity and factorization.

A formal kernel is a Hermitian word-indexed moment table, held by
:class:`~ncrkhs.kernels.MomentKernel`.  Truncated positivity (the moment
matrix over words of length <= L) is a necessary condition in general and is
complete for kernels supported within the truncation; the nilpotent-point
route checks the same table through functional evaluation, with the
truncated free shift as a universal witness whose value is a suffix sum of
the moment matrix.  Convolution of formal series
is :func:`ncrkhs.series.multiply`, and a series acts on nilpotent tuples
through :func:`ncrkhs.series.functional_evaluator`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL,
    Tolerances,
    TruncationTooShort,
    frobenius,
    psd_factor,
    psd_verdict,
    rel_err,
    words_up_to,
)
from .kernels import CpCertificate, MomentKernel, sample_points
from .sampling import NILPOTENT, rng_from_seed
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


class FormalFactorization(NamedTuple):
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
    terms = {w: h_w for w, h_w in zip(words, f.reshape(len(words), y, rank)) if h_w.any()}
    h = NcSeries(kernel.d, y, max(rank, 1), terms if rank else {})
    # blockwise ||(M - F F*)_{ab}|| / max(1, ||M_{ab}||), maximized over word pairs
    blocks = (len(words), y, len(words), y)
    diff = frobenius((m - f @ f.conj().T).reshape(blocks), axis=(1, 3))
    err = float(np.max(rel_err(diff, frobenius(m.reshape(blocks), axis=(1, 3)))))
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
    sizes=(2, 3),
    tol: Tolerances = DEFAULT_TOL,
) -> CpCertificate:
    """Eigencheck K(Z,Z)(I) over sampled nilpotent points plus scaled shift tuples.

    Evaluation is exact because the table is finitely supported; the sampled
    sizes are clamped to the nilpotency coverage max_len + 1.  The scaled
    truncated free shift witnesses any negative direction of the truncated
    moment matrix, so the verdict agrees with
    :func:`is_formal_positive_truncated` for kernels exactly representable at
    this truncation.  The shift values come from the moment matrix
    (:func:`_shift_values`); the shift tuples are the witness points.
    """
    _, sampled = sample_points(kernel, rng_from_seed(seed), n_points, sizes, NILPOTENT)
    kernel.precompute(sampled)
    verdict = psd_verdict([kernel.evaluate(z, z, np.eye(z.n)) for z in sampled] + _shift_values(kernel), tol)
    shift = truncated_shift_tuple(kernel.d, kernel.max_len)
    points = sampled + [shift.scaled(float(t)) for t in SHIFT_SCALES]
    description = {"sampler": "nilpotent+shift", "sizes": [z.n for z in points],
                   "shift_scales": list(SHIFT_SCALES)}
    return CpCertificate(verdict.passed, verdict.min_eig, description, seed, verdict.witness, tuple(points))


def _shift_values(kernel: MomentKernel) -> list[np.ndarray]:
    """K(tS, tS)(I) at the truncated free shift S for each t in SHIFT_SCALES, without F(tS).

    S^a S^b* maps e_{b.w} to e_{a.w}, so block (u, v) sums t^{|a|+|b|} K_{a,b} over
    the splits u = a.w, v = b.w: X = D_t M D_t + sum_j R_j X R_j* for the moment
    matrix M, D_t = diag(t^{|a|}) and R_j e_a = e_{a.j}, filled one length of u at a time.
    """
    d, y, level = kernel.d, kernel.y_dim, kernel.max_len
    lengths = np.array([len(w) for w in words_up_to(d, level)])
    n = len(lengths)
    moments = moment_matrix(kernel, level).reshape(n, y, n, y).transpose(0, 2, 1, 3)  # [u, v, r, s]
    # in graded lex order, word i followed by letter j + 1 is word 1 + d i + j
    child = 1 + d * np.arange((n - 1) // d)[:, None] + np.arange(d)
    values = []
    for t in SHIFT_SCALES:
        weight = t ** lengths
        x = weight[:, None, None, None] * moments * weight[None, :, None, None]
        lo, hi = 0, 1  # the words of one length
        for _ in range(level):
            x[child[lo:hi, None, :], child] += x[lo:hi, :len(child), None]
            lo, hi = 1 + d * lo, 1 + d * hi
        values.append(x.transpose(0, 2, 1, 3).reshape(n * y, n * y))
    return values
