"""Formal nc power series over the free monoid: moment positivity and factorization.

A formal kernel is a Hermitian word-indexed moment table, held by
:class:`~ncrkhs.kernels.MomentKernel`.  Truncated positivity (the moment
matrix over words of length <= L) is a necessary condition in general and is
complete for kernels supported within the truncation.  Both the test and
the factor read that matrix's block at the stored words, never listing the
others.  The nilpotent-point route checks the table through functional
evaluation, with the free shift compressed to the stored words' suffixes
as a universal witness: at the vacuum its value is the table itself.
Convolution of formal series is :func:`ncrkhs.series.multiply`, and a
series acts on nilpotent tuples through
:func:`ncrkhs.series.functional_evaluator`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    Tolerances,
    TruncationTooShort,
    Word,
    frobenius,
    psd_factor,
    psd_verdict,
    rel_err,
    word_count,
    word_key,
    words_up_to,
)
from .kernels import CpCertificate, MomentKernel, sample_points
from .sampling import NILPOTENT, rng_from_seed
from .series import NcSeries, compressed_shift, multiply, truncate


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
    """Hermitian block matrix of K_{a,b} over all words of length <= max_len (graded lex).

    A padded view of the stored block (:func:`_stored_block`) among every
    word, so it lists them all; the routes below read the stored block alone.
    """
    words, block, _ = _stored_block(kernel, max_len)
    return _placed(block, words, words_up_to(kernel.d, max_len), kernel.y_dim)


def _stored_block(kernel: MomentKernel, max_len: int) -> tuple[tuple[Word, ...], np.ndarray, int]:
    """The stored words of length <= max_len, their principal block of ``kernel.middle``, and how many words are missing.

    The stored words are graded, so these come first.  The moment matrix at
    max_len is this block padded with zero rows and columns at the missing
    words, so its eigenvalues are the block's and, if a word is missing, 0.
    """
    if max_len > kernel.max_len:
        raise TruncationTooShort(f"moment matrix at L={max_len} exceeds stored truncation {kernel.max_len}")
    n = sum(len(w) <= max_len for w in kernel.words)
    block = kernel.middle[:n * kernel.y_dim, :n * kernel.y_dim]
    return kernel.words[:n], block, word_count(kernel.d, max_len, limit=None) - n


def _placed(block: np.ndarray, stored: Sequence[Word], words: Sequence[Word], y: int) -> np.ndarray:
    """``block``, the table at the graded words ``stored``, placed on the graded ``words`` holding them; zero elsewhere."""
    index = {w: i for i, w in enumerate(words)}
    kept = [index[w] for w in stored]
    out = np.zeros((len(words), y, len(words), y), dtype=np.complex128)
    out[np.ix_(kept, range(y), kept, range(y))] = block.reshape(len(kept), y, len(kept), y)
    return out.reshape(len(words) * y, len(words) * y)


def is_formal_positive_truncated(
    kernel: MomentKernel, max_len: int, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, float]:
    """PSD-floor eigencheck of the truncated moment matrix; returns (passed, min_eig).

    It tests the stored block, with one zero row and column if a word is missing: the eigenvalue 0.
    """
    _, block, missing = _stored_block(kernel, max_len)
    verdict = psd_verdict([np.pad(block, (0, min(missing, 1)))], tol)
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

    Only the stored block is factored: the padded matrix has the same
    nonzero eigenpairs, with zero rows at the missing words, so the error is
    taken over the stored blocks.  The nonzero row blocks, chosen in one
    pass, are kept as one block by the series.  The factor rank is the
    dimension of the truncated space H(K).
    """
    words, m, _ = _stored_block(kernel, max_len)
    y = kernel.y_dim
    f = psd_factor(m, tol)
    rank = f.shape[1]
    # rank 0 gives the zero series
    block = f.reshape(len(words), y, rank)
    kept = np.flatnonzero(block.any(axis=(1, 2)))
    h = (NcSeries._of_table(kernel.d, y, rank, [words[i] for i in kept], block[kept]) if rank
         else NcSeries(kernel.d, y, 1, {}))
    # blockwise ||(M - F F*)_{ab}|| / max(1, ||M_{ab}||), maximized over word pairs
    blocks = (len(words), y, len(words), y)
    diff = frobenius((m - f @ f.conj().T).reshape(blocks), axis=(1, 3))
    err = float(np.max(rel_err(diff, frobenius(m.reshape(blocks), axis=(1, 3))), initial=0.0))
    return FormalFactorization(h, rank, err)


# ---------------------------------------------------------------------------
# nilpotent-point positivity with the shift-tuple witness
# ---------------------------------------------------------------------------

def nilpotent_positivity_check(
    kernel: MomentKernel,
    seed=0,
    n_points: int = 3,
    sizes=(2, 3),
    tol: Tolerances = DEFAULT_TOL,
) -> CpCertificate:
    """Eigencheck K(Z,Z)(I) over sampled nilpotent points, and K(T,T)(e_() e_()*) at one shift T.

    Evaluation is exact because the table is finitely supported; the sampled
    sizes are clamped to the nilpotency coverage max_len + 1.  T, the last
    point, is the free shift compressed to W, the stored words and all their
    suffixes (at most 1 + sum |a| words; :func:`compressed_shift`).  T^a e_()
    is e_a for a in W, so K(T,T)(e_() e_()*) = sum_{a,b} e_a e_b* (x) K_{a,b}
    is the table placed on W, formed so without F(T): its eigenvalues are
    the stored block's and zeros, so the verdict agrees with
    :func:`is_formal_positive_truncated` at the longest stored word.
    """
    _, sampled = sample_points(kernel, rng_from_seed(seed), n_points, sizes, NILPOTENT)
    kernel.precompute(sampled)
    words = sorted({()} | {w[i:] for w in kernel.words for i in range(len(w))}, key=word_key)
    vacuum = _placed(kernel.middle, kernel.words, words, kernel.y_dim)
    verdict = psd_verdict([kernel.evaluate(z, z, np.eye(z.n)) for z in sampled] + [vacuum], tol)
    points = sampled + [compressed_shift(kernel.d, words)]
    description = {"sampler": "nilpotent+shift", "sizes": [z.n for z in points]}
    return CpCertificate(verdict.passed, verdict.min_eig, description, seed, verdict.witness, tuple(points))
