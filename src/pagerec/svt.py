"""Low-rank matrix estimation by hard singular value thresholding.

The estimator zeroes every singular value at or below a closed-form cutoff
that depends only on the aspect ratio. The cutoff is meant for a matrix
whose entries lie in [-1, 1]. No rank input and no noise-level estimate is
required; the full spectrum is reported so callers can audit what was kept.

osvt_batch is the bare kernel: it thresholds a stack of equally shaped
matrices in one batched SVD and expects the caller to have scaled them
(the window engine scales each channel block on its own). osvt_estimate is
the one-matrix estimator and the only place here that scales: it maps the
whole matrix affinely onto [-1, 1], thresholds it with osvt_batch and maps
the reconstruction back to the original range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = [
    "OsvtBatch",
    "OsvtOutcome",
    "optimal_threshold",
    "osvt_batch",
    "osvt_estimate",
]


def optimal_threshold(m: int, n: int) -> float:
    """Hard threshold for the singular values of an m x n matrix, m <= n.

    With aspect ratio z = m/n:
        sqrt(2(z+1) + 8z / ((z+1) + sqrt(z^2 + 14z + 1)))
    """
    if not 1 <= m <= n:
        raise ValueError(f"require 1 <= m <= n, got m={m}, n={n}")
    z = m / n
    return math.sqrt(2.0 * (z + 1.0) + 8.0 * z / ((z + 1.0) + math.sqrt(z * z + 14.0 * z + 1.0)))


@dataclass(frozen=True)
class OsvtOutcome:
    """Result of one thresholded estimation.

    estimate has the input's shape; singular_values is the full spectrum of
    the scaled matrix; kept_rank counts the values above threshold (at least
    one: an empty kept set falls back to the top singular triple, flagged by
    fallback_rank1). constant_input marks the degenerate a == b case where
    the input is returned unchanged.
    """

    estimate: np.ndarray
    kept_rank: int
    singular_values: np.ndarray
    threshold: float
    scale_bounds: tuple[float, float]
    constant_input: bool = False
    fallback_rank1: bool = False


@dataclass(frozen=True)
class OsvtBatch:
    """Results of thresholding a stack of equally shaped (m, n) matrices:
    each field holds one entry per matrix along the leading axis and means
    what the same OsvtOutcome field means; threshold is shared. U holds each
    matrix's left singular vectors in the caller's orientation, one column
    per singular value, so that estimate = U[:, :k] s[:k] V_k^T with
    k = kept_rank: the forecast fit needs no second SVD. The right factors
    are not kept."""

    estimate: np.ndarray  # (B, m, n)
    kept_rank: np.ndarray  # (B,)
    singular_values: np.ndarray  # (B, min(m, n))
    U: np.ndarray  # (B, m, min(m, n))
    threshold: float
    fallback_rank1: np.ndarray  # (B,)


def osvt_batch(Y: np.ndarray) -> OsvtBatch:
    """Threshold every matrix of a (B, m, n) stack as it is given.

    Precondition: the caller has scaled every matrix, so that its entries
    are finite and lie in [-1, 1]; the cutoff is calibrated for that range,
    and nothing here rescales or checks the entries. Each matrix's result
    depends on that matrix alone, bit for bit, not on the others in the
    stack: reconstructions are computed per kept rank from exactly the kept
    singular triples.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 3:
        raise NumericError(f"expected a (B, m, n) stack, got shape {Y.shape}")
    # a tall stack is thresholded as its transpose, whose right singular
    # vectors are the caller's left ones
    tall = Y.shape[1] > Y.shape[2]
    if tall:
        Y = Y.swapaxes(1, 2)
    threshold = optimal_threshold(*Y.shape[1:])
    try:
        U, s, Vt = np.linalg.svd(Y, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc

    # s is sorted, so the kept set is a prefix of length kept_rank
    kept = (s > threshold).sum(axis=1)
    fallback = kept == 0
    kept = np.maximum(kept, 1)
    estimate = np.empty_like(Y)
    for k in sorted(set(kept.tolist())):
        sel = kept == k
        estimate[sel] = (U[sel, :, :k] * s[sel, None, :k]) @ Vt[sel, :k]
    if tall:
        estimate, U = estimate.swapaxes(1, 2), Vt.swapaxes(1, 2)
    return OsvtBatch(
        estimate=estimate,
        kept_rank=kept,
        singular_values=s,
        U=U,
        threshold=threshold,
        fallback_rank1=fallback,
    )


def osvt_estimate(X: np.ndarray) -> OsvtOutcome:
    """Denoise X by optimal hard thresholding of its scaled spectrum.

    X is mapped affinely onto [-1, 1], min to -1 and max to 1, thresholded
    by osvt_batch and mapped back. A constant matrix is returned unchanged,
    flagged by constant_input; a NaN or infinite entry raises NumericError.
    Wide or tall inputs are both accepted; internally the estimation runs on
    the orientation with rows <= columns and transposes back, so the result
    is transpose-consistent.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise NumericError(f"expected a 2-D matrix, got shape {X.shape}")
    # a NaN entry makes the min and max NaN and an infinite one makes one of
    # them infinite, so the bounds alone show non-finite input
    a, b = float(X.min()), float(X.max())
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NumericError("matrix has non-finite entries")
    constant = a == b
    mid, half = (0.0, 1.0) if constant else (0.5 * (a + b), 0.5 * (b - a))
    out = osvt_batch(((X - mid) / half)[None])
    return OsvtOutcome(
        estimate=X.copy() if constant else out.estimate[0] * half + mid,
        kept_rank=int(out.kept_rank[0]),
        singular_values=out.singular_values[0],
        threshold=out.threshold,
        scale_bounds=(a, b),
        constant_input=constant,
        fallback_rank1=bool(out.fallback_rank1[0]) and not constant,
    )
