"""Low-rank matrix estimation by hard singular value thresholding.

The estimator rescales the matrix entrywise into [-1, 1], zeroes every
singular value at or below a closed-form cutoff that depends only on the
aspect ratio, and maps the truncated reconstruction back to the original
range. No rank input and no noise-level estimate is required; the full
spectrum is reported so callers can audit what was kept. osvt_batch runs the
estimator over a stack of equally shaped matrices in one batched SVD;
osvt_estimate is its one-matrix form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    """Results of thresholding a stack of equally shaped matrices: each
    field holds one entry per matrix along the leading axis and means what
    the same OsvtOutcome field means; threshold is shared."""

    estimate: np.ndarray  # (B, m, n)
    kept_rank: np.ndarray  # (B,)
    singular_values: np.ndarray  # (B, min(m, n))
    threshold: float
    scale_bounds: np.ndarray  # (B, 2)
    constant_input: np.ndarray  # (B,)
    fallback_rank1: np.ndarray  # (B,)


def osvt_batch(X: np.ndarray) -> OsvtBatch:
    """Threshold every matrix of a (B, m, n) stack as osvt_estimate does.

    Each matrix's result depends on that matrix alone, bit for bit, not on
    the others in the stack: reconstructions are computed per kept rank
    from exactly the kept singular triples.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 3:
        raise NumericError(f"expected a (B, m, n) stack, got shape {X.shape}")
    B, m, n = X.shape
    if m > n:
        out = osvt_batch(X.swapaxes(1, 2))
        return replace(out, estimate=out.estimate.swapaxes(1, 2))

    # map each matrix affinely onto [-1, 1], min to -1 and max to 1; a
    # constant matrix keeps the identity.
    # A NaN entry makes its matrix's min and max NaN and an infinite one
    # makes one of them infinite, so the bounds alone show non-finite input.
    bounds = np.empty((B, 2))
    a, b = bounds[:, 0], bounds[:, 1]
    X.min(axis=(1, 2), out=a)
    X.max(axis=(1, 2), out=b)
    if not np.isfinite(bounds).all():
        raise NumericError("matrix has non-finite entries")
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    constant = a == b
    any_constant = constant.any()
    if any_constant:
        mid[constant] = 0.0
        half[constant] = 1.0
    mid, half = mid[:, None, None], half[:, None, None]
    Y = (X - mid) / half
    threshold = optimal_threshold(m, n)
    try:
        U, s, Vt = np.linalg.svd(Y, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc

    # s is sorted, so the kept set is a prefix of length kept_rank
    kept = (s > threshold).sum(axis=1)
    fallback = kept == 0
    kept = np.maximum(kept, 1)
    estimate = np.empty_like(X)
    for k in sorted(set(kept.tolist())):
        sel = kept == k
        estimate[sel] = (U[sel, :, :k] * s[sel, None, :k]) @ Vt[sel, :k]
    estimate *= half
    estimate += mid
    if any_constant:
        estimate[constant] = X[constant]
        fallback &= ~constant
    return OsvtBatch(
        estimate=estimate,
        kept_rank=kept,
        singular_values=s,
        threshold=threshold,
        scale_bounds=bounds,
        constant_input=constant,
        fallback_rank1=fallback,
    )


def osvt_estimate(X: np.ndarray) -> OsvtOutcome:
    """Denoise X by optimal hard thresholding of its scaled spectrum.

    Wide or tall inputs are both accepted; internally the estimation runs on
    the orientation with rows <= columns and transposes back, so the result
    is transpose-consistent.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise NumericError(f"expected a 2-D matrix, got shape {X.shape}")
    out = osvt_batch(X[None])
    a, b = out.scale_bounds[0]
    return OsvtOutcome(
        estimate=out.estimate[0],
        kept_rank=int(out.kept_rank[0]),
        singular_values=out.singular_values[0],
        threshold=out.threshold,
        scale_bounds=(float(a), float(b)),
        constant_input=bool(out.constant_input[0]),
        fallback_rank1=bool(out.fallback_rank1[0]),
    )
