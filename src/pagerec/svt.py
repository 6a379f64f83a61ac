"""Low-rank matrix estimation by hard singular value thresholding.

The estimator zeroes every singular value at or below a closed-form cutoff
that depends only on the aspect ratio. The cutoff is meant for a matrix
whose entries lie in [-1, 1]. No rank input and no noise-level estimate is
required; the full spectrum is reported so callers can audit what was kept.

osvt_batch is the bare kernel: it thresholds a stack of equally shaped
matrices in one batched SVD and expects the caller to have scaled them
(the window engine scales each channel block on its own). It reconstructs
nothing. It hands back each matrix's singular factors and the kept
weights, the spectrum with every value past the kept rank set to zero, so
each reader builds only the entries it reads.

The SVD takes one of two routes, chosen by shape alone, so a matrix takes
the same route in any batch. An m x n stack (m <= n once oriented) with
n < c m, c = _WIDE_ASPECT = 24, goes to LAPACK's SVD directly, handed each
matrix's n x m transpose: LAPACK factors that tall orientation 1.1-2.1x
faster than the wide one on these shapes, and the factors come back
swapped, as views. A wider one first takes the m x m triangular factor R
of Y^T = Q R, runs the SVD on R^T, which has Y's singular values and left
vectors, and forms Vt = U^T Y / s; a row of Vt whose singular value is
zero is zero. That route forms no n-row orthogonal factor, but pays for a
second LAPACK call, some 15-20 us of fixed numpy cost per call.

Per-matrix time in us (median of 15 interleaved rounds, one BLAS thread,
2-CPU x86-64 VM, numpy 2.4 with OpenBLAS), with one matrix per call and
in the window engine's chunks (B under its cell budget; the archive's
10 x 64800 matrix runs alone):

    shape      n/m    B=1 direct  triangular   chunk B  direct  triangular
    5 x 36       7.2     16.0       33.2         182      7.7      8.0
    10 x 144    14.4     55.9       75.3          22     35.9     34.5
    5 x 156     31.2     25.5       42.4          42     18.9     15.9
    10 x 64800  6480    12223       5337           1    12223     5337

In chunks, where a replay spends its time, the triangular route ties with
the direct one near n = 10-14 m and is 1.2-1.3x cheaper from n = 19 m on;
with one matrix per call the direct route was cheaper at every aspect
measured up to n = 31 m. The gate stays at 24: it sends every shape above
to the route that is cheapest in its chunks or within 5% of it, and any
c in (14.4, 31.2) routes them the same. A gate on the batch size too
would give predict_next and predict_stream different routes and end their
bitwise equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = [
    "OsvtBatch",
    "optimal_threshold",
    "osvt_batch",
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


@dataclass(slots=True)
class OsvtBatch:
    """Results of thresholding a stack of equally shaped (m, n) matrices:
    one entry per matrix along the leading axis of each field but the
    shared cutoff, threshold. singular_values is each matrix's full
    spectrum, in descending order, and kept_rank counts the values above
    the cutoff, or is 1 where none is and fallback_rank1 flags that the
    top triple was kept anyway. U and Vt hold each matrix's singular
    vectors in the caller's orientation, one column of U and one row of Vt
    per singular value; on the triangular route (see the module docstring)
    the row of Vt of a zero singular value is zero. weights is
    singular_values with every value past kept_rank set to zero, the one
    statement of the kept set: the estimate is U diag(weights) Vt, and a
    reader that needs only some of its entries builds only those through
    estimate(rows, columns). The forecast fit reads U and weights and needs
    no second SVD.
    """

    kept_rank: np.ndarray  # (B,)
    singular_values: np.ndarray  # (B, r), r = min(m, n)
    weights: np.ndarray  # (B, r)
    U: np.ndarray  # (B, m, r)
    Vt: np.ndarray  # (B, r, n)
    threshold: float
    fallback_rank1: np.ndarray  # (B,)

    def estimate(self, rows=slice(None), columns=slice(None)) -> np.ndarray:
        """The thresholded matrices' entries at rows and columns (any numpy
        index along that axis), shape (B, rows, columns)."""
        return (self.U[:, rows] * self.weights[:, None, :]) @ self.Vt[..., columns]


# A stack at least this many times wider than high (n >= c m once oriented)
# takes _triangular_svd, any other _direct_svd; the module docstring says why.
_WIDE_ASPECT = 24


def _direct_svd(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD factors U (B, m, m), s (B, m), Vt (B, m, n) of a (B, m, n)
    stack with m <= n, by one LAPACK SVD of each matrix's (n, m) transpose:
    LAPACK factors the tall orientation faster, and Y^T = V S U^T gives the
    caller's factors as views."""
    V, s, Ut = np.linalg.svd(Y.swapaxes(1, 2), full_matrices=False)
    return Ut.swapaxes(1, 2), s, V.swapaxes(1, 2)


def _triangular_svd(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors _direct_svd returns, through each matrix's m x m
    triangular factor: Y^T = Q R gives Y = R^T Q^T, so Y has the singular
    values and left vectors of R^T, and Vt = U^T Y / s. A row of Vt whose
    singular value is zero is zero."""
    R = np.linalg.qr(Y.swapaxes(1, 2), mode="r")
    U, s, _ = np.linalg.svd(R.swapaxes(1, 2))
    # U / s first: m x m divisions instead of m x n; 1 / inf zeroes a row
    Vt = (U / np.where(s > 0.0, s, np.inf)[:, None, :]).swapaxes(1, 2) @ Y
    return U, s, Vt


def osvt_batch(Y: np.ndarray) -> OsvtBatch:
    """Threshold every matrix of a (B, m, n) stack as it is given.

    Precondition: the caller has scaled every matrix, so that its entries
    are finite and lie in [-1, 1]; the cutoff is calibrated for that range,
    and nothing here rescales or checks the entries. Each matrix keeps its
    singular triples above the cutoff, or its top triple when none is
    above; the result holds the factors and kept weights, not the
    reconstruction. Each matrix's result depends on that matrix alone, bit
    for bit, not on the others in the stack.
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
    route = _triangular_svd if Y.shape[2] >= _WIDE_ASPECT * Y.shape[1] else _direct_svd
    try:
        U, s, Vt = route(Y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc

    # s is sorted, so the values above the cutoff are a prefix of each row
    above = s > threshold
    weights = np.where(above, s, 0.0)
    kept = above.sum(axis=1)
    fallback = kept == 0
    if fallback.any():
        weights[fallback, 0] = s[fallback, 0]
        kept[fallback] = 1
    if tall:
        U, Vt = Vt.swapaxes(1, 2), U.swapaxes(1, 2)
    return OsvtBatch(
        kept_rank=kept,
        singular_values=s,
        weights=weights,
        U=U,
        Vt=Vt,
        threshold=threshold,
        fallback_rank1=fallback,
    )
