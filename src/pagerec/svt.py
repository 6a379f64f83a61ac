"""Low-rank matrix estimation by hard singular value thresholding.

The estimator zeroes every singular value at or below a closed-form cutoff
that depends only on the aspect ratio. The cutoff is meant for a matrix
whose entries lie in [-1, 1]. No rank input and no noise-level estimate is
required; the full spectrum is reported so callers can audit what was kept.

osvt_batch is the bare kernel: it thresholds a stack of equally shaped
matrices and expects the caller to have scaled them (the window engine
scales each channel block on its own). It reconstructs nothing. It hands
back each matrix's singular factors and the kept weights, the spectrum
with every value past the kept rank set to zero, so each reader builds
only the entries it reads.

One kernel serves every shape and batch size. An m x n stack, m <= n once
oriented (a window's stack has m = L rows, 5 or 10 by default), is
factored through its m x m Gram matrices G = Y Y^T: eigh(G) gives the
left singular vectors U (reversed into descending order), and P = U^T Y
is diag(s) Vt. Forming G squares the condition number (Golub & Van Loan,
Matrix Computations): the vectors of values s_i and s_j come out mixed by
about eps s1^2 / (s_i^2 - s_j^2). One simultaneous Jacobi sweep takes
that out: H = P P^T holds it off its diagonal, to the rounding of P's
rows, and the first-order rotation W = I + A, A_ij = H_ij / (H_jj - H_ii),
turns U into U W and P into W^T P. s is the root of H's diagonal, which
the rotation moves by its square only, and Vt is W^T P with its rows
divided by s (a zero row stays zero). Only rotations below 2^-27 are
applied, so W stays orthogonal to rounding; that leaves out pairs whose
squares lie within about 1e-7 s1^2, two values both under about 3e-4 s1
or two nearly equal ones.

- at and above the cutoff each value matches LAPACK's SVD to about 1e-15
  relative (2.5e-15 at worst above half the cutoff over 3000 random
  scaled matrices of rank 0 to m), estimates to within 1e-13, and s
  descends to rounding, so the values above the cutoff are a prefix of s;
- rows i and j of Vt are orthonormal to about eps s1 / min(s_i, s_j)
  where the sweep reaches (1.3e-15 on the tests' 10 x 144 impute stacks,
  1.5e-13 from eigh alone), and to eps s1^2 / (s_i s_j) where it does not;
- below the cutoff a value can be off by up to about sqrt(eps) s1,
  1.5e-8 s1, and s need not descend there: the values that small are
  mixed beyond the sweep's reach;
- a matrix whose entries all lie below 1e-162 in magnitude has Gram
  products that underflow: its spectrum reads as zero and its estimate is
  zero.

Per-matrix time in us of the kernel against the LAPACK SVD routes it
replaced, median of 15 interleaved rounds, one BLAS thread, 2-CPU x86-64
VM, numpy 2.4 with OpenBLAS, one matrix per call and in the window
engine's chunks (the archive's 10 x 64800 matrix runs alone):

    shape       B=1 SVD  kernel   chunk B    SVD  kernel
    5 x 36        21.9    30.6      182       7.5    5.1
    10 x 144      41.8    41.2       22      29.5   16.3
    5 x 156       38.8    33.7       42       8.7    7.3
    10 x 64800    6240    4440        1      6240   4440

A one-matrix call pays numpy's fixed cost of eigh, four products and the
sweep's elementwise steps, more than one SVD of a small matrix; a chunk
spreads it. Each matrix's result depends on that matrix alone, bit for
bit, and `pagerec bench` and the 54000 x 12 archive's impute wrote the
same bytes on one BLAS thread and on two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = ["OsvtBatch", "optimal_threshold", "osvt_batch"]


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
    spectrum, descending at and above the cutoff (below it, to the
    precision the module docstring states), and kept_rank counts the
    values above the cutoff, or is 1 where none is and fallback_rank1
    flags that the top triple was kept anyway. U and Vt hold each matrix's
    singular vectors in the caller's orientation, one column of U and one
    row of Vt per singular value; the row of Vt of a zero singular value is
    zero, or below 1e-11 where the Gram products underflow. weights is
    singular_values with every value past kept_rank set to zero, the one
    statement of the kept set: the estimate is U diag(weights) Vt, and a
    reader that needs only some of its entries builds only those through
    estimate(rows, columns). The forecast fit reads U and weights and needs
    no second factorization.
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


# added to each singular value that divides a row: no value above 1e-134
# changes, a zero row stays zero and no row grows past unit length
_TINY = 1e-150

# the largest first-order rotation the sweep applies: its square, by which
# I + A misses being orthogonal, stays under a quarter ulp of 1
_ROTATION = 2.0 ** -27


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
    try:
        # eigh sorts ascending; U takes the vectors in descending order
        U = np.linalg.eigh(Y @ Y.swapaxes(1, 2))[1][:, :, ::-1]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    # P = U^T Y is diag(s) Vt but for the Gram error, held off the diagonal
    # of H = P P^T; the sweep W = I + A, A_ij = H_ij / (H_jj - H_ii), takes
    # it out (module docstring), and a pair out of its reach divides by inf
    P = U.swapaxes(1, 2) @ Y
    H = P @ P.swapaxes(1, 2)
    d = H.diagonal(axis1=1, axis2=2)
    gap = d[:, None] - d[..., None]
    W = H / np.where(np.abs(H) < _ROTATION * np.abs(gap), gap, np.inf)
    W.reshape(len(W), -1)[:, :: W.shape[1] + 1] = 1.0  # the diagonal
    U = U @ W
    s = np.sqrt(d)
    Vt = (W / (s + _TINY)[:, None]).swapaxes(1, 2) @ P

    # the values above the cutoff, a prefix of s (module docstring), or
    # the top value when none is above
    above = s > threshold
    fallback = ~above[:, 0]
    above[:, 0] = True
    weights = s * above
    kept = np.add.reduce(above, axis=1)
    if tall:
        U, Vt = Vt.swapaxes(1, 2), U.swapaxes(1, 2)
    return OsvtBatch(kept, s, weights, U, Vt, threshold, fallback)
