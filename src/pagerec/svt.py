"""Low-rank matrix estimation by hard singular value thresholding.

The estimator zeroes every singular value at or below its matrix's cutoff.
One function, _cutoff, owns that rule: it gives each matrix of a stack its
own cutoff from the matrix's spectrum and shape, and osvt_batch reports it
per matrix as OsvtBatch.threshold. The rule is the closed-form lambda*(m/n)
of Gavish & Donoho's optimal hard threshold, optimal_threshold, which
depends only on the aspect ratio and is meant for a matrix whose entries
lie in [-1, 1], so every matrix of a stack gets the same value. No rank
input and no noise-level estimate is required; the full spectrum and the
cutoff are reported so callers can audit what was kept.

osvt_batch is the bare kernel: it thresholds a stack of equally shaped
matrices and expects the caller to have scaled them (the window engine
scales each channel block on its own). It reconstructs nothing. It hands
back each matrix's spectrum and its kept singular vectors, so each reader
builds only the entries it reads.

One kernel serves every shape and batch size. An m x n stack, m <= n once
oriented (a window's stack has m = L rows, 5 or 10 by default), is
factored through its m x m Gram matrices G = Y Y^T: eigh(G) gives the
left singular vectors U (reversed into descending order), P = U^T Y is
diag(s) Vt, s is the norm of each row of P, and Vt is P with its rows
divided by s. Only the kept triples are returned: past the kept rank, and
for a kept value of zero, the columns of U and the rows of Vt are zero, so
their nonzero columns and rows are the kept set. A kept row of Vt is its
row of P divided by its own value alone, so it has unit length to
rounding at any scale above the Gram products' subnormal range (below).
Forming G squares the condition number (Golub & Van Loan, Matrix
Computations): the vectors of values s_i and s_j come out mixed by about
eps s1^2 / (s_i^2 - s_j^2), most for the small values below the cutoff,
which no estimate reads:

- at and above the cutoff each value matches LAPACK's SVD to about 1e-15
  relative (2.6e-15 at worst above half the cutoff over 3000 random
  scaled matrices of rank 0 to m), estimates to within 1e-13, and s
  descends to rounding, so the values above the cutoff are a prefix of s;
- the kept columns of U are orthonormal to rounding, and kept rows i and j
  of Vt to about eps s1 / min(s_i, s_j): |U_k^T U_k - I| and
  |Vt_k Vt_k^T - I| read at most 2.4e-15 and 1.5e-15 over those 3000
  matrices, and 2.4e-15 and 6.2e-15 on the tests' 10 x 144 impute stacks
  over 41 seeds;
- below the cutoff a value can be off by up to about sqrt(eps) s1,
  1.5e-8 s1, and s need not descend there;
- a matrix whose entries all lie below about 1e-154 in magnitude has
  subnormal Gram products, each off by up to their spacing 2^-1074: over
  500 draws of a 5 x 36 matrix of entries up to 1e-155, its top triple's
  estimate reads 3e-14 from LAPACK's in the median and 1.6e-12 at worst
  (5e-14 at worst at 1e-150), and its row of Vt 7e-15 from unit length at
  worst. A matrix whose entries all lie below 1e-162 has Gram products
  that underflow: its spectrum reads as zero, its estimate is zero, and
  so are its vectors.

Per-matrix time in us of the kernel against the LAPACK SVD routes it
replaced, median of 15 interleaved rounds, one BLAS thread, 2-CPU x86-64
VM, numpy 2.4 with OpenBLAS, one matrix per call and in the window
engine's chunks (the archive's 10 x 64800 matrix runs alone):

    shape       B=1 SVD  kernel   chunk B    SVD  kernel
    5 x 36        21.5    24.1      182       7.3    3.9
    10 x 144      44.7    35.9       22      30.3   16.2
    5 x 156       40.5    27.4       42       8.9    6.8
    10 x 64800    4200    2440        1      4200   2440

A one-matrix call pays numpy's fixed cost of eigh, two products and a few
elementwise steps, a little more than one SVD of a 5 x 36 matrix; a chunk
spreads it. Each matrix's result depends on that matrix alone, bit for
bit, and `pagerec bench` and `pagerec impute` wrote the same bytes on one
BLAS thread and on two.
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
    one entry per matrix along the leading axis of each field. threshold is
    the cutoff applied to each matrix. singular_values is each matrix's
    full spectrum, descending at and above its cutoff (below it, to the
    precision the module docstring states), and kept_rank counts the
    values above the cutoff, or is 1 where none is and fallback_rank1
    flags that the top triple was kept anyway. U and Vt hold each matrix's
    kept singular vectors in the caller's orientation, one column of U and
    one row of Vt per singular value, and are zero past kept_rank and for
    a kept value of zero: their nonzero columns and rows are the kept set.
    The estimate is U diag(singular_values) Vt, and a reader that needs
    only some of its entries builds only those through
    estimate(rows, columns). The forecast fit reads U and needs no second
    factorization.
    """

    kept_rank: np.ndarray  # (B,)
    singular_values: np.ndarray  # (B, r), r = min(m, n)
    U: np.ndarray  # (B, m, r)
    Vt: np.ndarray  # (B, r, n)
    threshold: np.ndarray  # (B,)
    fallback_rank1: np.ndarray  # (B,)

    def estimate(self, rows=slice(None), columns=slice(None)) -> np.ndarray:
        """The thresholded matrices' entries at rows and columns (any numpy
        index along that axis), shape (B, rows, columns)."""
        return (self.U[:, rows] * self.singular_values[:, None, :]) @ self.Vt[..., columns]


def _cutoff(s: np.ndarray, m: int, n: int) -> np.ndarray:
    """Each matrix's cutoff, shape (B,), from its spectrum s (B, r) and the
    oriented shape m <= n: optimal_threshold(m, n) for every matrix. A
    matrix keeps its singular values above its cutoff."""
    return np.full(len(s), optimal_threshold(m, n))


def osvt_batch(Y: np.ndarray) -> OsvtBatch:
    """Threshold every matrix of a (B, m, n) stack as it is given.

    Precondition: the caller has scaled every matrix, so that its entries
    are finite and lie in [-1, 1]; the cutoff is calibrated for that range,
    and nothing here rescales or checks the entries. Each matrix keeps its
    singular triples above the cutoff, or its top triple when none is
    above; the result holds the spectrum and the kept factors, not the
    reconstruction. Each matrix's result depends on that matrix alone, bit
    for bit, not on the others in the stack. A stack that is not 3-D, or
    whose matrices have no entry, is a NumericError.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 3 or 0 in Y.shape[1:]:
        raise NumericError(f"expected a (B, m, n) stack, got shape {Y.shape}")
    # a tall stack is thresholded as its transpose, whose right singular
    # vectors are the caller's left ones
    tall = Y.shape[1] > Y.shape[2]
    if tall:
        Y = Y.swapaxes(1, 2)
    try:
        # eigh sorts ascending; U takes the vectors in descending order
        U = np.linalg.eigh(Y @ Y.swapaxes(1, 2))[1][:, :, ::-1]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    # P = U^T Y is diag(s) Vt: s is the norm of each of its rows
    P = U.swapaxes(1, 2) @ Y
    s = np.sqrt(np.add.reduce(P * P, axis=2))

    # the values above each matrix's cutoff, a prefix of s (module
    # docstring), or the top value when none is above; only the kept
    # triples of nonzero value are returned, the others are zero
    threshold = _cutoff(s, *Y.shape[1:])
    above = s > threshold[:, None]
    fallback = ~above[:, 0]
    above[:, 0] = True
    kept = np.add.reduce(above, axis=1)
    keep = above & (s > 0)
    U = U * keep[:, None, :]
    # 1/s for a kept row of P and 0 for every other: s + ~keep is at least 1
    # off the kept set
    Vt = P * (keep / (s + ~keep))[..., None]
    if tall:
        U, Vt = Vt.swapaxes(1, 2), U.swapaxes(1, 2)
    return OsvtBatch(kept, s, U, Vt, threshold, fallback)
