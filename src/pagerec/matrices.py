"""Page and Hankel matrix transforms and their inverses.

A window of T samples becomes an L-row matrix: Page places contiguous
non-overlapping length-L segments side by side (T/L columns), Hankel slides a
length-L window one sample at a time (T-L+1 columns, constant anti-diagonals).
Both take a stack of windows along leading axes. The inverse of Page is a
reshape; the inverse of Hankel is antidiagonal_means, exact on an unmodified
matrix and the least-squares consistent answer after the entries changed.
"""

from __future__ import annotations

import enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError


class MatrixVariant(enum.Enum):
    PAGE = "page"
    HANKEL = "hankel"


def _check_window(window: np.ndarray, L: int) -> np.ndarray:
    if L <= 1:
        raise ConfigError(f"L must exceed 1, got {L}")
    w = np.asarray(window, dtype=float)
    if w.ndim < 1:
        raise ShapeError(f"window must be at least 1-D, got shape {w.shape}")
    return w


def page_entries(window: np.ndarray, L: int) -> np.ndarray:
    """L x (T/L) array of non-overlapping segments; column j holds samples
    [jL, jL+L). Leading axes of window hold a stack of windows, giving a
    (..., L, T/L) stack of matrices."""
    w = _check_window(window, L)
    T = w.shape[-1]
    if T % L:
        raise ShapeError(f"window length {T} is not a multiple of L={L}")
    return w.reshape(w.shape[:-1] + (T // L, L)).swapaxes(-1, -2)


def hankel_entries(window: np.ndarray, L: int) -> np.ndarray:
    """L x (T-L+1) read-only view with entry (i, j) = window[i + j]. Leading
    axes of window hold a stack of windows, giving a (..., L, T-L+1) stack."""
    w = _check_window(window, L)
    if w.shape[-1] < L:
        raise ShapeError(f"window length {w.shape[-1]} shorter than L={L}")
    return sliding_window_view(w, L, axis=-1).swapaxes(-1, -2)


def antidiagonal_means(block: np.ndarray) -> np.ndarray:
    """Average every entry (i, j) of an L x cols Hankel-layout block into
    sample i+j of a window of L + cols - 1 samples.

    Leading axes hold a stack of blocks, each averaged on its own. Rows are
    summed in order of i, so every sample adds its terms in the same order
    whatever the stack.
    """
    L, cols = block.shape[-2:]
    length = L + cols - 1
    sums = np.zeros(block.shape[:-2] + (length,))
    counts = np.zeros(length)
    for i in range(L):
        sums[..., i:i + cols] += block[..., i, :]
        counts[i:i + cols] += 1
    return sums / counts
