"""Page and Hankel matrix transforms and their inverses.

A window of T samples becomes an L-row matrix: Page places contiguous
non-overlapping length-L segments side by side (T/L columns), Hankel slides a
length-L window one sample at a time (T-L+1 columns, constant anti-diagonals).
Per-channel matrices sharing L concatenate columnwise into a stacked matrix
whose layout remembers how to reshape back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError


class MatrixVariant(enum.Enum):
    PAGE = "page"
    HANKEL = "hankel"


@dataclass(frozen=True)
class BlockLayout:
    """Column range of one channel's block within a stacked matrix."""

    channel_id: str
    col_start: int
    col_stop: int
    start_index: int = 0  # window offset within the source series


@dataclass(frozen=True)
class StackedMatrix:
    entries: np.ndarray
    layout: tuple[BlockLayout, ...]
    variant: MatrixVariant
    L: int
    T: int

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]

    def with_entries(self, entries: np.ndarray) -> "StackedMatrix":
        entries = np.asarray(entries, dtype=float)
        if entries.shape != self.entries.shape:
            raise ShapeError(
                f"replacement entries {entries.shape} != {self.entries.shape}"
            )
        return replace(self, entries=entries)


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
    """L x (T-L+1) array with entry (i, j) = window[i + j]. Leading axes of
    window hold a stack of windows, giving a (..., L, T-L+1) stack."""
    w = _check_window(window, L)
    if w.shape[-1] < L:
        raise ShapeError(f"window length {w.shape[-1]} shorter than L={L}")
    return sliding_window_view(w, L, axis=-1).swapaxes(-1, -2).copy()


def page_matrix(window, L: int, channel_id: str = "0", start_index: int = 0) -> StackedMatrix:
    """Single-channel Page matrix wrapped as a one-block StackedMatrix."""
    e = page_entries(window, L)
    layout = (BlockLayout(channel_id, 0, e.shape[1], start_index),)
    return StackedMatrix(e, layout, MatrixVariant.PAGE, L, len(window))


def hankel_matrix(window, L: int, channel_id: str = "0", start_index: int = 0) -> StackedMatrix:
    """Single-channel Hankel matrix wrapped as a one-block StackedMatrix."""
    e = hankel_entries(window, L)
    layout = (BlockLayout(channel_id, 0, e.shape[1], start_index),)
    return StackedMatrix(e, layout, MatrixVariant.HANKEL, L, len(window))


def stack(blocks) -> StackedMatrix:
    """Concatenate per-channel matrices columnwise, preserving input order."""
    blocks = list(blocks)
    if not blocks:
        raise ShapeError("nothing to stack")
    first = blocks[0]
    for b in blocks[1:]:
        if b.L != first.L:
            raise ShapeError(f"mismatched L: {b.L} != {first.L}")
        if b.variant is not first.variant:
            raise ShapeError("cannot stack Page blocks with Hankel blocks")
        if b.T != first.T:
            raise ShapeError(f"mismatched window length: {b.T} != {first.T}")
    ids = [lay.channel_id for b in blocks for lay in b.layout]
    if len(set(ids)) != len(ids):
        raise ShapeError("duplicate channel ids in stacked blocks")
    layout = []
    offset = 0
    for b in blocks:
        for lay in b.layout:
            width = lay.col_stop - lay.col_start
            layout.append(replace(lay, col_start=offset, col_stop=offset + width))
            offset += width
    entries = np.hstack([b.entries for b in blocks])
    return StackedMatrix(entries, tuple(layout), first.variant, first.L, first.T)


def antidiagonal_means(block: np.ndarray, length: int) -> np.ndarray:
    """Average every entry (i, j) of a Hankel-layout block into sample i+j.

    Leading axes hold a stack of blocks, each averaged on its own. Rows are
    summed in order of i, so every sample adds its terms in the same order
    whatever the stack.
    """
    L, cols = block.shape[-2:]
    if length != L + cols - 1:
        raise ShapeError(f"block {block.shape} cannot reshape to length {length}")
    sums = np.zeros(block.shape[:-2] + (length,))
    counts = np.zeros(length)
    for i in range(L):
        sums[..., i:i + cols] += block[..., i, :]
        counts[i:i + cols] += 1
    return sums / counts


def reshape_back(matrix: StackedMatrix) -> dict[str, np.ndarray]:
    """Invert the transform per block.

    Page blocks unstack their columns; Hankel blocks anti-diagonal average,
    which is exact on unmodified matrices and the least-squares consistent
    answer after the entries were modified.
    """
    out: dict[str, np.ndarray] = {}
    L, T = matrix.L, matrix.T
    expected = T // L if matrix.variant is MatrixVariant.PAGE else T - L + 1
    for lay in matrix.layout:
        block = matrix.entries[:, lay.col_start:lay.col_stop]
        if block.shape[1] != expected:
            raise ShapeError(
                f"block {lay.channel_id!r} has {block.shape[1]} columns, "
                f"layout requires {expected}"
            )
        if matrix.variant is MatrixVariant.PAGE:
            out[lay.channel_id] = block.T.reshape(-1)
        else:
            out[lay.channel_id] = antidiagonal_means(block, T)
    return out
