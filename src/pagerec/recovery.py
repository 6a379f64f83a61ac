"""Windowed imputation and online one-step-ahead prediction.

Offline: split the series into length-T windows, fill gaps, normalize each
channel block into [-1, 1], denoise the stacked matrix, reshape back and
undo the block normalization. Every window has length T: windows start at
0, T, 2T, ..., and a remainder after the last of them is covered by one more
window over the record's last T samples.

Online: denoise the trailing window the same way, regress the last row of
the estimate on the other rows (no intercept), then apply the coefficients
to the rows shifted down by one sample. The last column of each channel
block of that product is the channel's next-sample prediction. The
regression has a closed form in the estimate's kept left singular vectors,
SSA's linear recurrence beta = P u / (1 - nu^2) (Golyandina, Nekrutkin &
Zhigljavsky 2001), with u their last row, P their other rows and nu^2 =
|u|^2. It exists only for nu^2 < 1, and |beta| = nu / sqrt(1 - nu^2)
grows without bound as the gap 1 - nu^2 closes, so below a gap of
_MIN_GAP = 0.2 a window holds its value: it predicts its estimate's last
sample, the recurrence with beta = (0, ..., 0, 1). That is SSA's existence
condition applied with a margin, not a rule of the paper. Then |beta| <= 2,
and as each estimate column is the projection of one with entries in
[-1, 1], every prediction lies within mid +- 2 sqrt(L) half of its window,
and every estimate within mid +- sqrt(L) half; a value that this puts beyond
the float range is clipped to it.
A window costs one thresholded factorization (osvt_batch's kernel, through
the eigenvectors of the stacked matrix's Gram matrix), and of the estimate
only the entries the prediction reads are built: rows 1..L-1 of each
block's last column. It runs in the normalized domain, which makes
predictions equivariant to constant shifts of the data.

One array-level engine serves every caller: it takes a stack of B filled
windows (B, N, W) and treats each on its own, so a window's result does not
depend on the batch it came in. Impute and a stream replay feed it chunks
of a record's windows through one driver, so both time their windows per
chunk (amortised). The driver LOCF-fills the record once and slices each
window from that fill, refilling a window's leading gap so that it holds
what locf_fill gives that window alone; predict_next fills its one window
itself, B = 1.

The stack's memory order follows the record's window starts. When every
window overlaps the one before (consecutive starts less than T apart: a
stream replay), each chunk is copied into one buffer held time-major,
(T, B, N) in memory and read as (B, N, W). Each window's row work (min,
max, leading-gap refill and normalization) then runs over contiguous runs
of B*N samples, where on sliding views numpy runs one short inner loop per
W-sample row; a replay chunk's min took about a tenth of the time. The
values, and so every result bit, are the same in either order. A record
whose windows do not all overlap (every impute record but one of T < n < 2T
samples) and predict_next's one window keep row-major views of the fill, on
which a copy measured slower.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Dataset, locf_fill
from .errors import AllMissingChannel, ConfigError, NumericError, ShapeError
from .matrices import MatrixVariant, antidiagonal_means, hankel_entries, page_entries
from .svt import OsvtBatch, osvt_batch

# perfbench's tracer and its tests read this attribute; ROADMAP item 8 removes it
osvt_estimate = None

__all__ = [
    "RecoveryConfig",
    "ForecastModel",
    "RecoveryReport",
    "impute_offline",
    "predict_next",
    "predict_stream",
]


@dataclass(frozen=True)
class RecoveryConfig:
    """Hyperparameters for imputation and prediction.

    Defaults suit offline imputation of long archives; streaming
    prediction wants a short window and a small L, for example
    harness.PREDICT_CFG. Every prediction learns its forecast
    coefficients from its own window. L and T must be integers (numpy
    integers too), overwrite_observed a bool (numpy bools too) and variant
    a MatrixVariant; anything else is a ConfigError naming the value.
    """

    L: int = 10
    T: int = 54000
    variant: MatrixVariant = MatrixVariant.PAGE
    overwrite_observed: bool = True

    def __post_init__(self):
        for name in ("L", "T"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.overwrite_observed, (bool, np.bool_)):
            raise ConfigError(
                f"overwrite_observed must be a bool, got {self.overwrite_observed!r}"
            )
        if not isinstance(self.variant, MatrixVariant):
            raise ConfigError(f"variant must be a MatrixVariant, got {self.variant!r}")
        if self.L < 2:
            raise ConfigError(f"L must be at least 2, got {self.L}")
        if self.T < self.L:
            raise ConfigError(f"L must lie in [2, T]: L={self.L}, T={self.T}")
        if self.variant is MatrixVariant.PAGE and self.T % self.L:
            raise ConfigError(
                f"window length T={self.T} must be divisible by L={self.L} "
                "for the page variant"
            )

    def echo(self) -> dict:
        return {
            "L": int(self.L),
            "T": int(self.T),
            "variant": self.variant.value,
            "overwrite_observed": bool(self.overwrite_observed),
        }


@dataclass(slots=True)
class ForecastModel:
    """A window's forecast coefficients over its estimate's rows 1..L-1 and
    the verticality gap 1 - nu^2 of its kept left vectors: the linear
    recurrence at a gap of at least 0.2, (0, ..., 0, 1) below it."""

    beta: np.ndarray
    gap: float


@dataclass
class RecoveryReport:
    """Bookkeeping for one recovery run.

    kept_rank has one entry per processed window (offline) or per step
    (online), start_sample the window's first sample in the record, and
    step_seconds the matching wall times. Windows run in chunks, so each
    time is its chunk's wall time divided by the chunk's window count
    (amortised, not a single-window latency; time predict_next for that).
    to_dict() holds the deterministic part (config, kept_rank,
    start_sample).
    """

    config: dict
    kept_rank: list[int] = field(default_factory=list)
    start_sample: list[int] = field(default_factory=list)
    step_seconds: list[float] = field(default_factory=list)

    @property
    def median_step_seconds(self) -> float:
        if not self.step_seconds:
            raise ValueError("no timings recorded")
        return float(np.median(self.step_seconds))

    def to_dict(self) -> dict:
        return {
            "config": dict(self.config),
            "kept_rank": list(self.kept_rank),
            "start_sample": list(self.start_sample),
        }


# ---------------------------------------------------------------------------
# Window engine: a stack of B windows of N channels, shape (B, N, W)
# ---------------------------------------------------------------------------

def _bad_window(
    error: type[Exception], phrase: str, bad: np.ndarray, ids: Sequence[str],
    starts: Sequence[int],
) -> Exception:
    """The error for the first window channel, in window order and then
    channel order, that bad (B, N) marks: it names the channel, what the
    phrase says it has, and the window's first sample."""
    b, i = np.argwhere(bad)[0]
    return error(
        f"channel {ids[i]!r} has {phrase} in the window starting at sample {starts[b]}"
    )


def _denoise(
    filled: np.ndarray,
    cfg: RecoveryConfig,
    ids: Sequence[str],
    starts: Sequence[int],
) -> tuple[OsvtBatch, np.ndarray, np.ndarray]:
    """Normalize, stack and threshold each LOCF-filled (N, W) window of a
    stack.

    A writeable stack is the caller's own copy, which it drops: it is
    normalized in place. starts[b] is the sample at which window b begins in
    the caller's record and ids the channel ids; both only name the culprit
    when a window channel has a non-finite observed sample. Returns the
    kernel's record of the stacked (B, L, N*cols) matrices, whose factors
    are in the per-channel normalized domain, and the per-channel scales mid
    and half (B, N, 1) mapping that domain back (value = normalized * half
    + mid).
    """
    # each row maps onto [-1, 1] on its own, so the stack needs no second
    # scale. The row's min and max are halved first: mid and half then stay
    # finite for any finite row (0.5 (hi - lo) overflows at hi = -lo =
    # 1e308), and away from subnormals they equal 0.5 (lo + hi) and
    # 0.5 (hi - lo) bit for bit
    lo = 0.5 * filled.min(axis=-1, keepdims=True)
    hi = 0.5 * filled.max(axis=-1, keepdims=True)
    mid = lo + hi
    # the fill holds observed samples only, and a NaN or infinite one makes
    # its row's mid NaN or infinite
    finite = np.isfinite(mid)
    if not finite.all():
        raise _bad_window(NumericError, "a non-finite observed sample", ~finite[..., 0],
                          ids, starts)
    # a constant row maps to zeros; one whose half-range rounds to zero
    # (samples 0 and 5e-324) keeps its subnormal offsets from mid
    half = hi - lo
    half[half == 0.0] = 1.0
    norm = np.subtract(filled, mid, out=filled if filled.flags.writeable else None)
    norm /= half
    make = page_entries if cfg.variant is MatrixVariant.PAGE else hankel_entries
    blocks = make(norm, cfg.L)  # (B, N, L, cols)
    # channel blocks side by side: row r of window b is blocks[b, :, r] flattened
    stacked = blocks.transpose(0, 2, 1, 3).reshape(len(norm), cfg.L, -1)
    return osvt_batch(stacked), mid, half


def _unstack(
    entries: np.ndarray, mid: np.ndarray, half: np.ndarray, cfg: RecoveryConfig
) -> np.ndarray:
    """Map denoised stacked matrices back to (B, N, W) windows in data units:
    page blocks unstack their columns, hankel blocks average anti-diagonals."""
    B, N = mid.shape[:2]
    blocks = entries.reshape(B, cfg.L, N, -1).transpose(0, 2, 1, 3)  # (B, N, L, cols)
    if cfg.variant is MatrixVariant.PAGE:
        w = blocks.swapaxes(-1, -2).reshape(B, N, -1)
    else:
        w = antidiagonal_means(blocks)
    return _data_units(w, mid, half, cfg.L)


# the largest finite float, to which a value beyond the float range is
# clipped, and half its ulp: a finite sum rounds past the largest float only
# when it exceeds it by at least that much
_FLOAT_MAX = float(np.finfo(float).max)
_HALF_ULP_MAX = 2.0 ** 970


def _data_units(
    norm: np.ndarray, mid: np.ndarray, half: np.ndarray, L: int
) -> np.ndarray:
    """norm * half + mid: normalized values mapped back to data units, each
    clipped to the float range. norm holds estimate entries or predictions,
    at most 2 sqrt(L) in magnitude (module docstring)."""
    # mid is finite, so while every |norm * half| stays below half an ulp of
    # the largest float (with a factor 8 to spare for rounding) the sum
    # cannot overflow: one test on the common path
    if half.max() < _HALF_ULP_MAX / (16.0 * math.sqrt(L)):
        return norm * half + mid
    with np.errstate(over="ignore"):
        out = norm * half + mid
    return np.clip(out, -_FLOAT_MAX, _FLOAT_MAX, out=out)


# Stacked-matrix cells (windows x L x columns) per engine call: enough
# windows to spread each call's fixed cost, few enough that a chunk's arrays
# stay some hundred kB. A window over the budget runs alone.
_CHUNK_CELLS = 1 << 15


def _chunk_steps(cfg: RecoveryConfig, n_channels: int) -> int:
    """Windows per engine call under the _CHUNK_CELLS budget."""
    cols = cfg.T // cfg.L if cfg.variant is MatrixVariant.PAGE else cfg.T - cfg.L + 1
    return max(1, _CHUNK_CELLS // (cfg.L * n_channels * cols))


def _windows(
    data: Dataset, cfg: RecoveryConfig, starts: np.ndarray, report: RecoveryReport
) -> Iterator[tuple[np.ndarray, OsvtBatch, np.ndarray, np.ndarray]]:
    """Run the engine on the length-T windows of data that begin at starts,
    in chunks under the _CHUNK_CELLS budget. Yields each chunk's starts and
    _denoise's results for its windows. Once the caller is done with a
    chunk, report gets its starts, kept ranks and wall time (the caller's
    work included) divided by its window count.

    The record is LOCF-filled once, and each chunk slices its windows from
    that fill. A window that begins inside a gap after an earlier
    observation finds that observation in its leading gap; the gap is
    refilled with the window's first observation, as locf_fill fills a lone
    window, so every window holds the same samples as its own fill would.

    When every window overlaps the one before, each chunk is copied
    time-major (module docstring) from a time-major copy of the fill, and
    takes each window channel's first observation from the record's
    next-observation index (a reverse minimum accumulate); the row-major
    fill is dropped. Otherwise chunks read row-major views of the fill and
    find first observations by argmax over their window masks, and the
    record pays for neither the copy nor the index.
    """
    values, masks = data.values_matrix(), data.masks_matrix()
    T, n, N = cfg.T, len(data), len(data.ids)
    # consecutive windows overlap in a stream replay (docstring)
    overlap = len(starts) > 1 and bool((np.diff(starts) < T).all())
    try:
        # the fill as (samples, N), a view of the row-major fill
        fill = locf_fill(values, masks).T
    except AllMissingChannel:
        # a channel with no observed sample misses from the first window too
        window = masks[None, :, starts[0]:starts[0] + T]
        raise _bad_window(AllMissingChannel, "no observed sample", ~window.any(axis=-1),
                          data.ids, starts[:1]) from None
    if overlap:
        # held time-major; the row-major fill is dropped
        fill = fill.copy()
        # each sample's next observed index on each channel, n where none
        # follows
        next_seen = np.where(masks.T, np.arange(n)[:, None], n)
        np.minimum.accumulate(next_seen[::-1], axis=0, out=next_seen[::-1])
    else:
        # mask_windows[j] is masks[:, j:j+T], a view
        mask_windows = sliding_window_view(masks, T, axis=1).transpose(1, 0, 2)
    # before a channel's first observation the fill holds that observation,
    # as a window's own fill would
    first_seen = masks.argmax(axis=-1)[:, None]
    # windows[j] is fill[j:j+T].T, a (N, T) view
    windows = sliding_window_view(fill, T, axis=0)
    chunk = _chunk_steps(cfg, N)
    for b0 in range(0, len(starts), chunk):
        t0 = time.perf_counter()
        part = starts[b0:b0 + chunk]
        # evenly spaced starts index as a slice, which takes views
        step = part[1] - part[0] if len(part) > 1 else 1
        at = slice(part[0], part[-1] + 1, step) if (np.diff(part) == step).all() else part
        if overlap:
            # each window channel's first observed sample, T or more after
            # the window's start when it has none
            first = next_seen[part] - part[:, None]
            observed = first < T
            # copied into one buffer that is (T, B, N) in memory (module
            # docstring)
            filled_at = np.empty((T, len(part), N)).transpose(1, 2, 0)
            filled_at[...] = windows[at]
        else:
            # argmax gives the first observed sample, 0 when there is none
            mask_at = mask_windows[at]
            first = mask_at.argmax(axis=-1)
            observed = np.take_along_axis(mask_at, first[..., None], axis=-1)[..., 0]
            filled_at = windows[at]
        if not observed.all():
            raise _bad_window(AllMissingChannel, "no observed sample", ~observed,
                              data.ids, part)
        # a window that begins in a gap after an observation holds that
        # earlier observation up to its own first one, which replaces it
        if ((first_seen < part) & ~masks[:, part]).any():
            # views of the fill are read-only; copies are not
            if not filled_at.flags.writeable:
                filled_at = filled_at.copy()
            # through a gap mask in the windows' memory order
            np.copyto(filled_at, fill[part[:, None] + first, np.arange(N)][..., None],
                      where=np.less(np.arange(T), first[..., None],
                                    out=np.empty_like(filled_at, dtype=bool)))
        osvt, mid, half = _denoise(filled_at, cfg, data.ids, part)
        yield part, osvt, mid, half
        elapsed = time.perf_counter() - t0
        report.start_sample.extend(part.tolist())
        report.kept_rank.extend(osvt.kept_rank.tolist())
        report.step_seconds.extend([elapsed / len(part)] * len(part))


# below this verticality gap 1 - nu^2 a window holds its value (module docstring)
_MIN_GAP = 0.2


def _forecast(
    osvt: OsvtBatch, mid: np.ndarray, half: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Next-sample predictions (B, N) of the windows _denoise returned, with
    their forecast coefficients (B, L-1) and verticality gaps (B,): the
    recurrence where the gap is at least _MIN_GAP, the held value elsewhere
    (module docstring). Only the (L-1) x N estimate entries the coefficients
    apply to are built. A zero estimate keeps no vector: it predicts mid."""
    U = osvt.U
    u = U[:, -1]  # of the kept vectors: U's other columns are zero
    gap = 1.0 - (u * u).sum(axis=-1)
    beta = (U[:, :-1] @ u[..., None])[..., 0] / np.maximum(gap, _MIN_GAP)[:, None]
    held = gap < _MIN_GAP
    if held.any():
        beta[held] = np.eye(beta.shape[1])[-1]
    cols = osvt.Vt.shape[-1] // mid.shape[1]
    last = osvt.estimate(slice(1, None), slice(cols - 1, None, cols))  # (B, L-1, N)
    norm = (beta[:, None, :] @ last)[:, 0]
    return _data_units(norm, mid[..., 0], half[..., 0], last.shape[1] + 1), beta, gap


# ---------------------------------------------------------------------------
# Offline imputation
# ---------------------------------------------------------------------------

def impute_offline(data: Dataset, cfg: RecoveryConfig) -> tuple[Dataset, RecoveryReport]:
    """Denoise and impute a recorded dataset window by window.

    Every window has length T. Windows start at 0, T, 2T, ...; when samples
    remain after the last of them, one more window [n-T, n) runs and writes
    only the samples that no earlier window covered. Every sample gets an
    estimate, so the result is fully observed (observed samples are restored
    when overwrite_observed is False). The report's kept_rank and
    start_sample list each window's kept rank and first sample in that order.
    """
    n = len(data)
    if n < cfg.T:
        raise ShapeError(f"dataset length {n} is shorter than the window T={cfg.T}")
    starts = np.arange(0, n, cfg.T)
    starts[-1] = min(starts[-1], n - cfg.T)

    out = np.empty((len(data.ids), n))
    report = RecoveryReport(config=cfg.echo())
    written = 0
    for part, osvt, mid, half in _windows(data, cfg, starts, report):
        for start, window in zip(part, _unstack(osvt.estimate(), mid, half, cfg)):
            out[:, written:start + cfg.T] = window[:, written - start:]
            written = start + cfg.T
    if not cfg.overwrite_observed:
        np.copyto(out, data.values_matrix(), where=data.masks_matrix())
    return Dataset._adopt(data.timestamps, out, np.ones(out.shape, dtype=bool),
                          data.ids), report


# ---------------------------------------------------------------------------
# Online prediction
# ---------------------------------------------------------------------------

def predict_next(
    window: Dataset, cfg: RecoveryConfig
) -> tuple[dict[str, float], ForecastModel]:
    """Predict each channel's next sample from a length-T trailing window.

    Returns the predictions by channel id and the ForecastModel learned
    from this window: its coefficients and verticality gap.
    """
    if len(window) != cfg.T:
        raise ShapeError(f"window length {len(window)} != configured T={cfg.T}")
    ids = window.ids
    values, masks = window.values_matrix(), window.masks_matrix()
    try:
        filled = locf_fill(values, masks)
    except AllMissingChannel:
        raise _bad_window(AllMissingChannel, "no observed sample", ~masks.any(axis=-1)[None],
                          ids, (0,)) from None
    osvt, mid, half = _denoise(filled[None], cfg, ids, (0,))
    preds, beta, gap = _forecast(osvt, mid, half)
    model = ForecastModel(beta=beta[0], gap=float(gap[0]))
    return dict(zip(ids, preds[0])), model


def predict_stream(data: Dataset, cfg: RecoveryConfig) -> tuple[Dataset, RecoveryReport]:
    """Replay a recorded dataset as a stream of one-step-ahead predictions.

    For every step j the window [j, j+T) is denoised and the sample at index
    j+T is predicted for every channel, so the result aligns with
    data.timestamps[T:]. Each step learns its forecast coefficients from its
    own window. Steps run in chunks through the window engine, and each
    equals predict_next on its window.
    """
    n = len(data)
    steps = n - cfg.T
    if steps < 1:
        raise ShapeError(f"dataset length {n} must exceed the window T={cfg.T}")
    preds = np.empty((len(data.ids), steps))
    report = RecoveryReport(config=cfg.echo())
    # step j's window starts at sample j
    for j, osvt, mid, half in _windows(data, cfg, np.arange(steps), report):
        preds[:, j] = _forecast(osvt, mid, half)[0].T
    preds = Dataset._adopt(
        data.timestamps[cfg.T:], preds, np.ones(preds.shape, dtype=bool), data.ids,
    )
    return preds, report
