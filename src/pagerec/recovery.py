"""Windowed imputation and online one-step-ahead prediction.

Offline: split the series into length-T windows, fill gaps, normalize each
channel block into [-1, 1], denoise the stacked matrix, reshape back and
undo the block normalization.

Online: denoise the trailing window the same way, regress the last matrix
row on the other rows (no intercept), then apply the coefficients to the
rows shifted down by one sample. The last column of each channel block of
that product is the channel's next-sample prediction. The regression runs in
the normalized domain, which makes predictions equivariant to constant
shifts of the data.

One array-level engine serves every caller: it takes a stack of B windows
(B, N, W) and treats each on its own, so a window's result does not depend
on the batch it came in. A stream replay knows every window in advance and
feeds them in chunks; single windows go through it with B = 1.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Dataset, locf_fill
from .errors import AllMissingChannel, ConfigError, NumericError, ShapeError
from .matrices import MatrixVariant, antidiagonal_means, hankel_entries, page_entries
# the engine calls osvt_batch; osvt_estimate stays bound here because
# perfbench's tracer wraps it at this module's attribute
from .svt import osvt_batch, osvt_estimate  # noqa: F401

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
    RecoveryConfig(L=5, T=30). Every prediction learns its forecast
    coefficients from its own window.
    """

    L: int = 10
    T: int = 54000
    variant: MatrixVariant = MatrixVariant.PAGE
    overwrite_observed: bool = True

    def __post_init__(self):
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
            "L": self.L,
            "T": self.T,
            "variant": self.variant.value,
            "overwrite_observed": self.overwrite_observed,
        }


@dataclass(frozen=True)
class ForecastModel:
    """Least-squares coefficients expressing the last matrix row as a
    combination of the first L-1 rows."""

    beta: np.ndarray
    residual_norm: float


@dataclass
class RecoveryReport:
    """Bookkeeping for one recovery run.

    kept_rank has one entry per processed window (offline) or per step
    (online); step_seconds the matching wall times. A stream replay computes
    its steps in chunks, so each stream step's time is its chunk's wall time
    divided by the chunk's step count (amortised, not a single-step
    latency; time predict_next for that). to_dict() holds the deterministic
    part (config, kept_rank, trimmed_tail); the wall times stay out of it.
    """

    config: dict
    kept_rank: list[int] = field(default_factory=list)
    step_seconds: list[float] = field(default_factory=list)
    trimmed_tail: int = 0

    @property
    def median_step_seconds(self) -> float:
        if not self.step_seconds:
            raise ValueError("no timings recorded")
        return float(np.median(self.step_seconds))

    def to_dict(self) -> dict:
        return {
            "config": dict(self.config),
            "kept_rank": list(self.kept_rank),
            "trimmed_tail": self.trimmed_tail,
        }


# ---------------------------------------------------------------------------
# Window engine: a stack of B windows of N channels, shape (B, N, W)
# ---------------------------------------------------------------------------

def _denoise(
    values: np.ndarray,
    masks: np.ndarray | None,
    cfg: RecoveryConfig,
    ids: Sequence[str],
    starts: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fill, normalize, stack and threshold each (N, W) window of a stack.

    masks None means fully observed. starts[b] is the sample at which window
    b begins in the caller's record and ids the channel ids; both only name
    the culprit when a window channel has no observed sample or a non-finite
    observed one. Returns the denoised stacked matrices (B, L, N*cols) in
    the per-channel normalized domain, the per-channel scales mid and half
    (B, N, 1) mapping that domain back (value = normalized * half + mid),
    and the kept ranks (B,).
    """
    if masks is None:
        filled = values
    else:
        try:
            filled = locf_fill(values, masks)
        except AllMissingChannel:
            b, i = np.argwhere(~masks.any(axis=-1))[0]
            raise AllMissingChannel(
                f"channel {ids[i]!r} has no observed sample in the window "
                f"starting at sample {starts[b]}"
            ) from None
    # the fill holds observed samples only, and a NaN or infinite one shows
    # in its row's lo or hi
    lo = filled.min(axis=-1, keepdims=True)
    hi = filled.max(axis=-1, keepdims=True)
    finite = np.isfinite(lo) & np.isfinite(hi)
    if not finite.all():
        b, i, _ = np.argwhere(~finite)[0]
        raise NumericError(
            f"channel {ids[i]!r} has a non-finite observed sample in the "
            f"window starting at sample {starts[b]}"
        )
    # each row maps onto [-1, 1] on its own, so the stack needs no second
    # scale; a constant row is centred on its value and maps to zeros
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    half[lo == hi] = 1.0
    norm = (filled - mid) / half
    make = page_entries if cfg.variant is MatrixVariant.PAGE else hankel_entries
    blocks = make(norm, cfg.L)  # (B, N, L, cols)
    # channel blocks side by side: row r of window b is blocks[b, :, r] flattened
    stacked = blocks.transpose(0, 2, 1, 3).reshape(len(norm), cfg.L, -1)
    out = osvt_batch(stacked)
    return out.estimate, mid, half, out.kept_rank


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
        w = antidiagonal_means(blocks, cfg.L + blocks.shape[-1] - 1)
    return w * half + mid


_EPS = np.finfo(float).eps


def _fit(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm least-squares coefficients (B, L-1) expressing the last
    row of each (L, n) matrix through its first L-1 rows, and the residual
    norms (B,). Singular values at or below lstsq's default cutoff,
    eps * max(n, L-1) * s_max, count as zero."""
    G, H = entries[:, :-1], entries[:, -1:]
    U, s, Vt = np.linalg.svd(G, full_matrices=False)
    cutoff = _EPS * max(G.shape[1:]) * s[:, :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    beta = (U @ (inv[..., None] * (Vt @ H.swapaxes(1, 2))))[..., 0]
    r = (beta[:, None, :] @ G - H)[:, 0]
    return beta, np.sqrt((r * r).sum(axis=-1))  # np.linalg.norm's sum, minus its checks


def _forecast(
    entries: np.ndarray, beta: np.ndarray, mid: np.ndarray, half: np.ndarray
) -> np.ndarray:
    """Next-sample predictions (B, N): each window's coefficients applied to
    its rows shifted one sample forward, at the last column of each block."""
    cols = entries.shape[-1] // mid.shape[1]
    last = entries[:, 1:, cols - 1::cols]  # (B, L-1, N)
    return (beta[:, None, :] @ last)[:, 0] * half[..., 0] + mid[..., 0]


# ---------------------------------------------------------------------------
# Offline imputation
# ---------------------------------------------------------------------------

def _window_spans(n: int, cfg: RecoveryConfig) -> tuple[list[tuple[int, int]], int]:
    """Full-length windows plus a trailing short window trimmed to a multiple
    of L; returns the spans and the length of the untouched tail."""
    spans = [(s, s + cfg.T) for s in range(0, n - cfg.T + 1, cfg.T)]
    done = spans[-1][1] if spans else 0
    remainder = n - done
    short = (remainder // cfg.L) * cfg.L
    if short >= cfg.L:
        spans.append((done, done + short))
        done += short
    return spans, n - done


def impute_offline(data: Dataset, cfg: RecoveryConfig) -> tuple[Dataset, RecoveryReport]:
    """Denoise and impute a recorded dataset window by window.

    Every sample inside a processed window gets an estimate (observed ones
    are restored afterwards when overwrite_observed is False). Windows start
    at every multiple of T; a trailing remainder is processed as one short
    window trimmed to a multiple of L, and what is left after that (fewer
    than L samples) is passed through untouched and counted in the report's
    trimmed_tail, with its original mask retained. The report's kept_rank
    lists each window's kept rank in that order, the short window last.
    """
    n = len(data)
    if n < cfg.T:
        raise ShapeError(f"dataset length {n} is shorter than the window T={cfg.T}")
    values = data.values_matrix()
    masks = data.masks_matrix()
    spans, tail = _window_spans(n, cfg)

    out = values.copy()
    out_masks = masks.copy()
    report = RecoveryReport(config=cfg.echo(), trimmed_tail=tail)
    for start, stop in spans:
        t0 = time.perf_counter()
        w_values, w_masks = values[None, :, start:stop], masks[None, :, start:stop]
        entries, mid, half, ranks = _denoise(w_values, w_masks, cfg, data.ids, (start,))
        denoised = _unstack(entries, mid, half, cfg)[0]
        if not cfg.overwrite_observed:
            obs = w_masks[0]
            denoised[obs] = w_values[0][obs]
        out[:, start:stop] = denoised
        out_masks[:, start:stop] = True
        report.kept_rank.append(int(ranks[0]))
        report.step_seconds.append(time.perf_counter() - t0)
    return data.with_values(out, out_masks), report


# ---------------------------------------------------------------------------
# Online prediction
# ---------------------------------------------------------------------------

# Stacked-matrix cells (windows x L x columns) per engine call in a stream
# replay: enough windows to spread each call's fixed cost, few enough that a
# chunk's arrays stay some hundred kB.
_CHUNK_CELLS = 1 << 15


def _chunk_steps(cfg: RecoveryConfig, n_channels: int) -> int:
    """Stream steps per engine call under the _CHUNK_CELLS budget."""
    cols = cfg.T // cfg.L if cfg.variant is MatrixVariant.PAGE else cfg.T - cfg.L + 1
    return max(1, _CHUNK_CELLS // (cfg.L * n_channels * cols))


def predict_next(
    window: Dataset, cfg: RecoveryConfig
) -> tuple[dict[str, float], ForecastModel]:
    """Predict each channel's next sample from a length-T trailing window.

    Returns the predictions by channel id and the forecast coefficients
    learned from this window, with their residual norm.
    """
    if len(window) != cfg.T:
        raise ShapeError(f"window length {len(window)} != configured T={cfg.T}")
    ids = window.ids
    entries, mid, half, _ = _denoise(
        window.values_matrix()[None], window.masks_matrix()[None], cfg, ids, (0,)
    )
    beta, residual = _fit(entries)
    preds = _forecast(entries, beta, mid, half)[0]
    model = ForecastModel(beta=beta[0], residual_norm=float(residual[0]))
    return dict(zip(ids, preds)), model


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
    values = data.values_matrix()
    masks = data.masks_matrix()
    # windows[j] is the record's [:, j:j+T], a view
    windows = sliding_window_view(values, cfg.T, axis=1).transpose(1, 0, 2)
    window_masks = None
    if not masks.all():
        window_masks = sliding_window_view(masks, cfg.T, axis=1).transpose(1, 0, 2)
    N = values.shape[0]
    chunk = _chunk_steps(cfg, N)

    preds = np.empty((N, steps))
    report = RecoveryReport(config=cfg.echo())
    for j0 in range(0, steps, chunk):
        t0 = time.perf_counter()
        stop = min(j0 + chunk, steps)
        part, j = slice(j0, stop), np.arange(j0, stop)
        entries, mid, half, ranks = _denoise(
            windows[part],
            None if window_masks is None else window_masks[part],
            cfg, data.ids, j,
        )
        preds[:, part] = _forecast(entries, _fit(entries)[0], mid, half).T
        elapsed = time.perf_counter() - t0
        report.step_seconds.extend([elapsed / len(j)] * len(j))
        report.kept_rank.extend(ranks.tolist())

    preds = Dataset.from_arrays(
        data.timestamps[cfg.T:], preds, np.ones(preds.shape, dtype=bool),
        data.ids, data.kinds, data.rate_fps,
    )
    return preds, report
