"""Batched stream replay against the per-step loop it replaced.

step_loop is predict_stream as it ran before batching: one window at a time,
built from the public pieces (locf_fill, page_entries/hankel_entries,
osvt_estimate) with the forecast fitted by np.linalg.lstsq on the estimate.
The batched replay reads its forecast coefficients in closed form off the
kept singular vectors of the threshold kernel's own SVD, so the two differ
by rounding, which an ill-conditioned window amplifies: 1e-8 bounds that,
and kept ranks must match exactly.
"""

import numpy as np
import pytest

from pagerec import (
    ChannelSeries,
    Dataset,
    DegradeSpec,
    MatrixVariant,
    RecoveryConfig,
    benchmark_corpus,
    degrade,
    locf_fill,
    osvt_estimate,
    predict_next,
    predict_stream,
)
from pagerec.matrices import hankel_entries, page_entries
from pagerec.recovery import _chunk_steps


def step_loop(data, cfg):
    """Reference replay: predictions (N, steps) and kept ranks, step by step."""
    values, masks = data.values_matrix(), data.masks_matrix()
    N, n = values.shape
    steps = n - cfg.T
    make = page_entries if cfg.variant is MatrixVariant.PAGE else hankel_entries
    preds = np.empty((N, steps))
    ranks = []
    for j in range(steps):
        w = slice(j, j + cfg.T)
        blocks, scales = [], []
        for i in range(N):
            row = locf_fill(values[i, w], masks[i, w])
            lo, hi = row.min(), row.max()
            mid, half = (0.5 * (lo + hi), 0.5 * (hi - lo)) if hi > lo else (lo, 1.0)
            blocks.append(make((row - mid) / half, cfg.L))
            scales.append((mid, half))
        outcome = osvt_estimate(np.hstack(blocks))
        D = outcome.estimate
        beta = np.linalg.lstsq(D[:-1].T, D[-1], rcond=None)[0]
        shifted = beta @ D[1:]
        cols = blocks[0].shape[1]
        for i, (mid, half) in enumerate(scales):
            preds[i, j] = shifted[(i + 1) * cols - 1] * half + mid
        ranks.append(outcome.kept_rank)
    return preds, ranks


N_CHANNELS, STEPS = 5, 700


def stream(drop, stuck=False):
    """The degraded test stream; stuck=True pins channel 2 at 60.0, a sensor
    that keeps reporting one value through the drops."""
    corpus = benchmark_corpus(n_channels=N_CHANNELS, n_samples=30 + STEPS, seed=21)
    spec = DegradeSpec(drop_rate=drop, noise_rate=0.02, seed=4)
    data = degrade(corpus.dataset, spec, noise_base=corpus.steady_median)
    if stuck:
        values = data.values_matrix().copy()
        values[2] = 60.0
        data = data.with_values(values, data.masks_matrix())
    return data


@pytest.mark.parametrize("drop", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("variant", [MatrixVariant.PAGE, MatrixVariant.HANKEL])
def test_stream_matches_step_loop(variant, drop):
    cfg = RecoveryConfig(L=5, T=30, variant=variant)
    # the replay crosses several chunk boundaries
    assert STEPS > 2 * _chunk_steps(cfg, N_CHANNELS)
    data = stream(drop)
    assert data.masks_matrix().all() == (drop == 0.0)
    expect, expect_ranks = step_loop(data, cfg)
    got, report = predict_stream(data, cfg)
    assert report.kept_rank == expect_ranks
    assert np.abs(got.values_matrix() - expect).max() <= 1e-8


@pytest.mark.parametrize("variant", [MatrixVariant.PAGE, MatrixVariant.HANKEL])
def test_stream_with_stuck_channel_matches_step_loop(variant):
    cfg = RecoveryConfig(L=5, T=30, variant=variant)
    data = stream(0.3, stuck=True)
    expect, expect_ranks = step_loop(data, cfg)
    got, report = predict_stream(data, cfg)
    assert report.kept_rank == expect_ranks
    assert np.abs(got.values_matrix() - expect).max() <= 1e-8


@pytest.mark.parametrize("variant", [MatrixVariant.PAGE, MatrixVariant.HANKEL])
def test_predict_next_equals_stream_at_every_step(variant):
    cfg = RecoveryConfig(L=5, T=30, variant=variant)
    data = stream(0.3)
    preds = predict_stream(data, cfg)[0].values_matrix()
    t, values, masks = data.timestamps, data.values_matrix(), data.masks_matrix()
    for j in range(STEPS):
        w = slice(j, j + cfg.T)
        window = Dataset(
            tuple(
                ChannelSeries(c.channel_id, c.kind, t[w], values[i, w], masks[i, w])
                for i, c in enumerate(data.channels)
            ),
            data.rate_fps,
        )
        out, _ = predict_next(window, cfg)
        assert np.abs(np.array([out[c] for c in data.ids]) - preds[:, j]).max() <= 1e-12
