"""Batched stream replay against the per-step loop it replaced.

step_loop is predict_stream as it ran before batching: one window at a time,
built from the public pieces (locf_fill, page_entries/hankel_entries, and
osvt_batch on the stacked matrix scaled onto [-1, 1] as a whole, see
threshold_whole) with the forecast fitted by np.linalg.lstsq on the
estimate, or the value held where the SVD of that estimate puts the
verticality gap 1 - |U_k[-1]|^2 of its kept left vectors below 0.2. The
batched replay reads its forecast in closed form off the kept singular
vectors of the threshold kernel's own factorization, so the two differ by
rounding. A gap of at least 0.2 amplifies that rounding at most 5-fold:
1e-12 bounds it on the degraded streams (the worst window is about 2e-14
off), and kept ranks must match exactly.
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
    predict_next,
    predict_stream,
)
from pagerec.matrices import hankel_entries, page_entries
from pagerec.recovery import _chunk_steps
from pagerec.svt import osvt_batch


def threshold_whole(X):
    """The thresholded estimate of the matrix X and its kept rank: X mapped
    affinely onto [-1, 1] as a whole (the halves of its min and max
    combined), thresholded by osvt_batch and mapped back. A constant X is
    its own estimate, of rank 1."""
    a, b = X.min(), X.max()
    half = 0.5 * b - 0.5 * a
    if half == 0.0:
        return X.copy(), 1
    mid = 0.5 * a + 0.5 * b
    out = osvt_batch(((X - mid) / half)[None])
    return out.estimate()[0] * half + mid, int(out.kept_rank[0])


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
        D, rank = threshold_whole(np.hstack(blocks))
        U = np.linalg.svd(D)[0][:, :rank]
        if 1.0 - U[-1] @ U[-1] >= 0.2:
            beta = np.linalg.lstsq(D[:-1].T, D[-1], rcond=None)[0]
        else:
            beta = np.eye(cfg.L - 1)[-1]  # hold the estimate's last sample
        shifted = beta @ D[1:]
        cols = blocks[0].shape[1]
        for i, (mid, half) in enumerate(scales):
            preds[i, j] = shifted[(i + 1) * cols - 1] * half + mid
        ranks.append(rank)
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
    assert np.abs(got.values_matrix() - expect).max() <= 1e-12


@pytest.mark.parametrize("variant", [MatrixVariant.PAGE, MatrixVariant.HANKEL])
def test_stream_with_stuck_channel_matches_step_loop(variant):
    cfg = RecoveryConfig(L=5, T=30, variant=variant)
    data = stream(0.3, stuck=True)
    expect, expect_ranks = step_loop(data, cfg)
    got, report = predict_stream(data, cfg)
    assert report.kept_rank == expect_ranks
    assert np.abs(got.values_matrix() - expect).max() <= 1e-12


def assert_next_equals_stream(data, cfg):
    """predict_next on each step's window, built with the public
    constructors, equals predict_stream's prediction to the last bit."""
    preds = predict_stream(data, cfg)[0].values_matrix()
    t, values, masks = data.timestamps, data.values_matrix(), data.masks_matrix()
    for j in range(len(data) - cfg.T):
        w = slice(j, j + cfg.T)
        window = Dataset(
            tuple(
                ChannelSeries(c.channel_id, c.kind, t[w], values[i, w], masks[i, w])
                for i, c in enumerate(data.channels)
            ),
            data.rate_fps,
        )
        out, _ = predict_next(window, cfg)
        assert np.array_equal([out[c] for c in data.ids], preds[:, j]), j


@pytest.mark.parametrize("variant", [MatrixVariant.PAGE, MatrixVariant.HANKEL])
def test_predict_next_equals_stream_at_every_step(variant):
    # the same engine on the same window: equal to the last bit, also on a
    # fully observed stream
    cfg = RecoveryConfig(L=5, T=30, variant=variant)
    for drop in (0.0, 0.3):
        assert_next_equals_stream(stream(drop), cfg)


@pytest.mark.parametrize("variant", [MatrixVariant.PAGE, MatrixVariant.HANKEL])
def test_predict_next_equals_stream_under_drops_in_runs(variant):
    # channels 1 and 3 drop runs of 5-20 samples between observed runs of
    # 1-3, so most windows begin inside a gap after an earlier observation:
    # the replay refills those windows' leading gaps from its one fill of
    # the record, where predict_next fills each window on its own
    cfg = RecoveryConfig(L=5, T=30, variant=variant)
    data = stream(0.0)
    masks = data.masks_matrix().copy()
    rng = np.random.default_rng(9)
    for i in (1, 3):
        j = int(rng.integers(1, 4))
        while j < len(data):
            gap = int(rng.integers(5, 21))
            masks[i, j:j + gap] = False
            j += gap + int(rng.integers(1, 4))
    data = data.with_values(data.values_matrix(), masks)
    # the replay crosses several chunk boundaries
    assert STEPS > 2 * _chunk_steps(cfg, N_CHANNELS)
    assert (~masks[[1, 3], :STEPS]).mean() > 0.7
    assert_next_equals_stream(data, cfg)


@pytest.mark.parametrize("variant", [MatrixVariant.PAGE, MatrixVariant.HANKEL])
def test_predict_next_equals_stream_when_one_window_starts_in_a_gap(variant):
    # channel 2 misses sample 1 alone, so window 1 is the only one of its
    # chunk that begins in a gap after an observation; channel 0 misses
    # sample 401 alone, in a later chunk
    cfg = RecoveryConfig(L=5, T=30, variant=variant)
    data = stream(0.0)
    masks = data.masks_matrix().copy()
    masks[2, 1] = masks[0, 401] = False
    assert _chunk_steps(cfg, N_CHANNELS) < 401
    assert_next_equals_stream(data.with_values(data.values_matrix(), masks), cfg)


@pytest.mark.parametrize("variant", [MatrixVariant.PAGE, MatrixVariant.HANKEL])
def test_predict_next_equals_stream_when_the_record_begins_in_a_gap(variant):
    # every channel misses samples 0-2, so the first windows' leading gaps
    # are back-filled from each channel's first observation of the record,
    # and channel 1 also misses a run across the first chunk boundary, so
    # the last window of one chunk and the first of the next begin in it
    cfg = RecoveryConfig(L=5, T=30, variant=variant)
    data = stream(0.3)
    masks = data.masks_matrix().copy()
    masks[:, :3] = False
    boundary = _chunk_steps(cfg, N_CHANNELS)
    masks[1, boundary - 12:boundary + 9] = False
    assert STEPS > 2 * boundary
    assert not masks[:, :3].any() and masks[1, :boundary - 12].any()
    assert_next_equals_stream(data.with_values(data.values_matrix(), masks), cfg)


def extreme_stream():
    """Four channels of 240 samples, 20% of timestamps dropped: channel 1
    alternates -1e308 and 1e308, and channel 3 is a 1.3 Hz sine whose
    amplitude is the largest float, so its forecasts overshoot the range
    wherever a window's prediction lies beyond its samples."""
    corpus = benchmark_corpus(n_channels=4, n_samples=240, seed=1)
    values = corpus.dataset.values_matrix().copy()
    values[1] = np.where(np.arange(240) % 2 == 1, 1e308, -1e308)
    values[3] = np.finfo(float).max * np.sin(2 * np.pi * 1.3 * corpus.dataset.timestamps)
    return degrade(corpus.dataset.with_values(values), DegradeSpec(drop_rate=0.2, seed=1))


@pytest.mark.parametrize("variant", [MatrixVariant.PAGE, MatrixVariant.HANKEL])
def test_predictions_beyond_the_float_range_are_clipped_to_it(variant):
    # mapped back, a normalized prediction above 1 in magnitude can leave the
    # float range; it is clipped to the largest float, without an overflow
    # warning, and predict_next still equals the replay
    cfg = RecoveryConfig(L=5, T=30, variant=variant)
    data = extreme_stream()
    preds = predict_stream(data, cfg)[0].values_matrix()
    assert np.isfinite(preds).all()
    assert (np.abs(preds) == np.finfo(float).max).any()
    assert_next_equals_stream(data, cfg)
