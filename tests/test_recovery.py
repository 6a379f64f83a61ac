"""Offline imputation, forecast regression and streaming prediction."""

import json
import re

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from pagerec import (
    AllMissingChannel,
    ChannelKind,
    ChannelSeries,
    ConfigError,
    Dataset,
    DegradeSpec,
    MatrixVariant,
    NumericError,
    RecoveryConfig,
    Scenario,
    ShapeError,
    benchmark_corpus,
    degrade,
    impute_offline,
    locf_baseline,
    locf_fill,
    mape,
    predict_next,
    predict_stream,
    results_to_dict,
    run_benchmark,
)
from pagerec import recovery
from pagerec.matrices import page_entries
from pagerec.recovery import _chunk_steps, _forecast
from pagerec.svt import OsvtBatch, osvt_batch


def lrf_oracle(n, coeffs, init):
    """Ground truth by direct recursion."""
    f = np.empty(n)
    g = len(coeffs)
    f[:g] = init
    for t in range(g, n):
        f[t] = sum(a * f[t - k] for k, a in enumerate(coeffs, start=1))
    return f


def dataset_from_rows(rows, rate=60.0):
    t = np.arange(rows.shape[1]) / rate
    chans = tuple(
        ChannelSeries(f"c{i}", ChannelKind.GENERIC, t, rows[i], np.ones(rows.shape[1], bool))
        for i in range(rows.shape[0])
    )
    return Dataset(chans, rate)


def geometric_mode_dataset(n, n_channels=12, seed=7):
    """Channels are scalar multiples of one geometric mode of the recurrence
    f(t) = 1.8 f(t-1) - 0.81 f(t-2); every window matrix is exactly low rank."""
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.5, 2.0, n_channels) * rng.choice([-1.0, 1.0], n_channels)
    rows = np.vstack([lrf_oracle(n, (1.8, -0.81), (s, 0.9 * s)) for s in scales])
    return dataset_from_rows(rows), rows


def two_tone_dataset(n=200, n_channels=4, rate=60.0, seed=3):
    """Offset two-tone mixes. Each tone completes an odd number of cycles
    over the window (3.3 Hz -> 11, 7.5 Hz -> 25 at n=200), so the sampled
    range is exactly symmetric, the normalization shift cancels, and the
    stacked matrix is exactly rank 4."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    rows = []
    for _ in range(n_channels):
        a, b = rng.uniform(0.5, 1.0, 2)
        p1, p2 = rng.uniform(0, 2 * np.pi, 2)
        off = rng.uniform(0.3, 0.8) * rng.choice([-1.0, 1.0])
        rows.append(off + a * np.sin(2 * np.pi * 3.3 * t + p1)
                    + b * np.sin(2 * np.pi * 7.5 * t + p2))
    rows = np.vstack(rows)
    return dataset_from_rows(rows, rate), rows


# ---------------------------------------------------------------------------
# RecoveryConfig
# ---------------------------------------------------------------------------

def test_config_rejects_indivisible_page_window():
    with pytest.raises(ConfigError, match="divisible"):
        RecoveryConfig(L=7, T=600)


def test_config_hankel_allows_any_window():
    cfg = RecoveryConfig(L=7, T=600, variant=MatrixVariant.HANKEL)
    assert cfg.T == 600


def test_config_bounds():
    with pytest.raises(ConfigError):
        RecoveryConfig(L=1, T=30)
    with pytest.raises(ConfigError):
        RecoveryConfig(L=40, T=30)


@pytest.mark.parametrize("kwargs, message", [
    # a variant's name is not a variant: T=31 would pass as a hankel window
    (dict(L=5, T=30, variant="page"), "variant must be a MatrixVariant, got 'page'"),
    (dict(L=5, T=31, variant="page"), "variant must be a MatrixVariant, got 'page'"),
    (dict(L=5, T=30, variant=None), "variant must be a MatrixVariant, got None"),
    (dict(L=5.0, T=60), "L must be an integer, got 5.0"),
    (dict(L=5, T=60.0), "T must be an integer, got 60.0"),
    (dict(L="5", T=60), "L must be an integer, got '5'"),
])
def test_config_rejects_a_variant_or_window_of_the_wrong_type(kwargs, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        RecoveryConfig(**kwargs)


def test_config_accepts_numpy_integers():
    cfg = RecoveryConfig(L=np.int64(5), T=np.int32(30))
    assert (cfg.L, cfg.T) == (5, 30)


def test_report_of_a_numpy_integer_config_saves_as_json():
    # the echoed config holds plain ints, so report.json can be written
    corpus = benchmark_corpus(n_channels=3, n_samples=240, seed=1)
    report = impute_offline(corpus.dataset, RecoveryConfig(L=np.int64(10), T=np.int64(120)))[1]
    assert type(report.config["L"]) is int and type(report.config["T"]) is int
    config = json.loads(json.dumps(report.to_dict()))["config"]
    assert (config["L"], config["T"]) == (10, 120)


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, 0.0])
def test_config_rejects_an_overwrite_flag_that_is_not_a_bool(flag):
    # a truthy "false" would overwrite observed samples and be echoed into
    # report.json as given
    message = f"overwrite_observed must be a bool, got {flag!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        RecoveryConfig(L=5, T=30, overwrite_observed=flag)


@pytest.mark.parametrize("flag", [True, False, np.bool_(True), np.bool_(False)])
def test_config_accepts_python_and_numpy_bools(flag):
    cfg = RecoveryConfig(L=5, T=30, overwrite_observed=flag)
    echoed = json.loads(json.dumps(cfg.echo()))["overwrite_observed"]
    assert echoed is bool(flag)


# ---------------------------------------------------------------------------
# the engine's forecast fit
# ---------------------------------------------------------------------------

def forecast_one(m, n_channels=1, kept=None):
    """_forecast on one matrix's exact SVD factors, read as n_channels equal
    channel blocks with mid 0 and half 1, the vectors of its first kept
    triples of nonzero value kept (by default as many as the matrix's rank,
    at least one, as the kernel keeps) and the others zero, as the kernel
    returns them: the predictions (n_channels,), the coefficients (L-1,),
    the gap and the estimate."""
    U, s, Vt = np.linalg.svd(m, full_matrices=False)
    k = kept or max(np.linalg.matrix_rank(m), 1)
    keep = (np.arange(len(s)) < k) & (s > 0)
    osvt = OsvtBatch(np.array([k]), s[None], (U * keep)[None], (Vt * keep[:, None])[None],
                     np.array([np.nan]), np.array([False]))
    mid = np.zeros((1, n_channels, 1))
    preds, beta, gap = _forecast(osvt, mid, mid + 1.0)
    return preds[0], beta[0], float(gap[0]), osvt.estimate()[0]


def test_forecast_constant_matrix_minimum_norm():
    # wherever the recurrence exists it is the minimum-norm fit: here
    # |u|^2 = 1/L, and it spreads the last row over the others
    L, cols = 5, 8
    m = page_entries(np.full(L * cols, 3.0), L)
    pred, beta, gap, _ = forecast_one(m)
    beta_oracle = np.linalg.pinv(m[:-1].T) @ m[-1]
    assert np.allclose(beta_oracle, np.full(L - 1, 1.0 / (L - 1)))
    assert np.allclose(beta, beta_oracle, atol=1e-12)
    assert gap == pytest.approx(1.0 - 1.0 / L, rel=1e-12)
    assert pred[0] == pytest.approx(3.0, rel=1e-12)


def test_forecast_linear_ramp_exact():
    # a ramp has rank 2, and at L = 4 its gap is 1 - 0.7 (at L = 3 it is
    # 1/6, where the window would hold its value)
    m = page_entries(np.arange(16.0), 4)
    pred, beta, gap, _ = forecast_one(m)
    assert gap == pytest.approx(0.3, rel=1e-12)
    beta_oracle = np.linalg.pinv(m[:-1].T) @ m[-1]
    assert np.allclose(beta, beta_oracle, atol=1e-9)
    assert np.allclose(m[:-1].T @ beta, m[-1], atol=1e-9)
    assert pred[0] == pytest.approx(16.0, rel=1e-12)  # the ramp's next sample


def test_forecast_l2_closed_form():
    # at L = 2 with the top triple kept the estimate is D = s u v^T, and the
    # recurrence is u_1 / u_0, the fit g.h / g.g of D's rows g and h; the
    # first row dominates, so the gap u_0^2 is above 0.2
    w = np.array([7.0, 1.0, 3.0, 2.0, 11.0, 5.0])
    pred, beta, gap, D = forecast_one(page_entries(w, 2), kept=1)
    g, h = D
    assert gap > 0.2
    assert beta[0] == pytest.approx(np.dot(g, h) / np.dot(g, g), rel=1e-12)
    assert pred[0] == pytest.approx(beta[0] * h[-1], rel=1e-12)


def assert_holds_its_value(pred, beta, D, n_channels):
    """beta is e_{L-1}, and each channel predicts D's last row at its
    block's last column."""
    assert beta.tobytes() == np.eye(len(beta))[-1].tobytes()
    cols = D.shape[1] // n_channels
    assert pred == pytest.approx(D[-1, cols - 1::cols], rel=1e-12, abs=1e-15)


def test_forecast_decoupled_last_row_holds_the_value():
    # rank 3 < L = 5, and the last row is orthogonal to the others and a
    # singular direction of its own: |u| = 1, so no recurrence exists
    rng = np.random.default_rng(5)
    V = np.linalg.qr(rng.standard_normal((12, 3)))[0]
    top = np.outer(rng.standard_normal(4), V[:, 0]) + np.outer(rng.standard_normal(4), V[:, 1])
    m = np.vstack([top, 2.5 * V[:, 2]])
    assert np.linalg.matrix_rank(m) == 3
    pred, beta, gap, D = forecast_one(m, n_channels=3)
    assert abs(gap) < 1e-12
    assert_holds_its_value(pred, beta, D, 3)
    assert np.abs(pred).max() > 0.1


@pytest.mark.filterwarnings("error")
def test_forecast_zero_estimate_predicts_mid():
    # a window of constant channels scales to the all-zero matrix; the
    # kernel keeps one triple, of zero weight, so no vector is kept
    osvt = osvt_batch(np.zeros((1, 5, 30)))
    mid = np.array([[[4.2], [-1.5]]])
    preds, beta, gap = _forecast(osvt, mid, np.ones_like(mid))
    assert preds.tobytes() == mid[..., 0].tobytes()
    assert not beta.any()
    assert gap[0] == 1.0


def test_forecast_nearly_decoupled_last_row():
    # 1 - |u|^2 = 1e-8: the recurrence would hold exactly, through
    # coefficients of ~1e4; the window holds its value instead
    rng = np.random.default_rng(9)
    L, k, n = 5, 3, 30
    x = np.concatenate([rng.standard_normal(k), rng.standard_normal(L - k)])
    x[:k] *= np.sqrt(1 - 1e-8) / np.linalg.norm(x[:k])
    x[k:] *= np.sqrt(1e-8) / np.linalg.norm(x[k:])
    Q = np.linalg.qr(np.column_stack([x, rng.standard_normal((L, L - 1))]))[0]
    U = np.roll(Q.T, -1, axis=0)  # orthogonal, with last row +-x
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    m = (U[:, :k] * [3.0, 2.0, 1.0]) @ V.T
    assert np.abs(np.linalg.pinv(m[:-1].T) @ m[-1]).max() > 1e3
    pred, beta, gap, D = forecast_one(m, n_channels=2)
    assert gap == pytest.approx(1e-8, abs=1e-14)
    assert_holds_its_value(pred, beta, D, 2)


def forecast_factors(rng, L, r, kept, n=12):
    """Random (L, r) orthonormal columns U, weights kept from the top, and
    (r, n) orthonormal rows Vt: the form of osvt_batch's factors. All r kept
    makes a square U's last row decoupled (the recurrence's gap is zero)."""
    U = np.linalg.qr(rng.standard_normal((L, r)))[0]
    s = np.sort(rng.uniform(0.1, 5.0, r))[::-1]
    Vt = np.linalg.qr(rng.standard_normal((n, r)))[0].T
    return U, np.where(np.arange(r) < kept, s, 0.0), Vt


def forecast_batch(factors, mid, half):
    """_forecast on an OsvtBatch stacked from forecast_factors' triples,
    those of weight zero returned as zero vectors as osvt_batch does."""
    U, weights, Vt = (np.stack(f) for f in zip(*factors))
    keep = weights > 0
    osvt = OsvtBatch(keep.sum(axis=-1), weights, U * keep[:, None], Vt * keep[..., None],
                     np.full(len(factors), np.nan), np.zeros(len(factors), dtype=bool))
    return _forecast(osvt, mid, half)


def test_lrf_batch_mixing_decoupled_and_coupled_windows_equals_each_alone():
    # held windows (gap below 0.2, the decoupled ones among them) and
    # recurrence windows in one batch each equal their own call to the bit
    rng = np.random.default_rng(21)
    for L, r in ((5, 5), (6, 6), (5, 3)):
        windows = [forecast_factors(rng, L, r, kept) for kept in rng.integers(1, r + 1, 12)]
        if r < L:
            # a tall U is decoupled when its last row is a unit vector
            U, weights, _ = windows[0]
            U[:-1, -1] = 0.0
            U[-1] = np.eye(r)[-1]
            weights[:] = np.sort(rng.uniform(0.1, 5.0, r))[::-1]
        mid = rng.uniform(-5.0, 5.0, (len(windows), 3, 1))
        half = rng.uniform(0.5, 2.0, mid.shape)
        preds, beta, gap = forecast_batch(windows, mid, half)
        held = gap < recovery._MIN_GAP
        assert held.any() and not held.all()
        for b, (U, w, _) in enumerate(windows):
            if held[b]:
                assert beta[b].tobytes() == np.eye(L - 1)[-1].tobytes()
            else:
                # the recurrence beta = P u / (1 - |u|^2)
                u = U[-1] * (w > 0)
                assert np.allclose(beta[b], U[:-1] @ u / (1 - u @ u), rtol=1e-12, atol=1e-12)
            alone = forecast_batch(windows[b:b + 1], mid[b:b + 1], half[b:b + 1])
            for got, one in zip((preds, beta, gap), alone):
                assert got[b].tobytes() == one[0].tobytes()


# ---------------------------------------------------------------------------
# impute_offline
# ---------------------------------------------------------------------------

def test_impute_exact_recovery_noiseless():
    ds, rows = two_tone_dataset()
    rec, report = impute_offline(ds, RecoveryConfig(L=10, T=200))
    rv = rec.values_matrix()
    for i in range(rows.shape[0]):
        rel = np.linalg.norm(rv[i] - rows[i]) / np.linalg.norm(rows[i])
        assert rel < 1e-6
    assert set(report.to_dict()) == {"config", "kept_rank", "start_sample"}
    assert len(report.kept_rank) == 1
    assert report.to_dict()["start_sample"] == [0]


def test_impute_beats_locf_on_degraded_data():
    # 50% simultaneous drops + 2% noise: strictly below the filled input,
    # channel by channel
    corpus = benchmark_corpus(n_channels=12, n_samples=480,
                              mode_freqs=(0.4, 0.55, 0.7), seed=17)
    degraded = degrade(corpus.dataset,
                       DegradeSpec(drop_rate=0.5, noise_rate=0.02, seed=99),
                       noise_base=corpus.steady_median)
    rec, _ = impute_offline(degraded, RecoveryConfig(L=40, T=240))
    truth = corpus.dataset.values_matrix()
    rv = rec.values_matrix()
    bv = locf_baseline(degraded).values_matrix()
    for i in range(truth.shape[0]):
        assert mape(truth[i], rv[i]) < mape(truth[i], bv[i])


def test_impute_overwrite_observed_false_preserves_samples():
    corpus = benchmark_corpus(n_channels=4, n_samples=240, seed=2)
    degraded = degrade(corpus.dataset, DegradeSpec(drop_rate=0.3, seed=5))
    rec, _ = impute_offline(degraded,
                            RecoveryConfig(L=10, T=240, overwrite_observed=False))
    dv = degraded.values_matrix()
    masks = degraded.masks_matrix()
    rv = rec.values_matrix()
    assert np.array_equal(rv[masks], dv[masks])
    assert np.isfinite(rv).all()


def test_impute_stuck_channel_leaves_other_channels_alone():
    # a sensor stuck at 60.0 joins six degraded channels; its block must not
    # compress theirs in the shared matrix
    corpus = benchmark_corpus(n_channels=6, n_samples=1200, seed=7)
    degraded = degrade(corpus.dataset,
                       DegradeSpec(drop_rate=0.3, noise_rate=0.02, seed=1),
                       noise_base=corpus.steady_median)
    n = len(degraded)
    with_stuck = Dataset.from_arrays(
        degraded.timestamps,
        np.vstack([degraded.values_matrix(), np.full(n, 60.0)]),
        np.vstack([degraded.masks_matrix(), np.ones(n, bool)]),
        degraded.ids + ("stuck",),
    )
    cfg = RecoveryConfig(L=10, T=240)
    alone, alone_report = impute_offline(degraded, cfg)
    rec, report = impute_offline(with_stuck, cfg)
    assert report.kept_rank == alone_report.kept_rank
    truth = corpus.dataset.values_matrix()
    for i in range(truth.shape[0]):
        assert mape(truth[i], rec.values_matrix()[i]) <= 1.05 * mape(truth[i], alone.values_matrix()[i])
    assert np.abs(rec.values_matrix()[-1] - 60.0).max() <= 1e-12


@pytest.mark.parametrize("overwrite", [True, False])
@pytest.mark.parametrize("variant", ["page", "hankel"])
def test_impute_tail_gets_a_full_window_ending_at_the_record_end(variant, overwrite):
    # length = T + L + 3: one window at 0, then one over the last T samples
    # that writes only the 13 samples the first left out
    cfg = RecoveryConfig(L=10, T=60, variant=MatrixVariant(variant),
                         overwrite_observed=overwrite)
    corpus = benchmark_corpus(n_channels=3, n_samples=60 + 10 + 3, seed=4)
    degraded = degrade(corpus.dataset, DegradeSpec(drop_rate=0.3, seed=2))
    assert not degraded.masks_matrix()[:, -13:].all()
    rec, report = impute_offline(degraded, cfg)
    assert len(rec) == len(degraded)
    assert rec.masks_matrix().all()
    assert np.isfinite(rec.values_matrix()).all()
    assert len(report.kept_rank) == 2
    last = Dataset.from_arrays(
        degraded.timestamps[-60:], degraded.values_matrix()[:, -60:],
        degraded.masks_matrix()[:, -60:], degraded.ids,
    )
    alone, alone_report = impute_offline(last, cfg)
    assert report.kept_rank[-1] == alone_report.kept_rank[0]
    got, want = rec.values_matrix()[:, -13:], alone.values_matrix()[:, -13:]
    assert got.tobytes() == want.tobytes()
    # the tail window leaves the samples of the first window alone
    first = Dataset.from_arrays(
        degraded.timestamps[:60], degraded.values_matrix()[:, :60],
        degraded.masks_matrix()[:, :60], degraded.ids,
    )
    got, want = rec.values_matrix()[:, :60], impute_offline(first, cfg)[0].values_matrix()
    assert got.tobytes() == want.tobytes()


def test_impute_rejects_short_dataset():
    corpus = benchmark_corpus(n_channels=2, n_samples=100, seed=1)
    with pytest.raises(ShapeError):
        impute_offline(corpus.dataset, RecoveryConfig(L=10, T=200))


def test_impute_large_window_wall_time():
    data = benchmark_corpus(n_channels=12, n_samples=54000, seed=1).dataset
    rec, report = impute_offline(data, RecoveryConfig(L=10, T=54000))
    assert len(rec) == 54000
    assert sum(report.step_seconds) < 10.0  # desk-scale sanity bound


# ---------------------------------------------------------------------------
# predict_next / predict_stream
# ---------------------------------------------------------------------------

def test_predict_constant_signal():
    rows = np.full((3, 30), 4.2)
    preds, _ = predict_next(dataset_from_rows(rows), RecoveryConfig(L=5, T=30))
    for v in preds.values():
        assert v == pytest.approx(4.2, abs=1e-9)


def test_predict_lrf_window_exact():
    ds, rows = geometric_mode_dataset(31)
    t = np.arange(30) / 60.0
    chans = tuple(
        ChannelSeries(c.channel_id, c.kind, t, c.values[:30], np.ones(30, bool))
        for c in ds.channels
    )
    preds, model = predict_next(Dataset(chans, 60.0), RecoveryConfig(L=5, T=30))
    for i, cid in enumerate(ds.ids):
        assert abs(preds[cid] - rows[i, 30]) < 1e-6
    assert len(model.beta) == 4


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_predict_next_tall_window_matches_lstsq_on_its_estimate(seed):
    # one channel at L=10, T=60 stacks a 10 x 6 page matrix, which the
    # kernel thresholds as its transpose
    cfg = RecoveryConfig(L=10, T=60)
    corpus = benchmark_corpus(n_channels=1, n_samples=60, seed=seed)
    data = degrade(corpus.dataset, DegradeSpec(drop_rate=0.3, noise_rate=0.02, seed=seed),
                   noise_base=corpus.steady_median)
    preds, model = predict_next(data, cfg)
    row = locf_fill(data.values_matrix()[0], data.masks_matrix()[0])
    mid, half = 0.5 * (row.min() + row.max()), 0.5 * (row.max() - row.min())
    osvt = osvt_batch(page_entries((row - mid) / half, cfg.L)[None])
    D = osvt.estimate()[0]
    assert D.shape == (10, 6)
    beta = np.linalg.lstsq(D[:-1].T, D[-1], rcond=None)[0]
    assert np.allclose(model.beta, beta, rtol=1e-9, atol=1e-12)
    # the gap of D's own kept left vectors: the recurrence holds there
    U = np.linalg.svd(D)[0][:, :osvt.kept_rank[0]]
    assert model.gap == pytest.approx(1.0 - U[-1] @ U[-1], abs=1e-12)
    assert model.gap >= 0.2
    assert preds["ch00"] == pytest.approx((beta @ D[1:, -1]) * half + mid, rel=1e-12)


def test_predict_shift_invariance():
    corpus = benchmark_corpus(n_channels=3, n_samples=30,
                              mode_freqs=(4.3, 7.1), seed=6)
    base, _ = predict_next(corpus.dataset, RecoveryConfig(L=5, T=30))
    for c in (-7.5, 13.0):
        shifted = corpus.dataset.with_values(corpus.dataset.values_matrix() + c)
        out, _ = predict_next(shifted, RecoveryConfig(L=5, T=30))
        for cid in base:
            assert out[cid] - base[cid] == pytest.approx(c, abs=1e-6)


def test_predict_window_length_enforced():
    rows = np.full((2, 31), 1.0)
    with pytest.raises(ShapeError):
        predict_next(dataset_from_rows(rows), RecoveryConfig(L=5, T=30))


def test_stream_outage_names_channel_and_window():
    # ch01 observes nothing in [400, 450), a span longer than T that starts
    # after the replay's first chunk
    cfg = RecoveryConfig(L=5, T=30)
    assert _chunk_steps(cfg, 3) < 400
    corpus = benchmark_corpus(n_channels=3, n_samples=600, seed=8)
    masks = corpus.dataset.masks_matrix().copy()
    masks[1, 400:450] = False
    data = corpus.dataset.with_values(corpus.dataset.values_matrix(), masks)
    with pytest.raises(
        AllMissingChannel,
        match=r"^channel 'ch01' has no observed sample in the window starting at sample 400$",
    ):
        predict_stream(data, cfg)


def masked_corpus(n_samples, drop):
    """A fully observed 3-channel record, then masks[where] = False for each
    (channel, samples) pair of drop."""
    corpus = benchmark_corpus(n_channels=3, n_samples=n_samples, seed=8)
    masks = corpus.dataset.masks_matrix().copy()
    for channel, samples in drop:
        masks[channel, samples] = False
    return corpus.dataset.with_values(corpus.dataset.values_matrix(), masks)


def test_channel_observed_only_before_a_window_names_that_window():
    # ch02 observes nothing from sample 520 on: the first stream window
    # without it starts at 520, after the first chunk; of impute's windows at
    # 0, 100, ..., 500 and the tail window [550, 650), the tail is the first
    data = masked_corpus(650, [(2, slice(520, None))])
    stream_cfg, impute_cfg = RecoveryConfig(L=5, T=30), RecoveryConfig(L=10, T=100)
    assert _chunk_steps(stream_cfg, 3) < 520
    for run, cfg, start in ((predict_stream, stream_cfg, 520),
                            (impute_offline, impute_cfg, 550)):
        with pytest.raises(
            AllMissingChannel,
            match=rf"^channel 'ch02' has no observed sample in the window starting at sample {start}$",
        ):
            run(data, cfg)


@pytest.mark.parametrize("drop, channel", [
    # ch01 observes nothing at all
    ([(1, slice(None))], "ch01"),
    # ch00 observes nothing in the first window either, and comes first
    ([(1, slice(None)), (0, slice(0, 100))], "ch00"),
])
def test_channel_never_observed_names_the_first_window(drop, channel):
    data = masked_corpus(600, drop)
    for run, cfg in ((predict_stream, RecoveryConfig(L=5, T=30)),
                     (impute_offline, RecoveryConfig(L=10, T=100))):
        with pytest.raises(
            AllMissingChannel,
            match=rf"^channel '{channel}' has no observed sample in the window starting at sample 0$",
        ):
            run(data, cfg)


def data_with_sample(value, channel=2, at=420, n_samples=600):
    """A fully observed 3-channel record whose sample `at` of one channel is
    replaced by value, still marked observed."""
    corpus = benchmark_corpus(n_channels=3, n_samples=n_samples, seed=8)
    values = corpus.dataset.values_matrix().copy()
    values[channel, at] = value
    return corpus.dataset.with_values(values)


NONFINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])


@pytest.mark.filterwarnings("error")
@NONFINITE
def test_stream_nonfinite_observed_sample_names_channel_and_window(bad):
    # the first window holding sample 420 starts at 391, in the second chunk
    cfg = RecoveryConfig(L=5, T=30)
    assert _chunk_steps(cfg, 3) < 391
    with pytest.raises(
        NumericError,
        match=r"^channel 'ch02' has a non-finite observed sample in the window "
        r"starting at sample 391$",
    ):
        predict_stream(data_with_sample(bad), cfg)


@pytest.mark.filterwarnings("error")
@NONFINITE
def test_impute_nonfinite_observed_sample_names_channel_and_window(bad):
    # sample 420 of 600 lies in the window [300, 600); sample 620 of 650
    # only in the tail window [350, 650)
    for n, at, start in ((600, 420, 300), (650, 620, 350)):
        with pytest.raises(
            NumericError,
            match=r"^channel 'ch02' has a non-finite observed sample in the "
            rf"window starting at sample {start}$",
        ):
            impute_offline(data_with_sample(bad, at=at, n_samples=n),
                           RecoveryConfig(L=10, T=300))


@pytest.mark.filterwarnings("error")
@NONFINITE
def test_predict_next_nonfinite_observed_sample_names_channel(bad):
    cfg = RecoveryConfig(L=5, T=30)
    data = data_with_sample(bad, channel=0, at=12)
    window = Dataset(tuple(
        ChannelSeries(c.channel_id, c.kind, c.timestamps[:cfg.T], c.values[:cfg.T], c.mask[:cfg.T])
        for c in data.channels
    ))
    with pytest.raises(
        NumericError,
        match=r"^channel 'ch00' has a non-finite observed sample in the window "
        r"starting at sample 0$",
    ):
        predict_next(window, cfg)


@pytest.mark.parametrize("low, high", [(-1e308, 1e308), (0.0, 5e-324)])
def test_any_finite_value_range_gives_finite_output(low, high):
    # channel 1 alternates between low and high: the half-range overflows
    # as 0.5 (hi - lo) for the first pair and rounds to zero for the second;
    # the suite turns numpy's overflow and divide warnings into errors
    corpus = benchmark_corpus(n_channels=3, n_samples=240, seed=8)
    values = corpus.dataset.values_matrix().copy()
    values[1] = np.where(np.arange(240) % 2, high, low)
    data = corpus.dataset.with_values(values)
    imputed, _ = impute_offline(data, RecoveryConfig(L=10, T=120))
    assert np.isfinite(imputed.values_matrix()).all()
    cfg = RecoveryConfig(L=5, T=30)
    preds, _ = predict_stream(data, cfg)
    assert np.isfinite(preds.values_matrix()).all()
    window = Dataset.from_arrays(data.timestamps[:cfg.T], data.values_matrix()[:, :cfg.T],
                                 data.masks_matrix()[:, :cfg.T], data.ids)
    assert np.isfinite(list(predict_next(window, cfg)[0].values())).all()


def test_stream_constant():
    rows = np.full((2, 80), 2.5)
    preds, report = predict_stream(dataset_from_rows(rows), RecoveryConfig(L=5, T=30))
    assert preds.values_matrix().shape == (2, 50)
    assert np.allclose(preds.values_matrix(), 2.5, atol=1e-9)
    assert report.kept_rank == [1] * 50


def test_stream_lrf_tracks_recursion():
    ds, rows = geometric_mode_dataset(30 + 120)
    preds, _ = predict_stream(ds, RecoveryConfig(L=5, T=30))
    err = np.abs(preds.values_matrix() - rows[:, 30:])
    assert err.max() < 1e-5


def window_scales(data, T):
    """mid and half (N, steps) of each stream step's window [j, j+T), from
    its observed samples as _denoise takes them."""
    values, masks = data.values_matrix(), data.masks_matrix()
    windows = [sliding_window_view(np.where(masks, values, fill), T, axis=1)[:, :-1]
               for fill in (np.inf, -np.inf)]
    lo, hi = 0.5 * windows[0].min(axis=-1), 0.5 * windows[1].max(axis=-1)
    return lo + hi, hi - lo


@pytest.mark.parametrize("drop", [0.3, 0.5])
@pytest.mark.parametrize("variant", [MatrixVariant.PAGE, MatrixVariant.HANKEL])
def test_stream_forecasts_stay_within_their_windows_bound(variant, drop):
    # |beta| <= 2 and each estimate column has norm at most sqrt(L), so every
    # prediction lies within mid +- 2 sqrt(L) half of its window; channel 2
    # is stuck at one value, and its constant windows predict mid exactly
    cfg = RecoveryConfig(L=5, T=30, variant=variant)
    corpus = benchmark_corpus(seed=7)
    data = degrade(corpus.dataset, DegradeSpec(drop_rate=drop, noise_rate=0.02, seed=11),
                   noise_base=corpus.steady_median)
    values = data.values_matrix().copy()
    values[2] = -3.75
    data = data.with_values(values, data.masks_matrix())
    preds = predict_stream(data, cfg)[0].values_matrix()
    mid, half = window_scales(data, cfg.T)
    assert (np.abs(preds - mid) <= 2.0 * np.sqrt(cfg.L) * half).all()
    assert (preds[2] == -3.75).all()
    t, values, masks = data.timestamps, data.values_matrix(), data.masks_matrix()
    for j in range(0, len(data) - cfg.T, 7):
        w = slice(j, j + cfg.T)
        window = Dataset.from_arrays(t[w], values[:, w], masks[:, w], data.ids)
        assert np.linalg.norm(predict_next(window, cfg)[1].beta) <= 2.0 * (1 + 1e-12)


@pytest.mark.parametrize("runs", [False, True], ids=["uniform", "runs"])
@pytest.mark.parametrize("variant", [MatrixVariant.PAGE, MatrixVariant.HANKEL])
def test_stream_prediction_ignores_samples_after_its_window(variant, runs):
    # a guard: replacing every value and mask from a cut c on leaves each
    # prediction from a window [j, j+T) with j + T <= c unchanged to the bit,
    # also for windows that share a chunk with later ones
    cfg = RecoveryConfig(L=5, T=30, variant=variant)
    corpus = benchmark_corpus(n_channels=4, n_samples=700, seed=12)
    data = degrade(corpus.dataset, DegradeSpec(drop_rate=0.0 if runs else 0.3,
                                               noise_rate=0.02, seed=5),
                   noise_base=corpus.steady_median)
    rng = np.random.default_rng(13)
    masks = data.masks_matrix().copy()
    if runs:
        # channels 0 and 3 drop runs of 5-20 samples between observed runs of 1-3
        for i in (0, 3):
            j = int(rng.integers(1, 4))
            while j < len(data):
                gap = int(rng.integers(5, 21))
                masks[i, j:j + gap] = False
                j += gap + int(rng.integers(1, 4))
    data = data.with_values(data.values_matrix(), masks)
    base = predict_stream(data, cfg)[0].values_matrix()
    assert _chunk_steps(cfg, 4) < 400
    for cut in (45, 301, 617):
        values, masks = data.values_matrix().copy(), data.masks_matrix().copy()
        values[:, cut:] = rng.uniform(-1e3, 1e3, values[:, cut:].shape)
        masks[:, cut:] = rng.random(masks[:, cut:].shape) < 0.5
        out = predict_stream(data.with_values(values, masks), cfg)[0].values_matrix()
        kept = cut - cfg.T + 1
        assert out[:, :kept].tobytes() == base[:, :kept].tobytes()
        assert (out[:, kept:] != base[:, kept:]).any()


def test_stream_alignment_and_metadata():
    corpus = benchmark_corpus(n_channels=2, n_samples=50, seed=8)
    preds, report = predict_stream(corpus.dataset, RecoveryConfig(L=5, T=30))
    assert np.array_equal(preds.timestamps, corpus.dataset.timestamps[30:])
    assert preds.ids == corpus.dataset.ids
    assert len(report.step_seconds) == 20
    assert report.start_sample == list(range(20))


@pytest.mark.parametrize("run", [impute_offline, predict_stream])
def test_outputs_are_read_only_and_share_no_memory_with_the_input(run):
    # the engine's output arrays become the returned dataset's own, uncopied:
    # read-only, and apart from every array of the input dataset
    corpus = benchmark_corpus(n_channels=3, n_samples=120, seed=8)
    data = degrade(corpus.dataset, DegradeSpec(drop_rate=0.3, seed=2))
    out = run(data, RecoveryConfig(L=5, T=30))[0]
    for got in (out.timestamps, out.values_matrix(), out.masks_matrix()):
        assert not got.flags.writeable
        for given in (data.timestamps, data.values_matrix(), data.masks_matrix()):
            assert not np.shares_memory(got, given)


def test_stream_requires_length_beyond_window():
    rows = np.full((2, 30), 1.0)
    with pytest.raises(ShapeError):
        predict_stream(dataset_from_rows(rows), RecoveryConfig(L=5, T=30))


def test_stream_additive_shift_equivariance():
    corpus = benchmark_corpus(n_channels=3, n_samples=60,
                              mode_freqs=(4.3, 7.1), seed=10)
    base, _ = predict_stream(corpus.dataset, RecoveryConfig(L=5, T=30))
    shifted_data = corpus.dataset.with_values(corpus.dataset.values_matrix() + 11.0)
    shifted, _ = predict_stream(shifted_data, RecoveryConfig(L=5, T=30))
    assert np.abs(shifted.values_matrix() - base.values_matrix() - 11.0).max() < 1e-6


# ---------------------------------------------------------------------------
# per-channel units
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("variant", [MatrixVariant.PAGE, MatrixVariant.HANKEL])
@pytest.mark.parametrize("recover, cfg, n", [
    (impute_offline, dict(L=10, T=200), 400),
    (predict_stream, dict(L=5, T=30), 30 + 60),
], ids=["impute", "stream"])
def test_recovery_ignores_per_channel_gain_and_offset(recover, cfg, n, variant, seed):
    # the engine maps every channel onto [-1, 1] in every window, so a map
    # x -> a_i * x + b_i of channel i carries over to its recovery unchanged,
    # whatever the units of a_i and b_i
    corpus = benchmark_corpus(n_channels=6, n_samples=n, seed=seed)
    data = degrade(corpus.dataset, DegradeSpec(drop_rate=0.3, noise_rate=0.02, seed=seed),
                   noise_base=corpus.steady_median)
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(-3, 3, (6, 1)) * np.array([[1], [-1]] * 3)
    b = rng.uniform(-500.0, 500.0, (6, 1))
    mapped = data.with_values(a * data.values_matrix() + b, data.masks_matrix())
    config = RecoveryConfig(variant=variant, **cfg)
    base, base_report = recover(data, config)
    out, report = recover(mapped, config)
    assert report.kept_rank == base_report.kept_rank
    expect = a * base.values_matrix() + b
    span = expect.max(axis=1) - expect.min(axis=1)
    assert (np.abs(out.values_matrix() - expect).max(axis=1) <= 1e-8 * span).all()


@pytest.mark.parametrize("variant", [MatrixVariant.PAGE, MatrixVariant.HANKEL])
@pytest.mark.parametrize("recover, cfg", [
    (impute_offline, dict(L=10, T=240)),
    (predict_stream, dict(L=5, T=30)),
], ids=["impute", "stream"])
def test_recovery_is_equivariant_under_channel_order(recover, cfg, variant):
    # permuting the channels permutes the channel blocks of every stacked
    # matrix, its columns, which leaves the singular values and the kept
    # rank alone: the recovery of each channel does not depend on its place
    config = RecoveryConfig(variant=variant, **cfg)
    for seed in (11, 12, 13, 14):
        corpus = benchmark_corpus(n_channels=4, n_samples=480, seed=seed)
        data = degrade(corpus.dataset, DegradeSpec(drop_rate=0.3, noise_rate=0.02, seed=seed),
                       noise_base=corpus.steady_median)
        perm = np.random.default_rng(seed).permutation(4)
        assert (perm != np.arange(4)).any()
        base, base_report = recover(data, config)
        out, report = recover(data.select([data.ids[i] for i in perm]), config)
        assert report.kept_rank == base_report.kept_rank
        assert out.ids == tuple(base.ids[i] for i in perm)
        expect = base.values_matrix()[perm]
        assert (np.abs(out.values_matrix() - expect) <= 1e-9 * np.abs(expect)).all()


@pytest.mark.parametrize("cells", [1 << 10, 1 << 17])
def test_chunk_budget_cannot_change_an_artifact(cells, monkeypatch):
    # a window's result depends on that window alone, so the budget that
    # groups windows into engine calls moves no bit of a recovery or a
    # benchmark report; 1 << 10 runs most windows alone, 1 << 17 puts every
    # impute window of a record in one call
    scenarios = [Scenario(drop_rate=d, variant=v)
                 for d in (0.1, 0.5) for v in (MatrixVariant.PAGE, MatrixVariant.HANKEL)]
    corpus = benchmark_corpus(n_samples=1250, seed=3)
    data = degrade(corpus.dataset, DegradeSpec(drop_rate=0.3, noise_rate=0.02, seed=3),
                   noise_base=corpus.steady_median)
    configs = [(recover, RecoveryConfig(L=L, T=T, variant=v))
               for recover, L, T in ((impute_offline, 10, 240), (predict_stream, 5, 30))
               for v in (MatrixVariant.PAGE, MatrixVariant.HANKEL)]

    def artifacts():
        report = run_benchmark(benchmark_corpus(seed=3), scenarios, repetitions=2, master_seed=3)
        out = [json.dumps(results_to_dict(report), indent=2, sort_keys=True)]
        for recover, cfg in configs:
            got, run = recover(data, cfg)
            out += [got.values_matrix().tobytes(), run.to_dict()]
        return out

    def chunks():
        return [_chunk_steps(cfg, 6) for _, cfg in configs]

    default, default_chunks = artifacts(), chunks()
    monkeypatch.setattr(recovery, "_CHUNK_CELLS", cells)
    assert all(a != b for a, b in zip(chunks(), default_chunks))
    assert artifacts() == default
