"""Offline imputation, forecast regression and streaming prediction."""

import numpy as np
import pytest

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
    ShapeError,
    benchmark_corpus,
    degrade,
    impute_offline,
    locf_baseline,
    locf_fill,
    mape,
    predict_next,
    predict_stream,
)
from pagerec.matrices import page_entries
from pagerec.recovery import _chunk_steps, _lrf
from pagerec.svt import osvt_batch


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


# ---------------------------------------------------------------------------
# the engine's forecast fit
# ---------------------------------------------------------------------------

def fit_one(m):
    """_lrf on one matrix's exact SVD factors and its rank (at least one, as
    the kernel keeps): its coefficients (L-1,) and residual norm."""
    U, s, _ = np.linalg.svd(m, full_matrices=False)
    k = max(np.linalg.matrix_rank(m), 1)
    beta, residual = _lrf(U[None], s[None], np.array([k]))
    return beta[0], float(residual[0])


def pinv_fit(m):
    """Oracle: the minimum-norm least-squares fit of the last row through the
    others, and its residual norm."""
    beta = np.linalg.pinv(m[:-1].T) @ m[-1]
    return beta, float(np.linalg.norm(beta @ m[:-1] - m[-1]))


def test_forecast_constant_matrix_minimum_norm():
    L, cols = 5, 8
    m = page_entries(np.full(L * cols, 3.0), L)
    beta, residual = fit_one(m)
    beta_oracle = np.linalg.pinv(m[:-1].T) @ m[-1]
    assert np.allclose(beta_oracle, np.full(L - 1, 1.0 / (L - 1)))
    assert np.allclose(beta, beta_oracle, atol=1e-12)
    assert residual < 1e-9


def test_forecast_linear_ramp_exact():
    m = page_entries(np.arange(12.0), 3)
    beta, residual = fit_one(m)
    beta_oracle = np.linalg.pinv(m[:-1].T) @ m[-1]
    assert np.allclose(beta, beta_oracle, atol=1e-9)
    assert residual < 1e-9
    assert np.allclose(m[:-1].T @ beta, m[-1], atol=1e-9)


def test_forecast_l2_closed_form():
    w = np.array([1.0, 2.0, 3.0, 7.0, 5.0, 11.0])
    m = page_entries(w, 2)
    g, h = m[0], m[1]
    beta, _ = fit_one(m)
    assert beta[0] == pytest.approx(np.dot(g, h) / np.dot(g, g))


def test_forecast_decoupled_last_row_minimum_norm():
    # rank 3 < L = 5, and the last row is orthogonal to the others and a
    # singular direction of its own: |u| = 1, so nothing predicts it
    rng = np.random.default_rng(5)
    V = np.linalg.qr(rng.standard_normal((12, 3)))[0]
    top = np.outer(rng.standard_normal(4), V[:, 0]) + np.outer(rng.standard_normal(4), V[:, 1])
    m = np.vstack([top, 2.5 * V[:, 2]])
    assert np.linalg.matrix_rank(m) == 3
    beta, residual = fit_one(m)
    beta_oracle, residual_oracle = pinv_fit(m)
    assert np.allclose(beta, beta_oracle, atol=1e-12)
    assert residual == pytest.approx(residual_oracle, rel=1e-12)
    assert residual == pytest.approx(2.5, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_forecast_zero_estimate_has_zero_coefficients():
    # a window of constant channels scales to the all-zero matrix; the
    # kernel keeps one (zero) triple
    m = np.zeros((5, 30))
    beta, residual = fit_one(m)
    assert not beta.any()
    assert residual == 0.0
    assert np.array_equal(beta, pinv_fit(m)[0])


def test_forecast_nearly_decoupled_last_row():
    # 1 - |u|^2 = 1e-8: the recurrence holds exactly, with |beta| ~ 1e4
    rng = np.random.default_rng(9)
    L, k, n = 5, 3, 30
    x = np.concatenate([rng.standard_normal(k), rng.standard_normal(L - k)])
    x[:k] *= np.sqrt(1 - 1e-8) / np.linalg.norm(x[:k])
    x[k:] *= np.sqrt(1e-8) / np.linalg.norm(x[k:])
    Q = np.linalg.qr(np.column_stack([x, rng.standard_normal((L, L - 1))]))[0]
    U = np.roll(Q.T, -1, axis=0)  # orthogonal, with last row +-x
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    m = (U[:, :k] * [3.0, 2.0, 1.0]) @ V.T
    beta, residual = fit_one(m)
    beta_oracle, _ = pinv_fit(m)
    assert np.abs(beta).max() > 1e3
    # a 1 - |u|^2 found by subtraction would be off by ~eps/1e-8 relative
    assert np.allclose(beta, beta_oracle, rtol=1e-9, atol=0)
    assert residual == 0.0  # the recurrence reproduces the last row


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
    assert set(report.to_dict()) == {"config", "kept_rank"}
    assert len(report.kept_rank) == 1


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
    D = osvt_batch(page_entries((row - mid) / half, cfg.L)[None]).estimate[0]
    assert D.shape == (10, 6)
    beta = np.linalg.lstsq(D[:-1].T, D[-1], rcond=None)[0]
    assert np.allclose(model.beta, beta, rtol=1e-9, atol=1e-12)
    residual = np.linalg.norm(beta @ D[:-1] - D[-1])
    assert model.residual_norm == pytest.approx(residual, abs=1e-9)
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


def data_with_sample(value, channel=2, at=420):
    """A fully observed 3-channel record whose sample `at` of one channel is
    replaced by value, still marked observed."""
    corpus = benchmark_corpus(n_channels=3, n_samples=600, seed=8)
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
    with pytest.raises(
        NumericError,
        match=r"^channel 'ch02' has a non-finite observed sample in the window "
        r"starting at sample 300$",
    ):
        impute_offline(data_with_sample(bad), RecoveryConfig(L=10, T=300))


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


def test_stream_alignment_and_metadata():
    corpus = benchmark_corpus(n_channels=2, n_samples=50, seed=8)
    preds, report = predict_stream(corpus.dataset, RecoveryConfig(L=5, T=30))
    assert np.array_equal(preds.timestamps, corpus.dataset.timestamps[30:])
    assert preds.ids == corpus.dataset.ids
    assert len(report.step_seconds) == 20


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
