"""The benchmark corpus, degradation, MAPE, kept ranks, benchmarks."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from pagerec import (
    AllMissingChannel,
    ConfigError,
    Dataset,
    DegradeSpec,
    MapeUndefined,
    NumericError,
    MatrixVariant,
    RecoveryConfig,
    Scenario,
    ShapeError,
    Synthetic,
    benchmark_corpus,
    degrade,
    impute_offline,
    locf_baseline,
    mape,
    persistence_baseline,
    predict_stream,
    results_to_dict,
    run_benchmark,
    write_csv,
)
from pagerec import harness


def observed(rows):
    """Fully observed dataset of the (N, n) rows at 60 samples per second,
    channels c0, c1, ..."""
    t = np.arange(rows.shape[1]) / 60.0
    return Dataset.from_arrays(t, rows, np.ones(rows.shape, dtype=bool),
                               [f"c{i}" for i in range(len(rows))])


# ---------------------------------------------------------------------------
# benchmark_corpus
# ---------------------------------------------------------------------------

def test_corpus_matches_a_channel_by_channel_loop():
    # the draws in the corpus's order; each row starts at its offset and
    # adds the modes in turn
    freqs = (4.3, 7.1)
    corpus = benchmark_corpus(n_channels=3, n_samples=50, mode_freqs=freqs, seed=13)
    rng = np.random.default_rng(13)
    phases = rng.uniform(0.0, 2.0 * np.pi, 2)
    t = np.arange(50) / 60.0
    for row in corpus.dataset.values_matrix():
        weights = rng.uniform(0.8, 1.2, 2) * rng.choice([-1.0, 1.0], 2)
        expected = np.full(50, rng.uniform(4.0, 7.0) * rng.choice([-1.0, 1.0]))
        for w, hz, phase in zip(weights, freqs, phases):
            expected += w * np.sin(2.0 * np.pi * hz * t + phase)
        assert np.array_equal(row, expected)
    assert corpus.dataset.ids == ("ch00", "ch01", "ch02")


def test_corpus_steady_median_is_each_channels_median_magnitude():
    for kw in (dict(), dict(n_channels=3, n_samples=245, seed=1),
               dict(n_channels=4, n_samples=240, mode_freqs=(4.3, 7.1), seed=13)):
        corpus = benchmark_corpus(**kw)
        rows = corpus.dataset.values_matrix()
        assert list(corpus.steady_median) == list(corpus.dataset.ids)
        for cid, row in zip(corpus.dataset.ids, rows):
            assert corpus.steady_median[cid] == np.median(np.abs(row))
        # degrade's default noise scale is the same median of the observed
        # samples, and the corpus is fully observed
        spec = DegradeSpec(drop_rate=0.2, noise_rate=0.05, seed=3)
        given = degrade(corpus.dataset, spec, noise_base=corpus.steady_median)
        default = degrade(corpus.dataset, spec)
        assert np.array_equal(given.values_matrix(), default.values_matrix(), equal_nan=True)
        assert np.array_equal(given.masks_matrix(), default.masks_matrix())


@pytest.mark.parametrize("kw, message", [
    (dict(n_samples=0), "n_samples must be at least 1, got 0"),
    (dict(n_samples=-5), "n_samples must be at least 1, got -5"),
    (dict(n_channels=0), "n_channels must be at least 1, got 0"),
    (dict(n_channels=-2), "n_channels must be at least 1, got -2"),
    (dict(seed=-1), "seed must be non-negative, got -1"),
])
def test_corpus_rejects_an_empty_or_negative_size_or_seed(kw, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        benchmark_corpus(**kw)


def test_gen_sinusoid_page_rank_two():
    # 0.5 Hz tone sampled at 60 fps: the L=6 Page matrix has numerical rank 2
    t = np.arange(600) / 60.0
    vals = np.sin(2.0 * np.pi * 0.5 * t)
    m = vals.reshape(-1, 6).T
    s = np.linalg.svd(m, compute_uv=False)  # oracle spectrum
    assert s[1] > 1e-6 * s[0]
    assert s[2] < 1e-8 * s[0]


# ---------------------------------------------------------------------------
# degrade
# ---------------------------------------------------------------------------

def test_degrade_identity_when_zero_rates():
    corpus = benchmark_corpus(n_channels=3, n_samples=120, seed=1)
    out = degrade(corpus.dataset, DegradeSpec(seed=0))
    assert np.array_equal(out.values_matrix(), corpus.dataset.values_matrix())
    assert out.masks_matrix().all()


def test_degrade_full_drop():
    corpus = benchmark_corpus(n_channels=2, n_samples=50, seed=1)
    out = degrade(corpus.dataset, DegradeSpec(drop_rate=1.0, seed=0))
    assert not out.masks_matrix().any()


def test_degrade_exact_count_shared_across_channels():
    corpus = benchmark_corpus(n_channels=4, n_samples=100, seed=1)
    out = degrade(corpus.dataset, DegradeSpec(drop_rate=0.5, seed=42))
    masks = out.masks_matrix()
    assert (~masks[0]).sum() == 50
    for i in range(1, 4):
        assert np.array_equal(masks[i], masks[0])
    assert np.isnan(out.values_matrix()[:, ~masks[0]]).all()


def test_degrade_deterministic_under_seed(tmp_path):
    corpus = benchmark_corpus(n_channels=3, n_samples=200, seed=9)
    spec = DegradeSpec(drop_rate=0.3, noise_rate=0.05, seed=123)
    a = degrade(corpus.dataset, spec, corpus.steady_median)
    b = degrade(corpus.dataset, spec, corpus.steady_median)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, pa)
    write_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_degrade_never_alters_truth():
    corpus = benchmark_corpus(n_channels=2, n_samples=100, seed=3)
    before = corpus.dataset.values_matrix().copy()
    out = degrade(corpus.dataset, DegradeSpec(drop_rate=0.2, noise_rate=0.1, seed=1),
                  corpus.steady_median)
    assert np.array_equal(corpus.dataset.values_matrix(), before)
    masks = out.masks_matrix()
    # surviving samples differ only by the injected noise, dropped ones are NaN
    assert np.isnan(out.values_matrix()[~masks]).all()


def test_degrade_leaves_a_channel_with_no_observed_sample_untouched():
    # without a noise_base a channel's noise scale is its observed samples'
    # median; a channel with none has no sample to perturb and keeps its
    # values, and the other channels get the noise they get beside it
    corpus = benchmark_corpus(n_channels=3, n_samples=40, seed=1)
    values = corpus.dataset.values_matrix().copy()
    masks = corpus.dataset.masks_matrix().copy()
    masks[1] = False
    data = Dataset.from_arrays(corpus.dataset.timestamps, values, masks, corpus.dataset.ids)
    spec = DegradeSpec(drop_rate=0.1, noise_rate=0.01, seed=4)
    out = degrade(data, spec)
    dropped = ~out.masks_matrix()[0]
    assert not out.masks_matrix()[1].any()
    assert np.array_equal(out.values_matrix()[1][~dropped], values[1][~dropped])
    assert np.isnan(out.values_matrix()[1][dropped]).all()
    base = {cid: float(np.median(np.abs(values[i]))) for i, cid in enumerate(data.ids)}
    assert np.array_equal(out.values_matrix()[[0, 2]],
                          degrade(data, spec, base).values_matrix()[[0, 2]], equal_nan=True)


def test_locf_baseline_names_channel_with_no_observed_sample():
    corpus = benchmark_corpus(n_channels=3, n_samples=40, seed=1)
    values = corpus.dataset.values_matrix().copy()
    masks = corpus.dataset.masks_matrix().copy()
    values[1], masks[1] = np.nan, False
    out = corpus.dataset.with_values(values, masks)
    with pytest.raises(AllMissingChannel, match="^channel 'ch01' has no observed sample$"):
        locf_baseline(out)
    partial = degrade(corpus.dataset, DegradeSpec(drop_rate=0.5, seed=2))
    filled = locf_baseline(partial)
    assert np.array_equal(filled.masks_matrix(), partial.masks_matrix())
    assert np.isfinite(filled.values_matrix()).all()


def test_degrade_names_a_channel_missing_from_noise_base():
    corpus = benchmark_corpus(n_channels=2, n_samples=40, seed=1)
    with pytest.raises(ConfigError, match=r"^noise_base has no entry for channels \['ch00', 'ch01'\]$"):
        degrade(corpus.dataset, DegradeSpec(noise_rate=0.1), noise_base={})
    with pytest.raises(ConfigError, match=r"\['ch01'\]$"):
        degrade(corpus.dataset, DegradeSpec(noise_rate=0.1), noise_base={"ch00": 1.0})
    # without noise no entry is needed
    degrade(corpus.dataset, DegradeSpec(drop_rate=0.1), noise_base={})


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_degrade_names_a_channel_whose_noise_base_entry_is_no_scale(bad):
    corpus = benchmark_corpus(n_channels=2, n_samples=40, seed=1)
    message = f"noise_base entry of channel 'ch01' must be finite and non-negative, got {bad}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        degrade(corpus.dataset, DegradeSpec(noise_rate=0.1), {"ch00": 1.0, "ch01": bad})
    # without noise the entry scales nothing
    degrade(corpus.dataset, DegradeSpec(drop_rate=0.1), {"ch00": 1.0, "ch01": bad})


def test_degrade_validates_rates():
    corpus = benchmark_corpus(n_channels=2, n_samples=40, seed=1)
    with pytest.raises(ConfigError):
        degrade(corpus.dataset, DegradeSpec(drop_rate=1.5))
    with pytest.raises(ConfigError):
        degrade(corpus.dataset, DegradeSpec(noise_rate=-0.1))
    with pytest.raises(ConfigError, match="noise_rate must be finite, got inf"):
        degrade(corpus.dataset, DegradeSpec(noise_rate=np.inf))
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        degrade(corpus.dataset, DegradeSpec(seed=-1))


def test_degrade_refuses_a_noise_rate_whose_draws_can_overflow():
    # at 1e307 ch00's noise deviation is finite, but a normal draw of some
    # 13 deviations would take one of its samples past the float range,
    # whether its noise scale comes from noise_base or from its samples
    corpus = benchmark_corpus(n_channels=3, n_samples=240, seed=1)
    message = ("noise_rate 1e+307 times the noise scale of channel 'ch00' "
               "can take its noisy samples past the float range")
    for noise_base in (corpus.steady_median, None):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            degrade(corpus.dataset, DegradeSpec(drop_rate=0.1, noise_rate=1e307, seed=1),
                    noise_base)
        # a tenth of that rate degrades to finite samples
        out = degrade(corpus.dataset, DegradeSpec(drop_rate=0.1, noise_rate=1e306, seed=1),
                      noise_base)
        assert np.isfinite(out.values_matrix()[out.masks_matrix()]).all()
    # without noise_base a channel with no observed sample has a deviation
    # of 0, which no rate can overflow
    masks = corpus.dataset.masks_matrix().copy()
    masks[1] = False
    data = corpus.dataset.with_values(corpus.dataset.values_matrix(), masks)
    out = degrade(data, DegradeSpec(drop_rate=0.1, noise_rate=1e306, seed=1))
    assert np.isfinite(out.values_matrix()[out.masks_matrix()]).all()


# ---------------------------------------------------------------------------
# mape
# ---------------------------------------------------------------------------

def test_mape_zero_for_equal():
    assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_mape_half():
    assert mape([2.0], [1.0]) == pytest.approx(0.5)


def test_mape_excludes_zero_truth():
    assert mape([1.0, 0.0, 2.0], [1.0, 5.0, 1.0]) == pytest.approx(0.25)


def test_mape_undefined_when_all_zero():
    with pytest.raises(MapeUndefined):
        mape([0.0, 0.0], [1.0, 2.0])


def test_mape_length_mismatch():
    with pytest.raises(ShapeError):
        mape([1.0], [1.0, 2.0])


def test_mape_of_errors_near_the_float_range_is_finite():
    # each relative error is about 1e308, their sum is not a float: the
    # mean of 1e308, 1.5e308 and 1.7e308 is still one
    assert mape([1.0, 0.5, 1.0], [1e308, -0.75e308, 1.7e308]) == pytest.approx(1.4e308, rel=1e-15)
    # one relative error that is itself beyond the float range has no mean
    with pytest.raises(NumericError, match="^a relative error exceeds the float range$"):
        mape([1e-10, 1.0], [1e300, 1.0])


def test_mape_scale_invariance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        x = rng.normal(2.0, 1.0, n)
        x[x == 0.0] = 1.0
        y = x + rng.normal(0, 0.3, n)
        c = rng.uniform(0.01, 100.0) * rng.choice([-1.0, 1.0])
        assert mape(c * x, c * y) == pytest.approx(mape(x, y), rel=1e-9)


# ---------------------------------------------------------------------------
# kept rank of each impute_offline window
# ---------------------------------------------------------------------------

def kept_ranks(ds, cfg):
    return impute_offline(ds, cfg)[1].kept_rank


def test_rank_constant_dataset():
    ds = observed(np.repeat([[1.0], [2.0], [3.0]], 240, axis=1))
    assert kept_ranks(ds, RecoveryConfig(L=10, T=120)) == [1, 1]


def test_rank_single_sinusoid():
    t = np.arange(240) / 60.0
    tone = np.sin(2.0 * np.pi * 5.3 * t + 0.4)
    ds = observed(np.tile(tone, (4, 1)))
    assert kept_ranks(ds, RecoveryConfig(L=10, T=120)) == [2, 2]


def _event_corpus(seed=5):
    """Ten offset 5.3 Hz tones, each with a level shift from sample 185 on."""
    rng = np.random.default_rng(seed)
    t = np.arange(360) / 60.0
    rows = np.empty((10, 360))
    for row in rows:
        amp = rng.uniform(2.0, 3.0) * rng.choice([-1.0, 1.0])
        off = rng.uniform(4.0, 6.0) * rng.choice([-1.0, 1.0])
        delta = rng.uniform(4.0, 6.0) * rng.choice([-1.0, 1.0])
        row[:] = off + amp * np.sin(2.0 * np.pi * 5.3 * t + 0.7)
        row[185:] += delta
    return observed(rows)


def test_rank_rises_in_event_window():
    ds = _event_corpus()
    for variant in (MatrixVariant.PAGE, MatrixVariant.HANKEL):
        ranks = kept_ranks(ds, RecoveryConfig(L=10, T=120, variant=variant))
        assert len(ranks) == 3
        assert ranks[1] > ranks[0]


# ---------------------------------------------------------------------------
# run_benchmark
# ---------------------------------------------------------------------------

def test_benchmark_constant_corpus_zero_error():
    truth = Synthetic(observed(np.full((2, 120), 2.5)), {"c0": 2.5, "c1": 2.5})
    results = run_benchmark(
        truth,
        [Scenario(drop_rate=0.0)],
        impute_cfg=RecoveryConfig(L=10, T=120),
        repetitions=1,
    )
    assert results[0].error is None
    assert all(v == 0.0 for v in results[0].impute_mape.values())


def test_benchmark_monotone_in_drop_rate():
    truth = benchmark_corpus(n_channels=8, n_samples=480,
                             mode_freqs=(1.3, 2.2, 3.1), seed=11)
    results = run_benchmark(
        truth,
        [Scenario(drop_rate=d, noise_rate=0.05) for d in (0.1, 0.3, 0.5)],
        impute_cfg=RecoveryConfig(L=30, T=240),
        repetitions=5,
        master_seed=77,
    )
    medians = [float(np.median(list(r.impute_mape.values()))) for r in results]
    assert medians[0] <= medians[1] <= medians[2]
    for r in results:
        assert set(r.impute_mape) == set(truth.dataset.ids)


def test_benchmark_default_impute_window_fits_the_default_corpus():
    results = run_benchmark(benchmark_corpus(), [Scenario(0.1)], repetitions=1)
    assert results[0].error is None
    assert set(results[0].impute_mape) == set(benchmark_corpus().dataset.ids)


def test_benchmark_isolates_scenario_failures():
    truth = benchmark_corpus(n_channels=2, n_samples=100, seed=1)
    results = run_benchmark(
        truth,
        [Scenario(drop_rate=0.1)],
        impute_cfg=RecoveryConfig(L=10, T=200),  # longer than the corpus
        repetitions=1,
    )
    assert results[0].error is not None and "ShapeError" in results[0].error


def test_benchmark_checks_the_impute_window_before_any_repetition(monkeypatch):
    # T=240 is not divisible by L=7, which the scenario's page variant requires
    degraded = []
    monkeypatch.setattr(harness, "degrade", lambda *args, **kw: degraded.append(args))
    hankel_window = RecoveryConfig(L=7, T=240, variant=MatrixVariant.HANKEL)
    with pytest.raises(ConfigError, match="T=240 must be divisible by L=7 for the page"):
        run_benchmark(benchmark_corpus(), [Scenario(0.1)], impute_cfg=hankel_window)
    assert degraded == []


def test_benchmark_checks_every_channels_noise_deviation_before_any_repetition(monkeypatch):
    # degrade draws noise of standard deviation noise_rate * steady median,
    # which overflows to inf for the second scenario's rate 1e308 on channel
    # ch00; at 1e307 it is finite, but a draw of 13 deviations or more would
    # overflow a sample. Both are refused in one message
    degraded = []
    monkeypatch.setattr(harness, "degrade", lambda *args, **kw: degraded.append(args))
    for rate in (1e308, 1e307):
        scenarios = [Scenario(0.1, noise_rate=0.02), Scenario(0.1, noise_rate=rate)]
        message = (f"noise_rate {rate} times the noise scale of channel 'ch00' "
                   "can take its noisy samples past the float range")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_benchmark(benchmark_corpus(), scenarios)
    assert degraded == []


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_benchmark_checks_every_channels_noise_base_entry_before_any_repetition(
        bad, monkeypatch):
    degraded = []
    monkeypatch.setattr(harness, "degrade", lambda *args, **kw: degraded.append(args))
    corpus = benchmark_corpus()
    truth = Synthetic(corpus.dataset, {**corpus.steady_median, "ch01": bad})
    message = f"noise_base entry of channel 'ch01' must be finite and non-negative, got {bad}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_benchmark(truth, [Scenario(0.1, noise_rate=0.02)])
    assert degraded == []


def test_benchmark_fills_each_repetition_once(monkeypatch):
    # the persistence forecast reads the LOCF baseline the repetition
    # already holds, so each repetition LOCF-fills its degraded record once
    fill, calls = harness.locf_fill, []

    def counted(values, mask):
        calls.append(values.shape)
        return fill(values, mask)

    monkeypatch.setattr(harness, "locf_fill", counted)
    truth = benchmark_corpus(n_channels=2, n_samples=240, seed=1)
    results = run_benchmark(truth, [Scenario(0.2, 0.02)], repetitions=3)
    assert results[0].error is None
    assert calls == [(2, 240)] * 3


def test_benchmark_seed_derivation_deterministic():
    truth = benchmark_corpus(n_channels=2, n_samples=120, seed=1)
    kw = dict(
        impute_cfg=RecoveryConfig(L=10, T=120),
        repetitions=3,
        master_seed=5,
    )
    a = run_benchmark(truth, [Scenario(drop_rate=0.2)], **kw)
    b = run_benchmark(truth, [Scenario(drop_rate=0.2)], **kw)
    assert a[0].seeds == b[0].seeds
    assert a[0].impute_mape == b[0].impute_mape
    assert results_to_dict(a) == results_to_dict(b)


def test_benchmark_report_serialization():
    # the second scenario drops every sample, so its first repetition fails
    truth = benchmark_corpus(n_channels=2, n_samples=90, seed=2)
    results = run_benchmark(
        truth,
        [Scenario(drop_rate=0.1, noise_rate=0.02), Scenario(drop_rate=1.0, noise_rate=0.01)],
        impute_cfg=RecoveryConfig(L=10, T=90),
        repetitions=2,
    )
    payload = results_to_dict(results)
    assert json.loads(json.dumps(payload)) == payload
    ok, failed = payload["results"]
    assert set(ok) == {
        "scenario", "repetitions", "seeds", "impute_mape", "baseline_mape",
        "predict_mape", "persistence_mape", "error",
    }
    assert ok["scenario"] == {"drop_rate": 0.1, "noise_rate": 0.02, "variant": "page"}
    assert ok["repetitions"] == 2 and ok["error"] is None
    assert ok["seeds"] == [harness._rep_seed(0, 0, rep) for rep in range(2)]
    for metric in ("impute_mape", "baseline_mape", "predict_mape", "persistence_mape"):
        values = ok[metric]
        assert set(values) == set(truth.dataset.ids)
        assert all(v >= 0.0 for v in values.values())
    assert failed == {
        "scenario": {"drop_rate": 1.0, "noise_rate": 0.01, "variant": "page"},
        "repetitions": 2,
        "seeds": [harness._rep_seed(0, 1, 0)],
        "impute_mape": {},
        "baseline_mape": {},
        "predict_mape": {},
        "persistence_mape": {},
        "error": "AllMissingChannel: channel 'ch00' has no observed sample in the window "
                 "starting at sample 0",
    }


@pytest.mark.parametrize("repetitions", [3, 2])
def test_benchmark_medians_recompute_from_the_report_seeds(repetitions):
    # each channel's four MAPEs are rebuilt from the public functions for
    # every seed the report lists; the median over repetitions is the
    # middle one for 3 and the mean of the two for 2
    truth = benchmark_corpus(seed=4)
    scenarios = [Scenario(0.3, 0.02, MatrixVariant.PAGE), Scenario(0.1, 0.02, MatrixVariant.HANKEL)]
    report = results_to_dict(run_benchmark(truth, scenarios, repetitions=repetitions,
                                           master_seed=4))
    ref = truth.dataset.values_matrix()
    future = ref[:, harness.PREDICT_CFG.T:]
    for scenario, entry in zip(scenarios, report["results"]):
        assert entry["error"] is None and len(entry["seeds"]) == repetitions
        scores = {key: [] for key in ("impute_mape", "baseline_mape",
                                      "predict_mape", "persistence_mape")}
        for seed in entry["seeds"]:
            spec = DegradeSpec(scenario.drop_rate, scenario.noise_rate, seed)
            degraded = degrade(truth.dataset, spec, noise_base=truth.steady_median)
            impute_cfg = replace(harness.IMPUTE_CFG, variant=scenario.variant)
            predict_cfg = replace(harness.PREDICT_CFG, variant=scenario.variant)
            imputed, _ = impute_offline(degraded, impute_cfg)
            preds, _ = predict_stream(degraded, predict_cfg)
            for key, (expected, estimate) in {
                "impute_mape": (ref, imputed.values_matrix()),
                "baseline_mape": (ref, locf_baseline(degraded).values_matrix()),
                "predict_mape": (future, preds.values_matrix()),
                "persistence_mape": (future, persistence_baseline(degraded, predict_cfg.T)),
            }.items():
                scores[key].append([mape(t, e) for t, e in zip(expected, estimate)])
        for key, rows in scores.items():
            assert entry[key] == {cid: float(np.median([row[i] for row in rows]))
                                  for i, cid in enumerate(truth.dataset.ids)}


def test_negative_seed_is_config_error():
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        benchmark_corpus(n_channels=2, n_samples=60, seed=-1)
    truth = benchmark_corpus(n_channels=2, n_samples=60, seed=2)
    with pytest.raises(ConfigError, match="seed must be non-negative, got -2"):
        run_benchmark(truth, [Scenario(0.1)], master_seed=-2)
