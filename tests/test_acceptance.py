"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line with the measured
quantity next to its pinned tolerance. Every expected value is produced by
an oracle independent of the code path it checks: arbitrary-precision
formula evaluation, direct recursion, brute-force fills, or raw SVD spectra.
"""

import math
import time
from decimal import Decimal, getcontext

import numpy as np

from pagerec import (
    ChannelSeries,
    Dataset,
    DegradeSpec,
    MatrixVariant,
    RecoveryConfig,
    Scenario,
    benchmark_corpus,
    degrade,
    impute_offline,
    locf_fill,
    mape,
    optimal_threshold,
    predict_next,
    predict_stream,
    run_benchmark,
)
from pagerec.matrices import hankel_entries, page_entries
from pagerec.recovery import _unstack
from pagerec.svt import osvt_batch


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def lrf_oracle(n, coeffs, init):
    f = np.empty(n)
    g = len(coeffs)
    f[:g] = init
    for t in range(g, n):
        f[t] = sum(a * f[t - k] for k, a in enumerate(coeffs, start=1))
    return f


def dataset_from_rows(rows):
    """Fully observed dataset of the (N, n) rows at 60 samples per second,
    channels c00, c01, ..."""
    t = np.arange(rows.shape[1]) / 60.0
    return Dataset.from_arrays(t, rows, np.ones(rows.shape, dtype=bool),
                               [f"c{i:02d}" for i in range(len(rows))])


# ---------------------------------------------------------------------------
# 1. threshold formula
# ---------------------------------------------------------------------------

def test_criterion_1_threshold_formula():
    getcontext().prec = 50
    square = optimal_threshold(10, 10)
    target = 4.0 / math.sqrt(3.0)
    err_square = abs(square - target)

    flat = optimal_threshold(1, 10**9)
    err_flat = abs(flat - math.sqrt(2.0))

    # independent high-precision evaluation at an interior aspect ratio
    z = Decimal(1) / Decimal(4)
    oracle = float((2 * (z + 1) + 8 * z / ((z + 1) + (z * z + 14 * z + 1).sqrt())).sqrt())
    err_quarter = abs(optimal_threshold(25, 100) - oracle)

    ok = err_square < 1e-9 and err_flat < 1e-4 and err_quarter < 1e-12
    report(1, ok,
           f"|f(1)-4/sqrt3|={err_square:.2e} (tol 1e-9), "
           f"|f(1e-9)-sqrt2|={err_flat:.2e} (tol 1e-4), "
           f"|f(0.25)-oracle|={err_quarter:.2e}")


# ---------------------------------------------------------------------------
# 2. exact recovery of a noiseless low-rank dataset
# ---------------------------------------------------------------------------

def test_criterion_2_exact_recovery():
    rng = np.random.default_rng(3)
    n, rate = 600, 60.0
    t = np.arange(n) / rate
    rows = []
    for _ in range(6):
        a, b = rng.uniform(0.5, 1.0, 2)
        p1, p2 = rng.uniform(0, 2 * np.pi, 2)
        off = rng.uniform(0.3, 0.8) * rng.choice([-1.0, 1.0])
        rows.append(off + a * np.sin(2 * np.pi * 2.9 * t + p1)
                    + b * np.sin(2 * np.pi * 7.7 * t + p2))
    rows = np.vstack(rows)
    data = dataset_from_rows(rows)

    start = time.perf_counter()
    recovered, _ = impute_offline(data, RecoveryConfig(L=10, T=600))
    elapsed = time.perf_counter() - start

    rv = recovered.values_matrix()
    worst = max(
        np.linalg.norm(rv[i] - rows[i]) / np.linalg.norm(rows[i])
        for i in range(6)
    )
    ok = worst < 1e-6 and elapsed < 1.0
    report(2, ok, f"worst rel RMS={worst:.2e} (tol 1e-6), wall={elapsed:.3f}s (<1s)")


# ---------------------------------------------------------------------------
# 3. forecasting a noiseless linear recurrence
# ---------------------------------------------------------------------------

def test_criterion_3_lrf_forecast():
    T, L, steps, n_channels = 30, 5, 500, 12
    n = T + steps
    rng = np.random.default_rng(7)
    scales = rng.uniform(0.5, 2.0, n_channels) * rng.choice([-1.0, 1.0], n_channels)
    # initial values sit on a geometric mode of the recurrence, so every
    # window matrix is exactly low rank and survives thresholding
    truth = np.vstack([lrf_oracle(n, (1.8, -0.81), (s, 0.9 * s)) for s in scales])
    data = dataset_from_rows(truth)

    start = time.perf_counter()
    preds, _ = predict_stream(data, RecoveryConfig(L=L, T=T))
    elapsed = time.perf_counter() - start

    err = np.abs(preds.values_matrix() - truth[:, T:]).max()
    ok = err < 1e-5 and elapsed < 5.0
    report(3, ok, f"max |error|={err:.2e} (tol 1e-5) over {steps} steps, "
                  f"wall={elapsed:.2f}s (<5s)")


# ---------------------------------------------------------------------------
# 4. degraded recovery trend across drop rates
# ---------------------------------------------------------------------------

def test_criterion_4_drop_rate_trend():
    start = time.perf_counter()
    corpus = benchmark_corpus(
        n_channels=30, n_samples=1200, mode_freqs=(1.3, 2.2, 3.1), seed=11,
    )
    drops = (0.1, 0.3, 0.5)
    results = run_benchmark(
        corpus,
        [Scenario(drop_rate=d, noise_rate=0.05) for d in drops],
        impute_cfg=RecoveryConfig(L=30, T=240),
        repetitions=20,
        master_seed=11,
    )
    elapsed = time.perf_counter() - start
    assert all(r.error is None for r in results)

    imputed = [float(np.median(list(r.impute_mape.values()))) for r in results]
    baseline = [float(np.median(list(r.baseline_mape.values()))) for r in results]
    monotone = imputed[0] <= imputed[1] <= imputed[2]
    dominated = all(i < b for i, b in zip(imputed, baseline))
    ok = monotone and dominated and elapsed < 120.0
    detail = ", ".join(
        f"drop {d:.0%}: {i:.3e} vs locf {b:.3e}"
        for d, i, b in zip(drops, imputed, baseline)
    )
    report(4, ok, f"{detail}; monotone={monotone}, below baseline={dominated}, "
                  f"wall={elapsed:.1f}s (<120s)")


# ---------------------------------------------------------------------------
# 5. Page vs short-window Hankel prediction accuracy
# ---------------------------------------------------------------------------

def test_criterion_5_page_vs_short_hankel():
    start = time.perf_counter()
    corpus = benchmark_corpus(n_channels=3, n_samples=230, mode_freqs=(4.3, 7.1), seed=21)
    truth = corpus.dataset.values_matrix()
    reps = 10
    medians = {}
    for variant, T in ((MatrixVariant.PAGE, 30), (MatrixVariant.HANKEL, 10)):
        cfg = RecoveryConfig(L=5, T=T, variant=variant)
        per_rep = []
        for rep in range(reps):
            degraded = degrade(
                corpus.dataset,
                DegradeSpec(drop_rate=0.2, noise_rate=0.02, seed=9000 + rep),
                noise_base=corpus.steady_median,
            )
            preds, _ = predict_stream(degraded, cfg)
            pv = preds.values_matrix()[:, 30 - T:]  # align both to targets 30..n-1
            per_rep.append(
                np.median([mape(truth[i, 30:], pv[i]) for i in range(3)])
            )
        medians[variant] = float(np.median(per_rep))
    elapsed = time.perf_counter() - start
    page, hankel = medians[MatrixVariant.PAGE], medians[MatrixVariant.HANKEL]
    ok = page <= hankel and elapsed < 120.0
    report(5, ok, f"page 5x6 (T=30) MAPE={page:.3e} <= hankel 5x6 (T=10) "
                  f"MAPE={hankel:.3e}, wall={elapsed:.1f}s (<120s)")


# ---------------------------------------------------------------------------
# 6. online step timing: Page vs Hankel at equal window length
# ---------------------------------------------------------------------------

def test_criterion_6_step_timing():
    corpus = benchmark_corpus(n_channels=3, n_samples=160,
                              mode_freqs=(4.3, 7.1), seed=13)
    data = corpus.dataset
    variants = (MatrixVariant.PAGE, MatrixVariant.HANKEL)
    cfgs = {v: RecoveryConfig(L=5, T=30, variant=v) for v in variants}
    # stream step times are chunk times over the chunk's steps (amortised);
    # three alternating replays per variant, so one slow chunk cannot decide
    steps = {v: [] for v in variants}
    for _ in range(3):
        for variant, cfg in cfgs.items():
            _, rep = predict_stream(data, cfg)
            assert len(rep.step_seconds) >= 100
            steps[variant].extend(rep.step_seconds)
    stream = {v: 1000 * float(np.median(steps[v])) for v in variants}
    # single-step latency: one predict_next call per window, the two
    # variants alternating so both meet the same machine load
    t, values, masks = data.timestamps, data.values_matrix(), data.masks_matrix()
    calls = {v: [] for v in variants}
    for j in range(len(data) - 30):
        w = slice(j, j + 30)
        window = Dataset(
            tuple(
                ChannelSeries(c.channel_id, c.kind, t[w], values[i, w], masks[i, w])
                for i, c in enumerate(data.channels)
            ),
            data.rate_fps,
        )
        for variant, cfg in cfgs.items():
            start = time.perf_counter()
            predict_next(window, cfg)
            calls[variant].append(1000 * (time.perf_counter() - start))
    single = {v: float(np.median(calls[v])) for v in variants}
    page, hankel = MatrixVariant.PAGE, MatrixVariant.HANKEL
    ok = (stream[page] < stream[hankel] and stream[page] < 16.7
          and single[page] < single[hankel] and single[page] < 16.7)
    report(6, ok, f"median stream step (amortised): page={stream[page]:.3f}ms < "
                  f"hankel={stream[hankel]:.3f}ms; median predict_next call: "
                  f"page={single[page]:.3f}ms < hankel={single[hankel]:.3f}ms; "
                  f"page < 16.7ms frame budget")


# ---------------------------------------------------------------------------
# 7. offline throughput
# ---------------------------------------------------------------------------

def test_criterion_7_offline_throughput():
    data = benchmark_corpus(n_channels=12, n_samples=54000, seed=29).dataset
    start = time.perf_counter()
    recovered, _ = impute_offline(data, RecoveryConfig(L=10, T=54000))
    elapsed = time.perf_counter() - start
    ok = elapsed < 2.0 and len(recovered) == 54000
    report(7, ok, f"54000 samples x 12 channels imputed in {elapsed:.3f}s (<2s)")


# ---------------------------------------------------------------------------
# 8. rank profile around a step event
# ---------------------------------------------------------------------------

def test_criterion_8_event_rank_rises():
    # ten offset 5.3 Hz tones, each with a level shift from sample 185 on,
    # inside the second of three 120-sample windows
    rng = np.random.default_rng(5)
    t = np.arange(360) / 60.0
    rows = np.empty((10, 360))
    for row in rows:
        amp = rng.uniform(2.0, 3.0) * rng.choice([-1.0, 1.0])
        off = rng.uniform(4.0, 6.0) * rng.choice([-1.0, 1.0])
        delta = rng.uniform(4.0, 6.0) * rng.choice([-1.0, 1.0])
        row[:] = off + amp * np.sin(2.0 * np.pi * 5.3 * t + 0.7)
        row[185:] += delta
    data = dataset_from_rows(rows)
    details = []
    ok = True
    for variant in (MatrixVariant.PAGE, MatrixVariant.HANKEL):
        _, rep = impute_offline(data, RecoveryConfig(L=10, T=120, variant=variant))
        ranks = rep.kept_rank
        ok &= len(ranks) == 3 and ranks[1] > ranks[0]
        details.append(f"{variant.value}: steady={ranks[0]} event={ranks[1]}")
    report(8, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. invariant property suites (>=100 seeded cases each)
# ---------------------------------------------------------------------------

def _tone_matrix(rng):
    n = 12 * int(rng.integers(4, 9))
    t = np.arange(n) / 60.0
    w = rng.uniform(0.5, 2.0) * np.sin(2 * np.pi * rng.uniform(2, 9) * t + rng.uniform(0, 6))
    w -= 0.5 * (w.min() + w.max())
    return w.reshape(-1, 6).T


def _round_trip(w, L, variant):
    """w stacked by the engine's own matrix builder and reshaped back by its
    _unstack, one window of one channel with the identity scale."""
    make = page_entries if variant is MatrixVariant.PAGE else hankel_entries
    cfg = RecoveryConfig(L=L, T=len(w), variant=variant)
    scale = np.zeros((1, 1, 1))
    return _unstack(make(w, L)[None], scale, scale + 1.0, cfg)[0, 0]


def _unit_estimate(X):
    """The thresholded estimate of the matrix X and its kept rank: X mapped
    affinely onto [-1, 1], min to -1 and max to 1, thresholded by osvt_batch
    and mapped back."""
    lo, hi = 0.5 * X.min(), 0.5 * X.max()
    mid, half = lo + hi, hi - lo
    out = osvt_batch(((X - mid) / half)[None])
    return out.estimate()[0] * half + mid, int(out.kept_rank[0])


def test_criterion_9_property_suites():
    cases = 100
    failures = []

    rng = np.random.default_rng(101)
    for _ in range(cases):
        X = rng.normal(0, rng.uniform(0.5, 3), (int(rng.integers(2, 7)), int(rng.integers(2, 10))))
        if np.abs(_unit_estimate(X)[0] - _unit_estimate(X.T)[0].T).max() >= 1e-9:
            failures.append("osvt transpose consistency")
            break

    rng = np.random.default_rng(102)
    for _ in range(cases):
        X = _tone_matrix(rng) * rng.uniform(0.5, 2.0)
        c = rng.uniform(-40, 40)
        (a, a_rank), (b, b_rank) = _unit_estimate(X), _unit_estimate(X + c)
        if b_rank != a_rank or np.abs(b - a - c).max() >= 1e-9:
            failures.append("osvt shift equivariance")
            break

    rng = np.random.default_rng(103)
    t = None
    for _ in range(cases):
        n = int(rng.integers(2, 50))
        mask = rng.random(n) > rng.uniform(0.2, 0.8)
        if not mask.any():
            mask[int(rng.integers(n))] = True
        vals = rng.normal(0, 5, n)
        vals[~mask] = np.nan
        out = locf_fill(vals, mask)
        if not np.array_equal(out[mask], vals[mask]):
            failures.append("fill preserves observed")
            break

    rng = np.random.default_rng(104)
    for _ in range(cases):
        L = int(rng.integers(2, 7))
        w = rng.normal(size=L * int(rng.integers(1, 9)))
        if not np.array_equal(_round_trip(w, L, MatrixVariant.PAGE), w):
            failures.append("page round trip")
            break

    rng = np.random.default_rng(105)
    for _ in range(cases):
        L = int(rng.integers(2, 7))
        w = rng.normal(size=int(rng.integers(L, 40)))
        back = _round_trip(w, L, MatrixVariant.HANKEL)
        if np.abs(back - w).max() >= 1e-12:
            failures.append("hankel unmodified round trip")
            break

    corpus = benchmark_corpus(n_channels=2, n_samples=60, seed=7)
    rng = np.random.default_rng(106)
    for _ in range(cases):
        spec = DegradeSpec(drop_rate=float(rng.uniform(0, 0.6)),
                           noise_rate=float(rng.uniform(0, 0.1)),
                           seed=int(rng.integers(1 << 31)))
        a = degrade(corpus.dataset, spec, corpus.steady_median)
        b = degrade(corpus.dataset, spec, corpus.steady_median)
        same = (np.array_equal(a.values_matrix(), b.values_matrix(), equal_nan=True)
                and np.array_equal(a.masks_matrix(), b.masks_matrix()))
        if not same:
            failures.append("degrade determinism")
            break

    rng = np.random.default_rng(107)
    for _ in range(cases):
        n = int(rng.integers(1, 40))
        x = rng.normal(3, 1, n)
        x[x == 0.0] = 1.0
        y = x + rng.normal(0, 0.4, n)
        c = rng.uniform(0.01, 50) * rng.choice([-1.0, 1.0])
        if not math.isclose(mape(c * x, c * y), mape(x, y), rel_tol=1e-9):
            failures.append("mape scale invariance")
            break

    ok = not failures
    report(9, ok, "all 7 property suites over 100 seeded cases"
           if ok else f"failed: {failures}")
