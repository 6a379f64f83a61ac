"""The benchmark corpus, degradation injection, error metrics and benchmarks.

The corpus is seeded ground truth: channels that mix a few shared
sinusoidal modes. Benchmarks call only the public recovery entry points
(impute_offline, predict_stream) and score their output against it.

Everything here is deterministic under its seed: degradation derives all
randomness from DegradeSpec.seed, and benchmark repetition seeds are derived
from one master seed, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .core import Dataset, locf_fill
from .errors import AllMissingChannel, ConfigError, MapeUndefined, NumericError, ShapeError
from .matrices import MatrixVariant
from .recovery import RecoveryConfig, impute_offline, predict_stream

__all__ = [
    "Synthetic",
    "benchmark_corpus",
    "DegradeSpec",
    "degrade",
    "mape",
    "locf_baseline",
    "persistence_baseline",
    "Scenario",
    "ScenarioResult",
    "run_benchmark",
    "results_to_dict",
]


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Synthetic:
    """Ground-truth dataset plus each channel's median magnitude (the noise
    scale basis for degradation)."""

    dataset: Dataset
    steady_median: dict[str, float]


def benchmark_corpus(
    n_channels: int = 6,
    n_samples: int = 1200,
    mode_freqs: Sequence[float] = (1.3, 2.2, 3.1),
    seed: int = 0,
) -> Synthetic:
    """Correlated, fully observed multichannel corpus at 60 samples per
    second: channel i is offset_i + sum_k w_ik sin(2 pi f_k t + phase_k), so
    every channel mixes the same modes f_k, with seeded weights (magnitudes
    in [0.8, 1.2]), phases and offsets (magnitudes in [4, 7]). A negative
    seed, and fewer than one channel or sample, is a ConfigError."""
    _check_seed(seed)
    for name, size in (("n_channels", n_channels), ("n_samples", n_samples)):
        if size < 1:
            raise ConfigError(f"{name} must be at least 1, got {size}")
    rng = np.random.default_rng(seed)
    n_modes = len(mode_freqs)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_modes)
    weights = np.empty((n_channels, n_modes))
    offsets = np.empty((n_channels, 1))
    for i in range(n_channels):
        weights[i] = rng.uniform(0.8, 1.2, n_modes) * rng.choice([-1.0, 1.0], n_modes)
        offsets[i] = rng.uniform(4.0, 7.0) * rng.choice([-1.0, 1.0])
    t = np.arange(n_samples) / 60.0
    values = np.repeat(offsets, n_samples, axis=1)
    # the modes are added in turn, each sine computed once for all channels
    for hz, phase, w in zip(mode_freqs, phases, weights.T):
        values += w[:, None] * np.sin(2.0 * np.pi * float(hz) * t + phase)
    ids = [f"ch{i:02d}" for i in range(n_channels)]
    medians = np.median(np.abs(values), axis=1, overwrite_input=True)
    dataset = Dataset.from_arrays(t, values, np.ones(values.shape, dtype=bool), ids)
    return Synthetic(dataset, dict(zip(ids, medians.tolist())))


# ---------------------------------------------------------------------------
# Degradation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegradeSpec:
    """Simultaneous drops plus additive Gaussian noise.

    Exactly round(drop_rate * n) timestamps are masked out on every channel
    (shared across channels). Noise with per-channel standard deviation
    noise_rate * steady-median is added to the surviving samples.
    """

    drop_rate: float = 0.0
    noise_rate: float = 0.0
    seed: int = 0


def degrade(
    data: Dataset,
    spec: DegradeSpec,
    noise_base: Mapping[str, float] | None = None,
) -> Dataset:
    """Apply a degradation spec to a (typically ground-truth) dataset.

    noise_base overrides the per-channel noise scale; by default it is the
    median absolute value of the channel's observed samples, and a channel
    with no observed sample is left as it is. A rate outside its range, a
    channel missing from a given noise_base (when noise is added), a noise
    rate whose normal draws could take some channel's observed samples past
    the float range or a negative seed is a ConfigError.
    """
    _check_rates(spec.drop_rate, spec.noise_rate)
    _check_seed(spec.seed)
    deviations = _noise_deviations(data, spec.noise_rate, noise_base)

    rng = np.random.default_rng(spec.seed)
    n = len(data)
    n_drop = round(spec.drop_rate * n)
    drop_idx = rng.choice(n, size=n_drop, replace=False) if n_drop else np.empty(0, int)

    values = data.values_matrix().copy()
    masks = data.masks_matrix().copy()
    for vals, mask, deviation in zip(values, masks, deviations):
        # vals and mask are views: writing them writes the rows
        if spec.noise_rate:
            np.add(vals, rng.normal(0.0, deviation, n), out=vals, where=mask)
        mask[drop_idx] = False
        vals[drop_idx] = np.nan
    return Dataset._adopt(data.timestamps, values, masks, data.ids)


# A bound on the magnitude of numpy's standard normal draws. Generator's ziggurat
# draws one outside its base strip r = 3.6541528... as r - ln(1 - u) / r with
# u < 1 on a 2^-53 grid, so at most r + 53 ln 2 / r, about 13.708.
_MAX_DEVIATE = 13.75


def _noise_deviations(data: Dataset, noise_rate: float,
                      noise_base: Mapping[str, float] | None) -> list[float]:
    """Each channel's noise deviation in degrade: noise_rate times its noise
    scale, its noise_base entry or else its observed samples' median
    magnitude (0 with none). A channel missing from noise_base, or a
    deviation whose draws could overflow an observed sample, is a ConfigError."""
    if not noise_rate:
        return [0.0] * len(data.ids)
    values, masks = data.values_matrix(), data.masks_matrix()
    if noise_base is None:
        bases = [float(np.median(np.abs(v[m]))) if m.any() else 0.0
                 for v, m in zip(values, masks)]
    else:
        unscaled = [cid for cid in data.ids if cid not in noise_base]
        if unscaled:
            raise ConfigError(f"noise_base has no entry for channels {unscaled}")
        bases = [float(noise_base[cid]) for cid in data.ids]
    deviations = [noise_rate * base for base in bases]
    peaks = np.abs(values).max(axis=1, where=masks, initial=0.0).tolist()
    for cid, deviation, peak in zip(data.ids, deviations, peaks):
        # while the largest draw's share plus the channel's largest observed
        # magnitude is finite, no noisy sample overflows
        if deviation and not math.isfinite(deviation * _MAX_DEVIATE + peak):
            raise ConfigError(f"noise_rate {noise_rate} times the noise scale of channel "
                              f"{cid!r} can take its noisy samples past the float range")
    return deviations


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


def _check_rates(drop_rate: float, noise_rate: float) -> None:
    if not 0.0 <= drop_rate <= 1.0:
        raise ConfigError(f"drop_rate must lie in [0, 1], got {drop_rate}")
    if not noise_rate >= 0.0:
        raise ConfigError(f"noise_rate must be non-negative, got {noise_rate}")
    if noise_rate == np.inf:
        raise ConfigError(f"noise_rate must be finite, got {noise_rate}")


# ---------------------------------------------------------------------------
# Error metric
# ---------------------------------------------------------------------------

def mape(truth, estimate) -> float:
    """Mean absolute percentage error of estimate against truth.

    Indices where the true value is exactly zero are left out of the mean,
    since the relative error is undefined there; MapeUndefined is raised
    when every index is left out, ShapeError when the shapes differ. The
    mean is finite whenever every relative error is: where their sum would
    pass the largest float, each is divided by their count before they are
    summed. A relative error beyond the float range is a NumericError.
    """
    a = np.asarray(truth, dtype=float)
    b = np.asarray(estimate, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"length mismatch: {a.shape} vs {b.shape}")
    include = a != 0.0
    if not include.any():
        raise MapeUndefined("every index has a zero true value")
    with np.errstate(over="ignore"):
        errors = np.abs((a[include] - b[include]) / a[include])
        mean = np.mean(errors)
    if mean == np.inf:
        mean = np.sum(errors / errors.size)
        if mean == np.inf:
            raise NumericError("a relative error exceeds the float range")
    return float(mean)


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

def locf_baseline(degraded: Dataset) -> Dataset:
    """The do-nothing competitor: carry the last observation forward."""
    masks = degraded.masks_matrix()
    observed = masks.any(axis=1)
    if not observed.all():
        cid = degraded.ids[observed.argmin()]
        raise AllMissingChannel(f"channel {cid!r} has no observed sample")
    return Dataset._adopt(degraded.timestamps, locf_fill(degraded.values_matrix(), masks),
                          masks, degraded.ids)


def persistence_baseline(degraded: Dataset, T: int) -> np.ndarray:
    """One-step persistence forecast for indices T..n-1: predict the LOCF
    value of the previous sample."""
    filled = locf_baseline(degraded).values_matrix()
    return filled[:, T - 1:-1]


@dataclass(frozen=True)
class Scenario:
    drop_rate: float
    noise_rate: float = 0.0
    variant: MatrixVariant = MatrixVariant.PAGE

    def label(self) -> str:
        return f"drop{self.drop_rate:g}_noise{self.noise_rate:g}_{self.variant.value}"


@dataclass
class ScenarioResult:
    """A scenario's seeds and per-channel median MAPEs over repetitions of
    imputation, LOCF, prediction and persistence, all four scored in every
    scenario; a failed scenario keeps its error and empty dicts."""

    scenario: Scenario
    repetitions: int
    seeds: list[int] = field(default_factory=list)
    impute_mape: dict[str, float] = field(default_factory=dict)
    baseline_mape: dict[str, float] = field(default_factory=dict)
    predict_mape: dict[str, float] = field(default_factory=dict)
    persistence_mape: dict[str, float] = field(default_factory=dict)
    error: str | None = None


def _rep_seed(master_seed: int, scenario_index: int, rep: int) -> int:
    ss = np.random.SeedSequence((master_seed, scenario_index, rep))
    return int(ss.generate_state(1)[0])


# the streaming window of the benchmark's predict task and of `pagerec
# predict`'s defaults
PREDICT_CFG = RecoveryConfig(L=5, T=30)
# the impute window of the benchmark when none is given and of `pagerec
# bench`'s defaults; it fits the default 1200-sample corpus
IMPUTE_CFG = RecoveryConfig(L=10, T=240)


def run_benchmark(
    truth: Synthetic,
    scenarios: Sequence[Scenario],
    impute_cfg: RecoveryConfig | None = None,
    repetitions: int = 20,
    master_seed: int = 0,
) -> list[ScenarioResult]:
    """Run degradation scenarios against a ground-truth corpus.

    Per scenario and repetition the corpus is degraded with a derived seed
    and both modes run on it: impute_offline with impute_cfg (IMPUTE_CFG
    when None) against the LOCF fill of the degraded input, and
    predict_stream with PREDICT_CFG against the one-step persistence
    forecast, all at the scenario's variant. Each is scored per channel
    against the truth (median over repetitions). Scenario failures are
    isolated into the result's error field; an empty grid, fewer than one
    repetition, a rate outside its range or a noise rate that degrade
    refuses, a negative master seed or an impute window that does not suit
    some scenario's variant is a ConfigError before anything runs.
    """
    scenarios = tuple(scenarios)
    if repetitions < 1:
        raise ConfigError(f"repetitions must be at least 1, got {repetitions}")
    if not scenarios:
        raise ConfigError("the scenario grid is empty")
    _check_seed(master_seed)
    truth_vals = truth.dataset.values_matrix()
    ids = truth.dataset.ids
    for scenario in scenarios:
        _check_rates(scenario.drop_rate, scenario.noise_rate)
        # degrade's noise checks, made before any repetition
        _noise_deviations(truth.dataset, scenario.noise_rate, truth.steady_median)
    # the impute window for each scenario's variant, checked before any runs
    impute_cfgs = {sc.variant: replace(impute_cfg or IMPUTE_CFG, variant=sc.variant)
                   for sc in scenarios}
    future = truth_vals[:, PREDICT_CFG.T:]
    results: list[ScenarioResult] = []
    for s_idx, scenario in enumerate(scenarios):
        result = ScenarioResult(scenario=scenario, repetitions=repetitions)
        results.append(result)
        predict_cfg = replace(PREDICT_CFG, variant=scenario.variant)
        try:
            # one [impute, LOCF, predict, persistence] row of per-channel
            # MAPEs per repetition
            rows = []
            for rep in range(repetitions):
                seed = _rep_seed(master_seed, s_idx, rep)
                result.seeds.append(seed)
                dspec = DegradeSpec(
                    drop_rate=scenario.drop_rate,
                    noise_rate=scenario.noise_rate,
                    seed=seed,
                )
                degraded = degrade(truth.dataset, dspec, noise_base=truth.steady_median)
                recovered, _ = impute_offline(degraded, impute_cfgs[scenario.variant])
                baseline = locf_baseline(degraded)
                row = [[mape(t, e) for t, e in zip(truth_vals, estimate)]
                       for estimate in (recovered.values_matrix(), baseline.values_matrix())]
                preds, _ = predict_stream(degraded, predict_cfg)
                persistence = baseline.values_matrix()[:, predict_cfg.T - 1:-1]
                row += [[mape(t, e) for t, e in zip(future, estimate)]
                        for estimate in (preds.values_matrix(), persistence)]
                rows.append(row)
            (result.impute_mape, result.baseline_mape,
             result.predict_mape, result.persistence_mape) = (
                dict(zip(ids, medians.tolist())) for medians in np.median(rows, axis=0))
        except Exception as exc:  # isolate per-scenario failures
            result.error = f"{type(exc).__name__}: {exc}"
    return results


def results_to_dict(results: Sequence[ScenarioResult]) -> dict:
    """JSON-ready report collection: each ScenarioResult's fields, the
    scenario's settings among them with the variant as its value. It holds
    no wall time, so it is the same for the same inputs and seeds."""
    report = [asdict(r) for r in results]
    for entry in report:
        entry["scenario"]["variant"] = entry["scenario"]["variant"].value
    return {"results": report}

