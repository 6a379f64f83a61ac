"""Synthetic signals, degradation injection, error metrics and benchmarks.

Benchmarks call only the public recovery entry points (impute_offline,
predict_stream) and score their output against ground truth.

Everything here is deterministic under its seed: degradation derives all
randomness from DegradeSpec.seed, and benchmark repetition seeds are derived
from one master seed, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import ChannelKind, Dataset, locf_fill
from .errors import AllMissingChannel, ConfigError, MapeUndefined, ShapeError
from .matrices import MatrixVariant
from .recovery import RecoveryConfig, impute_offline, predict_stream

__all__ = [
    "SinusoidSum",
    "LinearRecurrence",
    "StepEvent",
    "ChannelSpec",
    "SyntheticSpec",
    "Synthetic",
    "gen_synthetic",
    "benchmark_corpus",
    "DegradeSpec",
    "degrade",
    "mape",
    "Scenario",
    "ScenarioResult",
    "run_benchmark",
    "results_to_dict",
]


# ---------------------------------------------------------------------------
# Signal generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SinusoidSum:
    """Sum of sinusoids: offset + sum a*sin(2*pi*hz*t + phase), t in seconds."""

    components: tuple[tuple[float, float, float], ...]  # (amplitude, hz, phase)
    offset: float = 0.0

    def sample(self, t: np.ndarray) -> np.ndarray:
        out = np.full(len(t), self.offset)
        for amp, hz, phase in self.components:
            out += amp * np.sin(2.0 * np.pi * hz * t + phase)
        return out


@dataclass(frozen=True)
class LinearRecurrence:
    """f(t) = sum_g coeffs[g-1] * f(t-g), seeded by init = (f(0), f(1), ...)."""

    coeffs: tuple[float, ...]
    init: tuple[float, ...]

    def __post_init__(self):
        if len(self.init) != len(self.coeffs):
            raise ConfigError(
                f"need {len(self.coeffs)} initial values, got {len(self.init)}"
            )

    def spectral_radius(self) -> float:
        g = len(self.coeffs)
        companion = np.zeros((g, g))
        companion[0] = self.coeffs
        companion[1:, :-1] = np.eye(g - 1)
        return float(np.abs(np.linalg.eigvals(companion)).max())

    def sample(self, t: np.ndarray) -> np.ndarray:
        if self.spectral_radius() > 1.0 + 1e-12:
            warnings.warn(
                f"recurrence {self.coeffs} is unstable (spectral radius "
                f"{self.spectral_radius():.3f}); generating anyway",
                stacklevel=2,
            )
        n = len(t)
        g = len(self.coeffs)
        f = np.empty(n)
        f[:min(g, n)] = self.init[:min(g, n)]
        for i in range(g, n):
            acc = 0.0
            for k, a in enumerate(self.coeffs, start=1):
                acc += a * f[i - k]
            f[i] = acc
        return f


@dataclass(frozen=True)
class StepEvent:
    """Additive level shift from sample index `at` onward."""

    at: int
    delta: float


@dataclass(frozen=True)
class ChannelSpec:
    channel_id: str
    signal: SinusoidSum | LinearRecurrence
    kind: ChannelKind = ChannelKind.GENERIC
    events: tuple[StepEvent, ...] = ()


@dataclass(frozen=True)
class SyntheticSpec:
    channels: tuple[ChannelSpec, ...]
    n_samples: int


@dataclass(frozen=True)
class Synthetic:
    """Ground-truth dataset plus the per-channel pre-event median magnitude
    (the noise scale basis for degradation)."""

    dataset: Dataset
    steady_median: dict[str, float]


def gen_synthetic(spec: SyntheticSpec) -> Synthetic:
    """Generate a fully observed ground-truth dataset, sampled at 60 fps,
    from explicit per-channel generators; step events are applied after the
    steady-state medians are recorded."""
    t = np.arange(spec.n_samples) / 60.0
    values = np.empty((len(spec.channels), spec.n_samples))
    medians = {}
    for row, ch in zip(values, spec.channels):
        row[:] = ch.signal.sample(t)
        medians[ch.channel_id] = float(np.median(np.abs(row)))
        for ev in ch.events:
            if not 0 <= ev.at <= spec.n_samples:
                raise ConfigError(f"event index {ev.at} outside [0, {spec.n_samples}]")
            row[ev.at:] += ev.delta
    dataset = Dataset.from_arrays(
        t, values, np.ones(values.shape, dtype=bool),
        [ch.channel_id for ch in spec.channels], [ch.kind for ch in spec.channels],
    )
    return Synthetic(dataset, medians)


def benchmark_corpus(
    n_channels: int = 6,
    n_samples: int = 1200,
    mode_freqs: Sequence[float] = (1.3, 2.2, 3.1),
    seed: int = 0,
) -> Synthetic:
    """Correlated multichannel corpus at 60 samples per second: every
    channel mixes the same set of sinusoidal modes with seeded weights
    (magnitudes in [0.8, 1.2]), phases and offsets (magnitudes in [4, 7]).
    A negative seed is a ConfigError."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, len(mode_freqs))
    specs = []
    for i in range(n_channels):
        weights = rng.uniform(0.8, 1.2, len(mode_freqs)) * rng.choice([-1.0, 1.0], len(mode_freqs))
        offset = rng.uniform(4.0, 7.0) * rng.choice([-1.0, 1.0])
        comps = tuple(
            (float(w), float(f), float(p))
            for w, f, p in zip(weights, mode_freqs, phases)
        )
        specs.append(ChannelSpec(f"ch{i:02d}", SinusoidSum(comps, offset)))
    return gen_synthetic(SyntheticSpec(tuple(specs), n_samples))


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
    median absolute value of the channel's observed samples. A rate outside
    its range, a channel missing from a given noise_base (when noise is
    added) or a negative seed is a ConfigError.
    """
    _check_rates(spec.drop_rate, spec.noise_rate)
    _check_seed(spec.seed)
    if spec.noise_rate and noise_base is not None:
        unscaled = [cid for cid in data.ids if cid not in noise_base]
        if unscaled:
            raise ConfigError(f"noise_base has no entry for channels {unscaled}")

    rng = np.random.default_rng(spec.seed)
    n = len(data)
    n_drop = round(spec.drop_rate * n)
    drop_idx = rng.choice(n, size=n_drop, replace=False) if n_drop else np.empty(0, int)

    values = data.values_matrix().copy()
    masks = data.masks_matrix().copy()
    for i, cid in enumerate(data.ids):
        vals, mask = values[i], masks[i]  # views: writing them writes the rows
        if spec.noise_rate:
            if noise_base is not None:
                base = float(noise_base[cid])
            else:
                base = float(np.median(np.abs(vals[mask])))
            noise = rng.normal(0.0, spec.noise_rate * base, n)
            vals[mask] += noise[mask]
        mask[drop_idx] = False
        vals[drop_idx] = np.nan
    return data.with_values(values, masks)


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
    when every index is left out, ShapeError when the shapes differ.
    """
    a = np.asarray(truth, dtype=float)
    b = np.asarray(estimate, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"length mismatch: {a.shape} vs {b.shape}")
    include = a != 0.0
    if not include.any():
        raise MapeUndefined("every index has a zero true value")
    return float(np.mean(np.abs((a[include] - b[include]) / a[include])))


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
    return degraded.with_values(locf_fill(degraded.values_matrix(), masks))


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


def _per_channel_mape(ids, truth: np.ndarray, estimate: np.ndarray) -> dict[str, float]:
    """MAPE of each channel's estimate row against its truth row."""
    return {cid: mape(t, e) for cid, t, e in zip(ids, truth, estimate)}


def _per_channel_median(rows: list[dict[str, float]]) -> dict[str, float]:
    if not rows:
        return {}
    return {
        cid: float(np.median([r[cid] for r in rows])) for cid in rows[0]
    }


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
    tasks: Iterable[str] = ("impute",),
) -> list[ScenarioResult]:
    """Run degradation scenarios against a ground-truth corpus.

    Per scenario and repetition the corpus is degraded with a derived seed,
    recovered, and scored per channel against the truth (median over
    repetitions). The impute task runs impute_offline with impute_cfg
    (IMPUTE_CFG when None), the predict task predict_stream with
    PREDICT_CFG; both take the scenario's variant. The LOCF fill of the
    degraded input and the one-step persistence forecast serve as
    baselines. Scenario failures are isolated into the result's error
    field; an empty grid, fewer than one repetition, a rate outside its
    range, a negative master seed or an impute window that does not suit
    some scenario's variant is a ConfigError before anything runs.
    """
    tasks, scenarios = tuple(tasks), tuple(scenarios)
    unknown = set(tasks) - {"impute", "predict"}
    if unknown:
        raise ConfigError(f"unknown benchmark tasks: {sorted(unknown)}")
    if repetitions < 1:
        raise ConfigError(f"repetitions must be at least 1, got {repetitions}")
    if not scenarios:
        raise ConfigError("the scenario grid is empty")
    _check_seed(master_seed)
    for scenario in scenarios:
        _check_rates(scenario.drop_rate, scenario.noise_rate)
    # the impute window for each scenario's variant, checked before any runs
    impute_cfgs = {sc.variant: replace(impute_cfg or IMPUTE_CFG, variant=sc.variant)
                   for sc in scenarios if "impute" in tasks}
    truth_vals = truth.dataset.values_matrix()
    ids = truth.dataset.ids
    results: list[ScenarioResult] = []
    for s_idx, scenario in enumerate(scenarios):
        result = ScenarioResult(scenario=scenario, repetitions=repetitions)
        results.append(result)
        try:
            imp_rows, base_rows, pred_rows, pers_rows = [], [], [], []
            for rep in range(repetitions):
                seed = _rep_seed(master_seed, s_idx, rep)
                result.seeds.append(seed)
                dspec = DegradeSpec(
                    drop_rate=scenario.drop_rate,
                    noise_rate=scenario.noise_rate,
                    seed=seed,
                )
                degraded = degrade(truth.dataset, dspec, noise_base=truth.steady_median)
                if "impute" in tasks:
                    recovered, _ = impute_offline(degraded, impute_cfgs[scenario.variant])
                    baseline = locf_baseline(degraded)
                    imp_rows.append(_per_channel_mape(ids, truth_vals, recovered.values_matrix()))
                    base_rows.append(_per_channel_mape(ids, truth_vals, baseline.values_matrix()))
                if "predict" in tasks:
                    cfg = replace(PREDICT_CFG, variant=scenario.variant)
                    preds, _ = predict_stream(degraded, cfg)
                    persistence = persistence_baseline(degraded, cfg.T)
                    future = truth_vals[:, cfg.T:]
                    pred_rows.append(_per_channel_mape(ids, future, preds.values_matrix()))
                    pers_rows.append(_per_channel_mape(ids, future, persistence))
            result.impute_mape = _per_channel_median(imp_rows)
            result.baseline_mape = _per_channel_median(base_rows)
            result.predict_mape = _per_channel_median(pred_rows)
            result.persistence_mape = _per_channel_median(pers_rows)
        except Exception as exc:  # isolate per-scenario failures
            result.error = f"{type(exc).__name__}: {exc}"
    return results


def results_to_dict(results: Sequence[ScenarioResult]) -> dict:
    """JSON-ready report collection: per scenario its settings, repetition
    seeds, per-channel median MAPEs and error. It holds no wall time, so it
    is the same for the same inputs and seeds."""
    return {"results": [
        {
            "scenario": {
                "drop_rate": r.scenario.drop_rate,
                "noise_rate": r.scenario.noise_rate,
                "variant": r.scenario.variant.value,
            },
            "repetitions": r.repetitions,
            "seeds": list(r.seeds),
            "impute_mape": r.impute_mape,
            "baseline_mape": r.baseline_mape,
            "predict_mape": r.predict_mape,
            "persistence_mape": r.persistence_mape,
            "error": r.error,
        }
        for r in results
    ]}

