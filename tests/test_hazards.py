"""Generated hazardous inputs: every recovery entry point gives finite output
or a typed error that names the culprit channel and window.

Each hazard rewrites one channel of a seeded, lightly degraded corpus. Every
hazard runs over a grid of windows, variants, record lengths and channel
counts through impute_offline, predict_stream and predict_next on the last
window; a numpy warning fails the suite (pyproject.toml), so a hazard that
overflows or divides by zero on its way to a finite answer fails too.
"""

import itertools

import numpy as np
import pytest

from pagerec import (
    Dataset,
    DegradeSpec,
    MatrixVariant,
    PagerecError,
    RecoveryConfig,
    benchmark_corpus,
    degrade,
    impute_offline,
    predict_next,
    predict_stream,
)

WINDOWS = ((2, 8), (5, 30), (8, 8), (10, 40))
LENGTHS = (40, 41, 120)
CHANNELS = (1, 3)
OUTAGE = 41  # samples, longer than every T above


def _stuck(values, masks, T):
    values[:] = values[masks.argmax()]


def _one_per_window(values, masks, T):
    # every length-T window, sliding or not, holds exactly one observation
    masks[:] = np.arange(len(masks)) % T == 0


def _huge(values, masks, T):
    values *= 1e300


def _largest(values, masks, T):
    # about x1e308: the largest magnitude becomes the largest float
    values /= np.abs(values).max()
    values *= np.finfo(float).max


def _tiny(values, masks, T):
    values *= 1e-300


def _zero_and_subnormal(values, masks, T):
    values[:] = np.where(np.arange(len(values)) % 2 == 1, 5e-324, 0.0)


def _outage(values, masks, T):
    start = max(0, (len(masks) - OUTAGE) // 2)
    masks[start:start + OUTAGE] = False


def _observed_inf(values, masks, T):
    masks[len(masks) // 2] = True
    values[len(masks) // 2] = np.inf


HAZARDS = {
    "stuck": _stuck,
    "one_per_window": _one_per_window,
    "huge": _huge,
    "largest": _largest,
    "tiny": _tiny,
    "zero_and_subnormal": _zero_and_subnormal,
    "outage": _outage,
    "observed_inf": _observed_inf,
}


def hazardous(hazard, n, N, T, seed):
    """A seeded N-channel record of n samples with 10% of its timestamps
    dropped, whose middle channel carries the hazard; also that channel's
    id. A hazard rewrites the channel's true values and its mask, so a
    sample it marks observed holds a value."""
    corpus = benchmark_corpus(n_channels=N, n_samples=n, seed=seed)
    values = corpus.dataset.values_matrix().copy()
    masks = degrade(corpus.dataset, DegradeSpec(drop_rate=0.1, seed=seed)).masks_matrix().copy()
    row = N // 2
    HAZARDS[hazard](values[row], masks[row], T)
    values[~masks] = np.nan
    return corpus.dataset.with_values(values, masks), corpus.dataset.ids[row]


def outcome(call, channel):
    """None when call gives finite output or a typed error naming channel
    and its window, else what went wrong."""
    try:
        out = call()
    except PagerecError as exc:
        message = str(exc)
        if f"channel {channel!r}" in message and "window starting at sample" in message:
            return None
        return f"{type(exc).__name__}: {message}"
    return None if np.isfinite(out).all() else "non-finite output"


@pytest.mark.parametrize("hazard", HAZARDS)
def test_hazard_gives_finite_output_or_a_typed_error_naming_the_channel(hazard):
    violations = []
    grid = itertools.product(WINDOWS, MatrixVariant, LENGTHS, CHANNELS)
    for seed, ((L, T), variant, n, N) in enumerate(grid):
        cfg = RecoveryConfig(L=L, T=T, variant=variant)
        data, channel = hazardous(hazard, n, N, T, seed)
        last = Dataset.from_arrays(data.timestamps[-T:], data.values_matrix()[:, -T:],
                                   data.masks_matrix()[:, -T:], data.ids)
        calls = {
            "impute_offline": lambda: impute_offline(data, cfg)[0].values_matrix(),
            "predict_next": lambda: list(predict_next(last, cfg)[0].values()),
        }
        if n > T:  # predict_stream needs at least one step
            calls["predict_stream"] = lambda: predict_stream(data, cfg)[0].values_matrix()
        for name, call in calls.items():
            problem = outcome(call, channel)
            if problem is not None:
                violations.append(f"{name} L={L} T={T} {variant.value} n={n} N={N}: {problem}")
    assert violations == []
