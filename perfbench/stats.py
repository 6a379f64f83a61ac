"""Order statistics used by the benchmark's report."""

from __future__ import annotations

import math
import statistics

import numpy as np


def percentile(values, q: float) -> float:
    """The q-th percentile of values, refused when fewer than ten samples
    lie beyond it (a tail figure from fewer samples is mostly noise)."""
    n = len(values)
    beyond = n - math.ceil(n * q / 100.0)
    if beyond < 10:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; at least 10 are needed"
        )
    return float(np.percentile(values, q))


def spread(values) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) as statistics.quantiles gives
    them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3
