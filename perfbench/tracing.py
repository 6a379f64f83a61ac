"""Span tracing of pagerec from outside the package.

The traced run replaces functions at the module attribute through which the
package calls them (for example ``pagerec.recovery.osvt_estimate``, which is
how the window engine reaches the SVD) with wrappers that record one span per
call: name, start, end and parent. Spans stay in memory; the per-layer
metrics are computed from them after each timed call and every original
attribute is put back when tracing ends.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0


def _observe_osvt(tracer, args, kwargs, result):
    m, n = args[0].shape
    tracer.count("svt.cells", m * n)
    tracer.count("svt.kept_rank_sum", result.kept_rank)
    tracer.count("svt.fallback_rank1", int(result.fallback_rank1))


def _observe_ingest(tracer, args, kwargs, result):
    tracer.count("core.ingest_csv_bytes", os.path.getsize(args[0]))


def _observe_write(tracer, args, kwargs, result):
    tracer.count("core.write_csv_bytes", os.path.getsize(args[1]))


# (module, attribute, span name, observer). The attribute is the binding the
# package itself calls, so the wrapper sees every call the package makes.
TARGETS = (
    ("pagerec.cli", "run", "cli.run", None),
    ("pagerec.cli", "ingest_csv", "core.ingest_csv", _observe_ingest),
    ("pagerec.cli", "write_csv", "core.write_csv", _observe_write),
    ("pagerec.recovery", "locf_fill", "core.locf_fill", None),
    ("pagerec.recovery", "page_entries", "matrices.page_entries", None),
    ("pagerec.recovery", "hankel_entries", "matrices.hankel_entries", None),
    ("pagerec.recovery", "antidiagonal_means", "matrices.antidiagonal_means", None),
    ("pagerec.recovery", "osvt_estimate", "svt.osvt_estimate", _observe_osvt),
    ("pagerec.recovery", "predict_next", "recovery.predict_next", None),
    ("pagerec.cli", "impute_offline", "recovery.impute_offline", None),
    ("pagerec.harness", "impute_offline", "recovery.impute_offline", None),
    ("pagerec.harness", "predict_stream", "recovery.predict_stream", None),
    ("pagerec.cli", "benchmark_corpus", "harness.benchmark_corpus", None),
    ("pagerec.harness", "degrade", "harness.degrade", None),
    ("pagerec.harness", "mape", "harness.mape", None),
    ("pagerec.harness", "locf_baseline", "harness.baselines", None),
    ("pagerec.harness", "persistence_baseline", "harness.baselines", None),
    ("pagerec.cli", "run_benchmark", "harness.run_benchmark", None),
)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    _open: list[int] = field(default_factory=list)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str, observe=None):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            spans.append(Span(name, stack[-1] if stack else None, time.perf_counter()))
            index = len(spans) - 1
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index].end = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._open.clear()


@contextmanager
def patched(tracer: Tracer, targets=TARGETS):
    """Install a tracing wrapper at every target attribute that exists, and
    restore each original object on exit, also when the body raises."""
    saved = []
    try:
        for module_name, attr, name, observe in targets:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                continue  # a refactor removed this call path; its metrics read 0
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, observe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in kids if b > s.start and a < s.end]
        out.append((s.end - s.start) - _union_length(clipped))
    return out


def _outermost(spans: list[Span], name: str) -> list[int]:
    """Indices of spans called `name` with no ancestor of the same name, so a
    function that reaches itself again is not counted twice."""
    out = []
    for i, s in enumerate(spans):
        if s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            out.append(i)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one timed call, from its spans and counters."""
    spans = tracer.spans
    own = self_times(spans)

    def total(name):
        return sum(spans[i].end - spans[i].start for i in _outermost(spans, name))

    def self_total(name):
        return sum(own[i] for i, s in enumerate(spans) if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    c = tracer.counters
    osvt_calls = calls("svt.osvt_estimate")
    return {
        "cli.run_s": total("cli.run"),
        "cli.self_s": self_total("cli.run"),
        "core.ingest_csv_s": total("core.ingest_csv"),
        "core.ingest_csv_mb": c.get("core.ingest_csv_bytes", 0) / 1e6,
        "core.write_csv_s": total("core.write_csv"),
        "core.write_csv_mb": c.get("core.write_csv_bytes", 0) / 1e6,
        "core.dataset_build_s": total("core.dataset_build"),
        "core.locf_fill_s": total("core.locf_fill"),
        "core.locf_fill_calls": calls("core.locf_fill"),
        "matrices.page_entries_s": total("matrices.page_entries"),
        "matrices.page_entries_calls": calls("matrices.page_entries"),
        "matrices.hankel_entries_s": total("matrices.hankel_entries"),
        "matrices.hankel_entries_calls": calls("matrices.hankel_entries"),
        "matrices.antidiagonal_means_s": total("matrices.antidiagonal_means"),
        "svt.osvt_estimate_s": total("svt.osvt_estimate"),
        "svt.osvt_estimate_calls": osvt_calls,
        "svt.cells": c.get("svt.cells", 0),
        "svt.kept_rank_mean": c.get("svt.kept_rank_sum", 0) / osvt_calls if osvt_calls else 0.0,
        "svt.fallback_frac": c.get("svt.fallback_rank1", 0) / osvt_calls if osvt_calls else 0.0,
        "recovery.impute_offline_s": total("recovery.impute_offline"),
        "recovery.impute_offline_self_s": self_total("recovery.impute_offline"),
        "recovery.predict_stream_s": total("recovery.predict_stream"),
        "recovery.predict_stream_self_s": self_total("recovery.predict_stream"),
        "recovery.predict_next_s": total("recovery.predict_next"),
        "recovery.predict_next_self_s": self_total("recovery.predict_next"),
        "harness.benchmark_corpus_s": total("harness.benchmark_corpus"),
        "harness.degrade_s": total("harness.degrade"),
        "harness.mape_s": total("harness.mape"),
        "harness.mape_calls": calls("harness.mape"),
        "harness.baselines_s": total("harness.baselines"),
        "harness.run_benchmark_self_s": self_total("harness.run_benchmark"),
    }


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_calls", ".cells", "_rank_mean")):
        return "count"
    return "ratio"


def spans_to_rows(spans: list[Span]) -> list[list]:
    """Spans as [index, name, parent, start, end] rows for a JSON dump."""
    return [[i, s.name, s.parent, s.start, s.end] for i, s in enumerate(spans)]
