"""Tests of the benchmark's own code: span arithmetic, wrapper installation,
the percentile guard and the reference sampler."""

import importlib
import signal
import time

import numpy as np
import pytest

from stats import percentile
from tracing import TARGETS, Span, Tracer, layer_metrics, patched, self_times
from workloads import reference_sampler


def test_self_time_subtracts_children_once():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping, union 5) and
    # [8, 9]; the first child has a grandchild [2, 3] that is not root's child
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("b", 0, 3.0, 6.0),
        Span("c", 0, 8.0, 9.0),
        Span("d", 1, 2.0, 3.0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_nested_same_name_spans_count_once():
    tracer = Tracer()
    tracer.spans.extend([
        Span("harness.baselines", None, 0.0, 5.0),  # persistence_baseline
        Span("harness.baselines", 0, 1.0, 4.0),     # its locf_baseline
        Span("core.locf_fill", None, 6.0, 7.0),
    ])
    m = layer_metrics(tracer)
    assert m["harness.baselines_s"] == pytest.approx(5.0)
    assert m["core.locf_fill_s"] == pytest.approx(1.0)
    assert m["core.locf_fill_calls"] == 1


def _originals():
    out = {}
    for module_name, attr, _, _ in TARGETS:
        module = importlib.import_module(module_name)
        out[(module_name, attr)] = getattr(module, attr)
    return out


def test_wrappers_are_removed_leaving_the_original_objects():
    before = _originals()
    tracer = Tracer()
    with patched(tracer):
        during = _originals()
        assert all(during[k] is not before[k] for k in before)
        from pagerec import recovery
        recovery.locf_fill(np.array([1.0, 0.0, 3.0]), np.array([True, False, True]))
    after = _originals()
    assert all(after[k] is before[k] for k in before)
    assert [s.name for s in tracer.spans] == ["core.locf_fill"]


def test_wrappers_are_removed_when_the_traced_call_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with patched(Tracer()):
            raise RuntimeError("traced call failed")
    after = _originals()
    assert all(after[k] is before[k] for k in before)


def test_span_parents_follow_the_call_stack():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    inner()
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None), ("inner", 0), ("inner", None)]


def test_percentile_needs_ten_samples_beyond():
    assert percentile(np.arange(1000.0), 99) == pytest.approx(989.01)
    with pytest.raises(ValueError, match="at least 10"):
        percentile(np.arange(999.0), 99)
    with pytest.raises(ValueError):
        percentile(np.arange(19.0), 50)
    assert percentile(np.arange(20.0), 50) == pytest.approx(9.5)


def test_reference_sampler_samples_then_restores_timer_and_handler():
    before = signal.getsignal(signal.SIGALRM)
    with reference_sampler() as pieces:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert pieces and min(pieces) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
