#!/usr/bin/env python3
"""Benchmark of pagerec, run against the package under ``src/`` of the
checkout that holds this file.

    python3 perfbench/run.py --workload live_frames --seed 1 --seconds 40 --trace 0

Set-up runs several times and its median is reported. Then the workload's
call repeats, one caller in a closed loop, until the next call would end
past --seconds; the outputs are checked afterwards. With --trace 0 the
end-to-end metrics are printed, with times in multiples of a fixed
reference task timed beside the program; with --trace 1 the per-layer
metrics of traced calls interleaved with untraced ones. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from tracing import Tracer, layer_metrics, patched, spans_to_rows, unit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

# One BLAS thread: the matrices are small or short-lived, and on a shared
# 2-CPU box a second spinning thread mostly adds run-to-run noise.
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 0.5  # cheap set-ups repeat until this much time is spent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("archive_csv", "live_frames", "scenario_grid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit() -> str:
    """HEAD of the checkout's own repository, read without running git, or
    'none' for an exported tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(args) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "pagerec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in _THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(workload, seconds, trace):
    """One warm-up call, then alternate untraced (and, when tracing, traced)
    calls until the next round would end more than `seconds` after the
    warm-up began; at least two rounds, so outputs can be compared between
    calls. Also returns the peak resident memory after the warm-up."""
    tracer = Tracer() if trace else None
    plain, traced, layers, last_spans = [], [], [], []
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        workload.run_once(record=False)
    # read before any call runs the reference sampler, whose SIGALRM
    # handler raises a batch call's peak memory by some 20 MB
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds_start = time.perf_counter()
    rounds = 0
    while True:
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's summary lines
            plain.append(workload.run_once())
            if trace:
                with patched(tracer):
                    traced.append(workload.run_once(tracer))
        if trace:
            layers.append(layer_metrics(tracer))
            last_spans = list(tracer.spans)
            tracer.reset()
        rounds += 1
        now = time.perf_counter()
        if rounds >= 2 and now - start + (now - rounds_start) / rounds > seconds:
            return plain, traced, layers, last_spans, peak_rss_mb


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pagerec" / "__init__.py").is_file():
        print(f"error: no pagerec sources under {SRC}", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy loads BLAS
    sys.path.insert(0, str(SRC))

    import numpy as np

    import pagerec
    from stats import percentile
    from workloads import WORKLOADS

    if Path(pagerec.__file__).resolve().parent != SRC / "pagerec":
        print(f"error: imported pagerec from {pagerec.__file__}, not {SRC}", file=sys.stderr)
        return 2

    info = provenance(args)
    print("provenance " + json.dumps(info, sort_keys=True))

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = []
        while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        plain, traced, layers, last_spans, peak_rss_mb = measure(
            workload, args.seconds, args.trace)
        checked = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in checked["notes"]:
        print(note)
    failed, attempted = workload.failed, workload.attempted
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    correct = failed == 0 and np.isfinite(checked["mape_vs_baseline"])

    if args.trace:
        metrics = {}
        for name in layers[0]:
            metrics[name] = {"value": median([m[name] for m in layers]), "unit": unit(name)}
        metrics["trace.overhead_frac"] = {
            "value": median(traced) / median(plain) - 1.0, "unit": "ratio"}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"provenance": info, "spans": spans_to_rows(last_spans)}) + "\n")
        print(f"spans of the last traced call -> {spans_path.relative_to(ROOT)}")
        print(f"traced calls {len(traced)}, untraced calls {len(plain)}")
    else:
        # Times in multiples of the reference task's (workloads.reference):
        # the other tenants of a shared machine slow program and reference
        # alike, for spells of milliseconds to minutes, and the ratio cancels
        # most of that. The times as measured are printed for reading.
        ratios = workload.step_ratios()
        frames = np.repeat(ratios, workload.frames_per_step)
        metrics = {
            "setup_s": {"value": median(setup_s), "unit": "s"},
            "run_ref": {"value": float(ratios.sum()), "unit": "ref"},
            "frame_p50_ref": {"value": percentile(frames, 50), "unit": "ref"},
            "frame_p99_ref": {"value": percentile(frames, 99), "unit": "ref"},
            "mape_vs_baseline": {"value": checked["mape_vs_baseline"], "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        timed = np.repeat(np.concatenate(workload.steps), workload.frames_per_step)
        refs = np.concatenate(workload.refs)
        print(f"setup repeats {len(setup_s)}, timed calls {len(plain)}, "
              f"steps per call {len(ratios)}, frames per call {len(frames)}")
        print(f"as timed: run_s {median(plain):.4g} s (median call), "
              f"frame_p50_ms {percentile(timed, 50) * 1e3:.4g}, "
              f"frame_p99_ms {percentile(timed, 99) * 1e3:.4g} (all calls' frames); "
              f"reference piece median {np.median(refs) * 1e6:.4g} us, "
              f"fastest {refs.min() * 1e6:.4g} us")

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
