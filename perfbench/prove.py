#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --seeds 1-10
    python3 perfbench/prove.py --workloads live_frames --seeds 1-5 --seconds 20

Every run is a fresh process of perfbench/run.py. For each workload and
metric this prints the median, the quartiles (statistics.quantiles, n=4) and
their distance as a share of the median, next to the metric's bound in
BENCHMARK.json; a spread at or above a third of the bound is flagged. The
raw results and the summary are written as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seed_range(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=_seed_range, default=_seed_range("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "prove.json")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{w} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"], result["wall_s"] = seed, wall
            result["provenance"] = next(
                (json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance ")), None)
            runs[w].append(result)
            print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}"
                  f"/{result['attempted']} wall {wall:.1f} s", flush=True)

    summary = {}
    steady = True
    for w, results in runs.items():
        summary[w] = {}
        print(f"\n{w} ({len(results)} runs)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            med, q1, q3 = spread(values)
            share = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and share >= bound / 3:
                flag, steady = "  <-- spread >= bound/3", False
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                                "unit": results[0]["metrics"][name]["unit"]}
            print(f"  {name:32s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {share:6.3f}  bound {bound}{flag}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    print(f"\n{'steady' if steady else 'NOT steady'}; results -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
