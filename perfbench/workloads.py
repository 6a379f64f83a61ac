"""The three benchmark workloads.

Each one is generated in this process from the seed, is driven by a single
caller in a closed loop (the next call starts when the previous returned),
and checks the program's outputs after the timed loop:

- archive_csv: ``pagerec impute`` through ``pagerec.cli.run`` on a
  54000 x 12 archive CSV. The real user path of the offline mode; time goes
  to CSV ingest and write, the one wide 10 x 64800 SVD is a small part.
- live_frames: a 60 fps, 6-channel stream replayed frame by frame; the
  caller builds the trailing window with the public constructors and calls
  ``predict_next``. True single-step latency, bypassing ``predict_stream``.
- scenario_grid: ``pagerec bench`` through ``pagerec.cli.run`` over three
  drop rates and both matrix variants. The evaluation path: stream replay,
  mid-size impute windows, the Hankel matrices no other workload builds,
  and the harness's degradation, MAPE and baselines.

Each untraced call (``record`` false leaves it out, as for a warm-up)
appends the wall times of its steps to ``steps``: one
step per frame on ``live_frames``, where a frame is timed from the moment
its samples are in the caller's buffer until its predictions return, and
the call itself as one step on the two batch workloads, where no frame's
result returns before the call does. ``frames_per_step`` says how many of
the workload's frames (the sample times its caller gets results for) each
step answers. Next to its steps a call times pieces of ``reference``, a
fixed task that runs no pagerec code, into ``refs``; ``step_ratios`` gives
each step's time in multiples of the reference's, which is what the
benchmark reports (see README.md for why).
"""

from __future__ import annotations

import hashlib
import json
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from pagerec import cli, recovery
from pagerec.core import ChannelSeries, Dataset, ingest_csv
from pagerec.harness import DegradeSpec, benchmark_corpus, degrade
from pagerec.recovery import RecoveryConfig

DROP = 0.3
NOISE = 0.02
REF_INTERVAL_S = 0.005  # one reference piece per 5 ms of a batch call

_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((5, 36))
_REF_VALUES = _REF_RNG.standard_normal(30).tolist()


def reference() -> float:
    """The benchmark's unit of time: a fixed task of tens of microseconds in
    the mix of a live frame (Python objects, then a small SVD). It runs no
    pagerec code, so no change to the program moves it; the machine's speed
    does."""
    table = {i: (x, x * x, str(i)) for i, x in enumerate(_REF_VALUES)}
    total = sum(v[1] for v in table.values())
    return total + float(np.linalg.svd(_REF_MATRIX, full_matrices=False)[1][0])


@contextmanager
def reference_sampler():
    """Time a reference piece every REF_INTERVAL_S while the block runs, from
    a SIGALRM handler (it runs between the program's bytecodes), so a 2-4 s
    batch call and its reference pieces meet the same machine. Yields the
    list the piece times are appended to; the timer and the previous handler
    are restored on the way out."""
    pieces: list[float] = []

    def sample(signum, frame):
        t0 = time.perf_counter()
        reference()
        pieces.append(time.perf_counter() - t0)

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
    try:
        yield pieces
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _timed_call(argv, sample: bool) -> tuple[int, float, list[float]]:
    """(exit code, wall time, reference piece times) of one CLI call; a
    sampled call's time leaves the pieces out."""
    if not sample:
        t0 = time.perf_counter()
        code = cli.run(argv)  # looked up per call: a traced run sees its wrapper
        return code, time.perf_counter() - t0, []
    with reference_sampler() as pieces:
        t0 = time.perf_counter()
        code = cli.run(argv)
        elapsed = time.perf_counter() - t0
    return code, elapsed - sum(pieces), pieces


def _batch_ratio(steps, refs) -> np.ndarray:
    """A batch call as one step: each call's time over the median of the
    reference pieces sampled during it, the median over the run's calls."""
    return np.array([np.median([s[0] / np.median(r) for s, r in zip(steps, refs)])])


def _seeds(seed: int) -> tuple[int, int]:
    """Independent corpus and degradation seeds derived from one seed."""
    a, b = np.random.SeedSequence(seed).generate_state(2)
    return int(a), int(b)


def _degraded_corpus(seed: int, n_channels: int, n_samples: int):
    corpus_seed, degrade_seed = _seeds(seed)
    corpus = benchmark_corpus(n_channels=n_channels, n_samples=n_samples, seed=corpus_seed)
    degraded = degrade(
        corpus.dataset,
        DegradeSpec(drop_rate=DROP, noise_rate=NOISE, seed=degrade_seed),
        noise_base=corpus.steady_median,
    )
    return corpus.dataset.values_matrix(), degraded


def _mape(truth: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """Per-channel mean absolute percentage error (the corpus never reads 0)."""
    return np.mean(np.abs((truth - estimate) / truth), axis=1)


def _locf(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Last observation carried forward along each row, leading gaps
    backfilled: the do-nothing competitor, computed here independently."""
    n = masks.shape[1]
    last = np.maximum.accumulate(np.where(masks, np.arange(n), -1), axis=1)
    last = np.where(last < 0, masks.argmax(axis=1)[:, None], last)
    return np.take_along_axis(values, last, axis=1)


def _vs_baseline(truth, estimate, baseline) -> tuple[float, float]:
    """(median over channels of MAPE, median over channels of MAPE over the
    baseline's MAPE). The ratio cancels most of the seed-to-seed change in
    signal scale that moves MAPE itself."""
    ours = _mape(truth, estimate)
    return float(np.median(ours)), float(np.median(ours / _mape(truth, baseline)))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_archive(data: Dataset, path: Path) -> None:
    """The archive CSV as a recorder would leave it: one time column, one
    column per channel, an empty cell for a dropped sample. Written by the
    benchmark so the input does not depend on the writer under test."""
    values = data.values_matrix()
    masks = data.masks_matrix()
    columns = [list(map(repr, data.timestamps.tolist()))]
    for row, mask in zip(values.tolist(), masks.tolist()):
        columns.append([repr(v) if m else "" for v, m in zip(row, mask)])
    with open(path, "w") as fh:
        fh.write(",".join(("t",) + data.ids) + "\n")
        fh.writelines(",".join(cells) + "\n" for cells in zip(*columns))


class ArchiveCsv:
    name = "archive_csv"
    n_channels, n_samples, L, T = 12, 54000, 10, 54000
    frames_per_step = n_samples

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.input = workdir / "archive.csv"
        self.output = workdir / "recovered.csv"
        self.argv = ["impute", "--input", str(self.input), "--output", str(self.output),
                     "--L", str(self.L), "--T", str(self.T)]
        self.attempted = self.failed = 0
        self.steps: list[np.ndarray] = []
        self.refs: list[np.ndarray] = []
        self.digests: list[str] = []

    def setup(self) -> None:
        self.truth, self.degraded = _degraded_corpus(self.seed, self.n_channels, self.n_samples)
        write_archive(self.degraded, self.input)

    def run_once(self, tracer=None, record=True) -> float:
        record = record and tracer is None
        code, elapsed, refs = _timed_call(self.argv, sample=record)
        self.attempted += 1
        if code != 0:
            self.failed += 1
        else:
            self.digests.append(_digest(self.output))
        if record:
            self.steps.append(np.array([elapsed]))
            self.refs.append(refs)
        return elapsed

    def step_ratios(self) -> np.ndarray:
        return _batch_ratio(self.steps, self.refs)

    def finish(self) -> dict:
        """The output must be fully observed, have every row, and equal an
        in-memory impute_offline of the ingested input; every call must have
        written the same bytes."""
        notes = []
        if self.digests:
            first = self.digests[0]
            self.failed += sum(d != first for d in self.digests)
            data = ingest_csv(self.input)
            out = ingest_csv(self.output)
            expect, _ = recovery.impute_offline(data, RecoveryConfig(L=self.L, T=self.T))
            problems = []
            if len(out) != self.n_samples:
                problems.append(f"{len(out)} rows, expected {self.n_samples}")
            if not out.masks_matrix().all():
                problems.append("output has missing cells")
            if out.ids != data.ids or not np.array_equal(out.timestamps, data.timestamps):
                problems.append("output channels or timestamps differ from the input")
            elif not np.array_equal(out.values_matrix(), expect.values_matrix()):
                problems.append("output differs from in-memory impute_offline")
            if problems:
                notes.extend(problems)
                self.failed += sum(d == first for d in self.digests)
            else:
                locf = _locf(self.degraded.values_matrix(), self.degraded.masks_matrix())
                mape, ratio = _vs_baseline(self.truth, out.values_matrix(), locf)
                notes.append(f"impute_mape {mape:.6g}, {ratio:.6g} of the LOCF fill's")
                return {"mape_vs_baseline": ratio, "notes": notes}
        return {"mape_vs_baseline": float("nan"), "notes": notes}


class LiveFrames:
    name = "live_frames"
    n_channels, n_samples = 6, 3600
    cfg = RecoveryConfig(L=5, T=30)
    frames_per_step = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.attempted = self.failed = 0
        self.steps: list[np.ndarray] = []
        self.refs: list[np.ndarray] = []
        self.predictions: list[tuple[np.ndarray, np.ndarray]] = []  # (values, raised)
        self.errors: list[str] = []

    def setup(self) -> None:
        self.truth, self.stream = _degraded_corpus(self.seed, self.n_channels, self.n_samples)
        # the caller's buffer: what has arrived so far, as plain arrays
        self.t = self.stream.timestamps.copy()
        self.values = self.stream.values_matrix()
        self.masks = self.stream.masks_matrix()
        self.meta = [(c.channel_id, c.kind) for c in self.stream.channels]
        self.rate = self.stream.rate_fps

    @property
    def n_frames(self) -> int:
        return self.n_samples - self.cfg.T

    def window(self, j: int) -> Dataset:
        """The trailing window whose last sample is frame j's newest, built
        with the public constructors."""
        s = slice(j, j + self.cfg.T)
        return Dataset(
            tuple(
                ChannelSeries(cid, kind, self.t[s], self.values[i, s], self.masks[i, s])
                for i, (cid, kind) in enumerate(self.meta)
            ),
            self.rate,
        )

    def run_once(self, tracer=None, record=True) -> float:
        build = self.window if tracer is None else tracer.wrap(self.window, "core.dataset_build")
        predict = recovery.predict_next
        cfg, ids = self.cfg, [cid for cid, _ in self.meta]
        preds = np.full((self.n_channels, self.n_frames), np.nan)
        raised = np.zeros(self.n_frames, dtype=bool)
        lat, ref = np.empty(self.n_frames), np.empty(self.n_frames)
        clock = time.perf_counter
        t_loop = time.perf_counter()
        for j in range(self.n_frames):
            t0 = clock()
            try:
                out, _ = predict(build(j), cfg)
            except Exception as exc:  # a frame that raises is a failed operation
                out = exc
            t1 = clock()
            reference()  # right after the frame, so both meet the same machine
            lat[j], ref[j] = t1 - t0, clock() - t1
            if isinstance(out, Exception):
                raised[j] = True
                self.failed += 1
                self.errors.append(f"frame {j}: {type(out).__name__}: {out}")
            else:
                preds[:, j] = [out[c] for c in ids]
        elapsed = time.perf_counter() - t_loop
        self.attempted += self.n_frames
        self.predictions.append((preds, raised))
        if record and tracer is None:
            self.steps.append(lat)
            self.refs.append(ref)
        return elapsed

    def step_ratios(self) -> np.ndarray:
        """Each frame over the reference piece timed right after it, the
        median over the run's loops: the ratio cancels what slows both."""
        return np.median(np.array(self.steps) / np.array(self.refs), axis=0)

    def finish(self) -> dict:
        """Every frame's predictions must equal predict_stream on the same
        stream to 1e-9."""
        reference, _ = recovery.predict_stream(self.stream, self.cfg)
        ref = reference.values_matrix()
        for preds, raised in self.predictions:
            # NaN compares False; raised frames were counted when they raised
            bad = ~(np.abs(preds - ref) <= 1e-9).all(axis=0) & ~raised
            self.failed += int(bad.sum())
        T = self.cfg.T
        persistence = _locf(self.values, self.masks)[:, T - 1:-1]
        mape, ratio = _vs_baseline(self.truth[:, T:], self.predictions[0][0], persistence)
        notes = self.errors[:3] + [f"predict_mape {mape:.6g}, {ratio:.6g} of persistence's"]
        return {"mape_vs_baseline": ratio, "notes": notes}


class ScenarioGrid:
    name = "scenario_grid"
    # the corpus `pagerec bench` builds from its --seed
    n_channels, n_samples = 6, 1200
    drops, variants = (0.1, 0.3, 0.5), ("page", "hankel")
    frames_per_step = n_samples * len(drops) * len(variants)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.output = workdir / "bench.json"
        self.argv = ["bench", "--output", str(self.output),
                     "--drop", ",".join(map(str, self.drops)), "--noise", str(NOISE),
                     "--variant", ",".join(self.variants), "--reps", "1",
                     "--seed", str(seed)]
        self.attempted = self.failed = 0
        self.steps: list[np.ndarray] = []
        self.refs: list[np.ndarray] = []
        self.calls: list[tuple[int, bytes]] = []  # (exit code, report bytes)

    @property
    def n_scenarios(self) -> int:
        return len(self.drops) * len(self.variants)

    def setup(self) -> None:
        self.truth = benchmark_corpus(
            n_channels=self.n_channels, n_samples=self.n_samples, seed=self.seed
        )

    def run_once(self, tracer=None, record=True) -> float:
        record = record and tracer is None
        code, elapsed, refs = _timed_call(self.argv, sample=record)
        self.attempted += self.n_scenarios
        self.calls.append((code, self.output.read_bytes() if self.output.exists() else b""))
        if record:
            self.steps.append(np.array([elapsed]))
            self.refs.append(refs)
        return elapsed

    def step_ratios(self) -> np.ndarray:
        return _batch_ratio(self.steps, self.refs)

    def _locf_baseline_mape(self, entry: dict) -> dict[str, float]:
        """The report's LOCF baseline MAPE, recomputed from the seeds it lists."""
        truth = self.truth.dataset.values_matrix()
        rows = []
        for seed in entry["seeds"]:
            spec = DegradeSpec(
                drop_rate=entry["scenario"]["drop_rate"],
                noise_rate=entry["scenario"]["noise_rate"],
                seed=seed,
            )
            d = degrade(self.truth.dataset, spec, noise_base=self.truth.steady_median)
            rows.append(_mape(truth, _locf(d.values_matrix(), d.masks_matrix())))
        med = np.median(rows, axis=0)
        return dict(zip(self.truth.dataset.ids, med.tolist()))

    def finish(self) -> dict:
        """Reports must be byte-identical across calls, list every scenario
        without error, and carry LOCF baseline figures that match an
        independent recomputation. A call whose report fails is failed for
        all its scenarios, one with a scenario error for that scenario."""
        first = self.calls[0][1]
        try:
            results = json.loads(first)["results"]
        except (json.JSONDecodeError, KeyError, TypeError):
            self.failed = self.attempted
            return {"mape_vs_baseline": float("nan"), "notes": ["unreadable report"]}
        notes = []
        if len(results) != self.n_scenarios:
            notes.append(f"{len(results)} scenarios, expected {self.n_scenarios}")
        ok = [r for r in results if r["error"] is None]
        for entry in ok:
            expect = self._locf_baseline_mape(entry)
            got = entry["baseline_mape"]
            if got.keys() != expect.keys() or any(
                abs(got[k] - expect[k]) > 1e-12 * max(1.0, abs(expect[k])) for k in expect
            ):
                notes.append(f"baseline_mape of {entry['scenario']} does not recompute")
        for code, report in self.calls:
            if notes or code not in (0, 1) or report != first:
                self.failed += self.n_scenarios
            else:
                self.failed += self.n_scenarios - len(ok)
        if not ok:
            return {"mape_vs_baseline": float("nan"), "notes": notes}
        figures = {}
        for task, base in (("impute", "baseline"), ("predict", "persistence")):
            ours = [v for r in ok for v in r[f"{task}_mape"].values()]
            ratios = [r[f"{task}_mape"][c] / r[f"{base}_mape"][c] for r in ok for c in r[f"{task}_mape"]]
            figures[task] = float(np.median(ratios))
            notes.append(f"{task}_mape {np.median(ours):.6g}, {figures[task]:.6g} of {base}'s")
        # one figure that moves by half the relative change of either task
        return {"mape_vs_baseline": float(np.sqrt(figures["impute"] * figures["predict"])),
                "notes": notes}


WORKLOADS = {w.name: w for w in (ArchiveCsv, LiveFrames, ScenarioGrid)}
