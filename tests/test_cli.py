"""Command-line interface: exit codes, artifacts, determinism."""

import csv
import json

import numpy as np
import pytest

from pagerec import (
    Dataset,
    DegradeSpec,
    MatrixVariant,
    RecoveryConfig,
    benchmark_corpus,
    degrade,
    impute_offline,
    ingest_csv,
    write_csv,
)
from pagerec.cli import run
from pagerec.harness import PREDICT_CFG


@pytest.fixture
def sample_csv(tmp_path):
    corpus = benchmark_corpus(n_channels=3, n_samples=120, seed=5)
    degraded = degrade(corpus.dataset, DegradeSpec(drop_rate=0.2, seed=1))
    path = tmp_path / "input.csv"
    write_csv(degraded, path)
    return path


def test_impute_default_output_derived_from_input(sample_csv):
    code = run(["impute", "--input", str(sample_csv), "--L", "10", "--T", "120"])
    assert code == 0
    derived = sample_csv.parent / (sample_csv.name + ".recovered.csv")
    assert derived.exists()


def test_impute_happy_path(tmp_path, sample_csv, capsys):
    out = tmp_path / "recovered.csv"
    code = run(["impute", "--input", str(sample_csv), "--output", str(out),
                "--L", "10", "--T", "120"])
    assert code == 0
    assert out.exists()
    report = json.loads((tmp_path / "recovered.csv.report.json").read_text())
    assert report["kept_rank"]
    assert "median_window_seconds" in json.loads(
        (tmp_path / "recovered.csv.timing.json").read_text()
    )
    recovered = ingest_csv(out)
    assert recovered.masks_matrix().all()


def test_impute_divisibility_usage_error(tmp_path, sample_csv, capsys):
    out = tmp_path / "x.csv"
    code = run(["impute", "--input", str(sample_csv), "--output", str(out),
                "--L", "7", "--T", "600"])
    assert code == 2
    assert "divisible" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_flag_is_usage_error(capsys):
    assert run(["impute", "--L", "10"]) == 2


def test_unreadable_input_is_data_error(tmp_path, capsys):
    code = run(["impute", "--input", str(tmp_path / "absent.csv"),
                "--output", str(tmp_path / "o.csv"), "--T", "120"])
    assert code == 1


def test_repeated_column_names_file_and_column(tmp_path, capsys):
    src = tmp_path / "dup.csv"
    src.write_text("t,v,v\n0,1,2\n1,3,4\n")
    code = run(["impute", "--input", str(src), "--output", str(tmp_path / "o.csv"),
                "--L", "10", "--T", "120"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {src}:1: column 'v' appears more than once\n"


def test_bad_channel_selection_is_usage_error(tmp_path, sample_csv, capsys):
    # a name the input lacks, or a list that names no channel at all
    out = tmp_path / "o.csv"
    for channels in ("ch00,ghost", "", ",", " , "):
        code = run(["impute", "--input", str(sample_csv),
                    "--output", str(out), "--T", "120",
                    "--channels", channels])
        assert code == 2, channels
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()


def test_repeated_channel_selection_is_usage_error(tmp_path, sample_csv, capsys):
    out = tmp_path / "o.csv"
    code = run(["impute", "--input", str(sample_csv), "--output", str(out), "--T", "120",
                "--channels", "ch00,ch01,ch00"])
    assert code == 2
    assert capsys.readouterr().err == (
        "usage error: channels named more than once in --channels: ['ch00']\n"
    )
    assert not out.exists()


def test_outputs_keep_the_input_timestamp_column_name(tmp_path, sample_csv):
    # a channel named "t" beside a time column named "time": the outputs must
    # not name their own time column "t" and so repeat a column
    source = ingest_csv(sample_csv)
    data = Dataset.from_arrays(
        source.timestamps, source.values_matrix()[:2], source.masks_matrix()[:2],
        ["t", "v"], source.kinds[:2], source.rate_fps,
    )
    src = tmp_path / "named.csv"
    write_csv(data, src, timestamp_column="time")
    recovered, again, preds = (tmp_path / n for n in ("rec.csv", "again.csv", "pred.csv"))
    assert run(["impute", "--input", str(src), "--output", str(recovered),
                "--L", "10", "--T", "60"]) == 0
    assert run(["impute", "--input", str(recovered), "--output", str(again),
                "--L", "10", "--T", "60"]) == 0
    assert run(["predict", "--input", str(src), "--output", str(preds),
                "--L", "5", "--T", "30"]) == 0
    for path, timestamps in ((recovered, data.timestamps), (again, data.timestamps),
                             (preds, data.timestamps[30:])):
        assert path.read_text().splitlines()[0] == "time,t,v"
        back = ingest_csv(path)
        assert back.ids == ("t", "v")
        assert np.array_equal(back.timestamps, timestamps)


def test_impute_predict_rank_deterministic_across_runs(tmp_path, sample_csv):
    # primary artifacts are byte-identical run to run; only .timing.json
    # holds wall times
    runs = [
        ("impute", ".csv", ["--L", "10", "--T", "50"]),
        ("impute", ".csv", ["--L", "10", "--T", "50", "--variant", "hankel",
                            "--overwrite-observed", "false"]),
        ("predict", ".csv", ["--L", "5", "--T", "30"]),
        ("rank", ".csv", ["--L", "10", "--T", "50"]),
    ]
    for k, (command, suffix, flags) in enumerate(runs):
        artifacts = []
        for name in ("a", "b"):
            out = tmp_path / f"{command}{k}{name}{suffix}"
            assert run([command, "--input", str(sample_csv), "--output", str(out),
                        *flags]) == 0
            paths = [out]
            if command != "rank":
                paths.append(tmp_path / (out.name + ".report.json"))
                report = json.loads(paths[-1].read_text())
                assert set(report) == {"config", "kept_rank"}
            artifacts.append([p.read_bytes() for p in paths])
        assert artifacts[0] == artifacts[1], command


@pytest.mark.parametrize("variant", ["page", "hankel"])
def test_rank_lists_the_kept_ranks_of_impute_windows(tmp_path, sample_csv, variant):
    # 120 samples with T=50: windows at 0 and 50, and one over the last 50
    # samples, starting at 70
    out = tmp_path / "ranks.csv"
    assert run(["rank", "--input", str(sample_csv), "--output", str(out),
                "--L", "10", "--T", "50", "--variant", variant]) == 0
    cfg = RecoveryConfig(L=10, T=50, variant=MatrixVariant(variant))
    _, report = impute_offline(ingest_csv(sample_csv), cfg)
    assert len(report.kept_rank) == 3
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["window", "start_sample", "rank"]
    starts = [0, 50, 70]
    assert rows[1:] == [[str(i), str(s), str(r)]
                        for i, (s, r) in enumerate(zip(starts, report.kept_rank))]


def test_impute_leaves_no_empty_cell_after_the_last_full_window(tmp_path):
    # 245 samples with T=120: two full windows and a 5-sample remainder
    corpus = benchmark_corpus(n_channels=3, n_samples=245, seed=1)
    degraded = degrade(corpus.dataset, DegradeSpec(drop_rate=0.2, seed=1))
    assert not degraded.masks_matrix()[:, -5:].all()
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    write_csv(degraded, src)
    assert run(["impute", "--input", str(src), "--output", str(out), "--T", "120"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 245
    assert all(cell.strip() for row in rows for cell in row)


def test_input_file_never_mutated(tmp_path, sample_csv):
    before = sample_csv.read_bytes()
    run(["impute", "--input", str(sample_csv),
         "--output", str(tmp_path / "o.csv"), "--T", "120"])
    assert sample_csv.read_bytes() == before


def test_predict_writes_steps(tmp_path, sample_csv):
    out = tmp_path / "preds.csv"
    code = run(["predict", "--input", str(sample_csv), "--output", str(out),
                "--L", "5", "--T", "30"])
    assert code == 0
    preds = ingest_csv(out)
    assert len(preds) == 120 - 30
    timing = json.loads((tmp_path / "preds.csv.timing.json").read_text())
    assert timing["steps"] == 90


def test_predict_defaults_to_the_benchmark_streaming_window(tmp_path, sample_csv):
    out = tmp_path / "preds.csv"
    assert run(["predict", "--input", str(sample_csv), "--output", str(out)]) == 0
    config = json.loads((tmp_path / "preds.csv.report.json").read_text())["config"]
    assert (config["L"], config["T"]) == (PREDICT_CFG.L, PREDICT_CFG.T)


def test_predict_channel_subset(tmp_path, sample_csv):
    out = tmp_path / "preds.csv"
    code = run(["predict", "--input", str(sample_csv), "--output", str(out),
                "--channels", "ch00,ch01"])
    assert code == 0
    assert ingest_csv(out).ids == ("ch00", "ch01")


def test_rank_profile_csv(tmp_path, sample_csv):
    out = tmp_path / "ranks.csv"
    code = run(["rank", "--input", str(sample_csv), "--output", str(out),
                "--L", "10", "--T", "60"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "window,start_sample,rank"
    assert len(lines) == 3  # two windows
    ranks = [int(line.split(",")[2]) for line in lines[1:]]
    assert all(r >= 1 for r in ranks)


@pytest.mark.parametrize("command, flags", [
    ("impute", ["--L", "10", "--T", "120"]),
    ("predict", ["--L", "5", "--T", "30"]),
    ("rank", ["--L", "10", "--T", "60"]),
])
def test_single_variant_commands_take_one_variant(tmp_path, sample_csv, capsys, command, flags):
    # only bench takes a list of variants
    args = [command, "--input", str(sample_csv), *flags]
    out = tmp_path / "o.csv"
    for bad in ("page,hankel", ""):
        assert run([*args, "--output", str(out), "--variant", bad]) == 2
        assert f"argument --variant: variant must be page or hankel, got {bad!r}" in (
            capsys.readouterr().err
        )
        assert not out.exists()
    assert run([*args, "--output", str(out), "--variant", "HANKEL"]) == 0
    assert out.exists()


def test_bench_deterministic_across_runs(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        code = run(["bench", "--output", str(out), "--drop", "0.1,0.3",
                    "--reps", "2", "--seed", "7", "--T", "240", "--L", "10"])
        assert code == 0
        outs.append((out.read_bytes(), (tmp_path / f"{name}.json.csv").read_bytes()))
    assert outs[0] == outs[1]
    payload = json.loads(outs[0][0])
    assert len(payload["results"]) == 2
    for entry in payload["results"]:
        assert entry["error"] is None
        assert entry["impute_mape"]
        assert entry["predict_mape"]


def test_bench_variant_grid(tmp_path):
    out = tmp_path / "grid.json"
    code = run(["bench", "--output", str(out), "--drop", "0.2",
                "--variant", "page,hankel", "--reps", "1", "--seed", "3",
                "--T", "240", "--L", "10"])
    assert code == 0
    payload = json.loads(out.read_text())
    variants = {e["scenario"]["variant"] for e in payload["results"]}
    assert variants == {"page", "hankel"}


@pytest.mark.parametrize("flags, message", [
    (["--reps", "0"], "repetitions must be at least 1, got 0"),
    (["--reps", "-3"], "repetitions must be at least 1, got -3"),
    (["--drop", ""], "the scenario grid is empty"),
    (["--variant", ""], "the scenario grid is empty"),
    (["--drop", "0.1,1.5"], "drop_rate must lie in [0, 1], got 1.5"),
    (["--noise", "-0.2"], "noise_rate must be non-negative, got -0.2"),
    (["--seed", "-1"], "seed must be non-negative, got -1"),
])
def test_bench_bad_reps_or_grid_is_usage_error(tmp_path, capsys, flags, message):
    out = tmp_path / "r.json"
    code = run(["bench", "--output", str(out), "--reps", "1", "--T", "240", "--L", "10",
                *flags])
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists() and not (tmp_path / "r.json.csv").exists()


def test_bench_rejects_channels(tmp_path, capsys):
    # bench benchmarks its own synthetic corpus, so it has no channels to pick
    out = tmp_path / "r.json"
    code = run(["bench", "--output", str(out), "--reps", "1", "--drop", "0.1",
                "--channels", "ghost"])
    assert code == 2
    assert "unrecognized arguments: --channels ghost" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "r.json.csv").exists()
