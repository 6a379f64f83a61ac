"""Command-line interface: exit codes, artifacts, determinism."""

import json

import pytest

from pagerec import benchmark_corpus, degrade, DegradeSpec, ingest_csv, write_csv
from pagerec.cli import run


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
    code = run(["impute", "--input", str(sample_csv),
                "--output", str(tmp_path / "o.csv"), "--T", "120",
                "--channels", "ch00,ghost"])
    assert code == 2


def test_repeated_channel_selection_is_usage_error(tmp_path, sample_csv, capsys):
    out = tmp_path / "o.csv"
    code = run(["impute", "--input", str(sample_csv), "--output", str(out), "--T", "120",
                "--channels", "ch00,ch01,ch00"])
    assert code == 2
    assert capsys.readouterr().err == (
        "usage error: channels named more than once in --channels: ['ch00']\n"
    )
    assert not out.exists()


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
])
def test_bench_bad_reps_or_grid_is_usage_error(tmp_path, capsys, flags, message):
    out = tmp_path / "r.json"
    code = run(["bench", "--output", str(out), "--reps", "1", "--T", "240", "--L", "10",
                *flags])
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists() and not (tmp_path / "r.json.csv").exists()
