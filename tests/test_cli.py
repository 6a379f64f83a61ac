"""Command-line interface: exit codes, artifacts, determinism."""

import csv
import json
import os
import subprocess
import sys

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


def test_flag_value_that_does_not_parse_is_usage_error(tmp_path, sample_csv, capsys):
    out = tmp_path / "o.csv"
    for args, message in [
        (["impute", "--input", str(sample_csv), "--T", "120", "--overwrite-observed", "maybe"],
         "argument --overwrite-observed: expected true or false, got 'maybe'"),
        (["bench", "--drop", "x"], "argument --drop: expected comma-separated floats, got 'x'"),
    ]:
        assert run([*args, "--output", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


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
        source.timestamps, source.values_matrix()[:2], source.masks_matrix()[:2], ["t", "v"],
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
    ]
    for k, (command, suffix, flags) in enumerate(runs):
        artifacts = []
        for name in ("a", "b"):
            out = tmp_path / f"{command}{k}{name}{suffix}"
            assert run([command, "--input", str(sample_csv), "--output", str(out),
                        *flags]) == 0
            paths = [out, tmp_path / (out.name + ".report.json")]
            report = json.loads(paths[-1].read_text())
            assert set(report) == {"config", "kept_rank", "start_sample"}
            artifacts.append([p.read_bytes() for p in paths])
        assert artifacts[0] == artifacts[1], command


@pytest.mark.parametrize("command, flags, starts", [
    # 120 samples with T=50: windows at 0 and 50, and one over the last 50
    ("impute", ["--L", "10", "--T", "50"], [0, 50, 70]),
    ("impute", ["--L", "10", "--T", "50", "--variant", "hankel"], [0, 50, 70]),
    # step j's window starts at sample j
    ("predict", ["--L", "5", "--T", "30"], list(range(90))),
])
def test_report_lists_each_window_start_beside_its_rank(tmp_path, sample_csv,
                                                        command, flags, starts):
    out = tmp_path / "out.csv"
    assert run([command, "--input", str(sample_csv), "--output", str(out), *flags]) == 0
    report = json.loads((tmp_path / "out.csv.report.json").read_text())
    assert report["start_sample"] == starts
    assert len(report["kept_rank"]) == len(starts)
    assert all(r >= 1 for r in report["kept_rank"])
    if command == "impute":
        # the kept ranks are impute_offline's on the same input and window
        cfg = RecoveryConfig(L=10, T=50, variant=MatrixVariant(report["config"]["variant"]))
        assert report["kept_rank"] == impute_offline(ingest_csv(sample_csv), cfg)[1].kept_rank


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


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_nonfinite_cell_runs_like_an_empty_one(tmp_path, bad):
    # one infinite cell of ch01 in a 3x480 CSV, inside the impute window at
    # 240 and the predict windows from 270 on: both commands write the same
    # bytes as for the same CSV with that cell left empty
    corpus = benchmark_corpus(n_channels=3, n_samples=480, seed=1)
    degraded = degrade(corpus.dataset, DegradeSpec(drop_rate=0.2, seed=1))
    values, masks = degraded.values_matrix().copy(), degraded.masks_matrix().copy()
    at = 299 + int(masks[1, 299:].argmax())
    assert masks[1, at] and at < 300 + 30
    values[1, at] = bad
    written = {}
    for name in ("bad", "empty"):
        src = tmp_path / f"{name}.csv"
        write_csv(degraded.with_values(values, masks), src)
        masks[1, at] = False
        written[name] = []
        for command, flags in (("impute", ["--T", "120"]), ("predict", [])):
            out = tmp_path / f"{name}.{command}.csv"
            assert run([command, "--input", str(src), "--output", str(out), *flags]) == 0
            written[name] += [out.read_bytes(),
                              (tmp_path / (out.name + ".report.json")).read_bytes()]
    assert "inf" in (tmp_path / "bad.csv").read_text()
    assert written["bad"] == written["empty"]


@pytest.mark.parametrize("command", ["impute", "predict"])
@pytest.mark.parametrize("data", [b"t,v\xb5,w\n", b"t,v,w\n0,1,\xb5\n"], ids=["header", "row"])
def test_byte_not_utf8_is_data_error_naming_the_file(tmp_path, capsys, command, data):
    # a Latin-1 micro sign in a header cell or a data cell of a legacy export
    src = tmp_path / "latin1.csv"
    src.write_bytes(data + b"".join(b"%d,1,2\n" % i for i in range(1, 40)))
    code = run([command, "--input", str(src), "--output", str(tmp_path / "o.csv"),
                "--T", "30"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}: not UTF-8 text") and err.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()


def test_utf8_input_runs_under_an_ascii_locale(tmp_path):
    # the CSV is read as UTF-8 and written as UTF-8 whatever the locale's
    # codec, and a spreadsheet's byte-order mark is not part of the
    # timestamp column's name
    corpus = benchmark_corpus(n_channels=2, n_samples=120, seed=5).dataset
    data = Dataset.from_arrays(corpus.timestamps, corpus.values_matrix(),
                               corpus.masks_matrix(), ["\u0398a", "f"])
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    write_csv(data, src)
    src.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from pagerec.cli import main; main()",
         "impute", "--input", str(src), "--output", str(out), "--T", "120"],
        env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert out.read_bytes().split(b"\r\n")[0] == "t,\u0398a,f".encode("utf-8")


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


@pytest.mark.parametrize("command, flags", [
    ("impute", ["--L", "10", "--T", "120"]),
    ("predict", ["--L", "5", "--T", "30"]),
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
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # the JSON report is bench's one artifact
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]
    payload = json.loads(outs[0])
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
    (["--noise", "inf"], "noise_rate must be finite, got inf"),
    # a finite rate whose noise deviation overflows for the corpus' channels
    (["--noise", "1e308"], "noise_rate 1e+308 times the noise scale of channel 'ch00' "
                           "can take its noisy samples past the float range"),
    # and one whose deviation is finite but whose draws can overflow a sample
    (["--noise", "1e307"], "noise_rate 1e+307 times the noise scale of channel 'ch00' "
                           "can take its noisy samples past the float range"),
])
def test_bench_bad_reps_or_grid_is_usage_error(tmp_path, capsys, flags, message):
    out = tmp_path / "r.json"
    code = run(["bench", "--output", str(out), "--reps", "1", "--T", "240", "--L", "10",
                *flags])
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def test_bench_scores_noise_near_the_float_range_with_finite_mapes(tmp_path):
    # 1e306 passes the noise checks above: its noisy samples reach some
    # 1e307, each relative error is finite and their sum is not a float.
    # The report is strict JSON (no Infinity) with a finite MAPE throughout
    out = tmp_path / "r.json"
    assert run(["bench", "--output", str(out), "--reps", "1", "--drop", "0.1",
                "--noise", "1e306"]) == 0

    def refuse(name):
        raise ValueError(f"{name} in the report")

    (entry,) = json.loads(out.read_text(), parse_constant=refuse)["results"]
    assert entry["error"] is None
    for key in ("impute_mape", "baseline_mape", "predict_mape", "persistence_mape"):
        assert len(entry[key]) == 6
        assert all(1e300 < v < float("inf") for v in entry[key].values()), key


def test_bench_names_each_failed_scenario_on_stderr(tmp_path, capsys):
    # T=1500 exceeds the 1200-sample corpus: each scenario's impute fails
    # inside its scenario, the report keeps the error, and stderr names the
    # scenario by its label
    out = tmp_path / "r.json"
    code = run(["bench", "--output", str(out), "--reps", "1", "--drop", "0.1",
                "--noise", "0.02", "--variant", "page,hankel", "--L", "10", "--T", "1500"])
    assert code == 1
    error = "ShapeError: dataset length 1200 is shorter than the window T=1500"
    assert capsys.readouterr().err.splitlines() == [
        f"scenario drop0.1_noise0.02_{variant} failed: {error}" for variant in ("page", "hankel")
    ]
    assert [r["error"] for r in json.loads(out.read_text())["results"]] == [error, error]


def test_bench_checks_the_impute_window_against_the_listed_variants_only(tmp_path, capsys):
    # T=240 is not divisible by L=7, which only the page variant requires
    out = tmp_path / "r.json"
    args = ["bench", "--output", str(out), "--reps", "1", "--drop", "0.1",
            "--L", "7", "--T", "240"]
    assert run([*args, "--variant", "hankel"]) == 0
    results = json.loads(out.read_text())["results"]
    assert [r["scenario"]["variant"] for r in results] == ["hankel"]
    assert results[0]["error"] is None
    out.unlink()
    assert run([*args, "--variant", "page,hankel"]) == 2
    assert capsys.readouterr().err == (
        "usage error: window length T=240 must be divisible by L=7 for the page variant\n"
    )
    assert not out.exists()


def test_rank_is_not_a_command(tmp_path, sample_csv, capsys):
    # impute's report lists each window's start and kept rank
    out = tmp_path / "ranks.csv"
    assert run(["rank", "--input", str(sample_csv), "--output", str(out), "--T", "60"]) == 2
    assert "invalid choice: 'rank'" in capsys.readouterr().err
    assert not out.exists()


def test_bench_rejects_channels(tmp_path, capsys):
    # bench benchmarks its own synthetic corpus, so it has no channels to pick
    out = tmp_path / "r.json"
    code = run(["bench", "--output", str(out), "--reps", "1", "--drop", "0.1",
                "--channels", "ghost"])
    assert code == 2
    assert "unrecognized arguments: --channels ghost" in capsys.readouterr().err
    assert not out.exists()
