"""Data model, CSV ingestion, gap filling, unwrapping and angle referencing."""

import re

import numpy as np
import pytest

from pagerec import (
    AllMissingChannel,
    ChannelKind,
    ChannelSeries,
    ConfigError,
    CsvSchema,
    Dataset,
    FormatError,
    ShapeError,
    ingest_csv,
    locf_baseline,
    locf_fill,
    scale_dataset,
    unwrap_degrees,
    write_csv,
)
from pagerec.core import _uniform_steps


def make_series(values, mask=None, cid="c0"):
    values = np.asarray(values, dtype=float)
    mask = np.ones(len(values), bool) if mask is None else np.asarray(mask, bool)
    return ChannelSeries(
        cid, ChannelKind.GENERIC, np.arange(len(values), dtype=float), values, mask
    )


def brute_force_unwrap(values):
    """Independent oracle: adjust each successive difference into (-180, 180]
    by whole turns, then accumulate."""
    out = [values[0]]
    for i in range(1, len(values)):
        d = values[i] - values[i - 1]
        while d > 180.0:
            d -= 360.0
        while d <= -180.0:
            d += 360.0
        out.append(out[-1] + d)
    return np.array(out)


# ---------------------------------------------------------------------------
# ChannelSeries / Dataset validation
# ---------------------------------------------------------------------------

def test_series_length_mismatch_rejected():
    with pytest.raises(ShapeError, match="channel 'x'"):
        Dataset((ChannelSeries("x", ChannelKind.GENERIC, np.arange(3.0), np.zeros(2),
                               np.ones(3, bool)),))
    # a ShapeError that names the channel, not numpy's error on ragged rows
    with pytest.raises(ShapeError, match="channel 'b'"):
        Dataset((make_series([1.0, 2.0, 3.0], cid="a"), make_series([1.0, 2.0], cid="b")))


def test_series_nonuniform_timestamps_rejected():
    with pytest.raises(ShapeError):
        Dataset((ChannelSeries("x", ChannelKind.GENERIC, np.array([0.0, 1.0, 3.0]),
                               np.zeros(3), np.ones(3, bool)),))


@pytest.mark.parametrize(
    "t",
    [[0.0, np.inf], [-np.inf, 0.0], [0.0, np.nan], [0.0, 1.0, np.inf], [np.nan, 0.0, 1.0]],
)
def test_series_nonfinite_timestamps_rejected(t):
    # one channel, then two that share the bad time base: the bad time base
    # is named, not a time base the two channels fail to share
    chans = [ChannelSeries(c, ChannelKind.GENERIC, np.array(t), np.zeros(len(t)),
                           np.ones(len(t), bool)) for c in ("x", "y")]
    for n_channels in (1, 2):
        with pytest.raises(ShapeError, match="timestamps must be finite"):
            Dataset(chans[:n_channels])


def step_check_reference(t):
    """The uniform-step test as np.allclose states it."""
    steps = np.diff(t)
    return bool(steps[0] > 0 and np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12))


def test_uniform_steps_matches_allclose_on_finite_timestamps():
    rng = np.random.default_rng(12)
    cases = []
    for _ in range(400):
        n = int(rng.integers(2, 40))
        step = 10.0 ** rng.uniform(-4, 1)
        t = rng.choice([0.0, rng.uniform(-1e3, 1e3), 1.7e9]) + step * np.arange(n)
        jittered = t + step * 10.0 ** rng.uniform(-10, -8) * rng.standard_normal(n)
        stalled = t.copy()
        k = int(rng.integers(1, n))
        stalled[k] = stalled[k - 1]
        cases += [t, jittered, stalled, t[::-1].copy(), t[:2].copy()]
    got = [_uniform_steps(t) for t in cases]
    want = [step_check_reference(t) for t in cases]
    assert got == want
    assert 0 < sum(got[1::5]) < len(got[1::5])  # the jitter straddles the tolerance


def test_records_handed_out_are_views_and_constructor_copies():
    t, values, mask = np.arange(3.0), np.array([1.0, 2.0, 3.0]), np.ones(3, bool)
    ds = Dataset((ChannelSeries("a", ChannelKind.GENERIC, t, values, mask),))
    t[0], values[0], mask[0] = -1.0, 9.0, False
    assert ds.timestamps.tolist() == [0.0, 1.0, 2.0]
    assert ds.values_matrix().tolist() == [[1.0, 2.0, 3.0]]
    assert ds.masks_matrix().all()
    a = ds.channel("a")
    for got, stored in ((a.timestamps, ds.timestamps), (a.values, ds.values_matrix()),
                        (a.mask, ds.masks_matrix())):
        assert not got.flags.writeable
        assert np.shares_memory(got, stored)
    with pytest.raises(ValueError):
        a.values[0] = 9.0


def test_records_compare_by_identity():
    # a record holds arrays, so field-wise equality and hashing are undefined
    ds = Dataset((make_series([1.0, 2.0], cid="a"),))
    a, b = ds.channel("a"), ds.channel("a")
    assert a == a and a != b
    assert len({a, b}) == 2


def test_dataset_requires_shared_timebase():
    a = make_series([1.0, 2.0], cid="a")
    b = ChannelSeries("b", ChannelKind.GENERIC, np.array([0.0, 2.0]), np.zeros(2), np.ones(2, bool))
    with pytest.raises(ShapeError):
        Dataset((a, b))


def test_dataset_duplicate_ids_rejected():
    a = make_series([1.0, 2.0], cid="a")
    with pytest.raises(ShapeError):
        Dataset((a, a))


def test_dataset_rate_derived_from_step():
    t = np.arange(5) / 60.0
    a = ChannelSeries("a", ChannelKind.GENERIC, t, np.zeros(5), np.ones(5, bool))
    assert Dataset((a,)).rate_fps == pytest.approx(60.0)


def assert_same_dataset(a, b):
    assert (a.ids, a.kinds, a.rate_fps) == (b.ids, b.kinds, b.rate_fps)
    for x, y in ((a.timestamps, b.timestamps), (a.values_matrix(), b.values_matrix()),
                 (a.masks_matrix(), b.masks_matrix())):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_dataset_from_channels_equals_array_form():
    rng = np.random.default_rng(31)
    t = 100.0 + np.arange(50) / 30.0
    values = rng.normal(0.0, 5.0, (3, 50))
    masks = rng.random((3, 50)) > 0.3
    values[~masks] = np.nan
    ids = ("c0", "c1", "c2")
    kinds = (ChannelKind.VOLTAGE_ANGLE, ChannelKind.GENERIC, ChannelKind.VOLTAGE_ANGLE)
    chans = tuple(ChannelSeries(*row) for row in zip(ids, kinds, [t] * 3, values, masks))
    for rate in (0.0, 25.0):
        a = Dataset(chans, rate)
        assert_same_dataset(a, Dataset.from_arrays(t, values, masks, ids, kinds, rate))
        assert_same_dataset(a, Dataset(a.channels, rate))
    assert Dataset(chans).rate_fps == pytest.approx(30.0)
    generic = Dataset.from_arrays(t, values, masks, ids)
    assert generic.kinds == (ChannelKind.GENERIC,) * 3
    c1 = generic.channel("c1")
    assert c1.kind is ChannelKind.GENERIC and np.array_equal(c1.mask, masks[1])


def test_dataset_arrays_read_only_and_stored_once():
    values = np.arange(6.0).reshape(2, 3)
    masks = np.ones((2, 3), bool)
    t = np.arange(3.0)
    chans = tuple(ChannelSeries(c, ChannelKind.GENERIC, t, v, m)
                  for c, v, m in zip(("a", "b"), values, masks))
    for ds in (Dataset.from_arrays(t, values, masks, ("a", "b")), Dataset(chans)):
        for a in (ds.values_matrix(), ds.masks_matrix()):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0
        assert not ds.timestamps.flags.writeable
        assert ds.values_matrix() is ds.values_matrix()
        assert ds.masks_matrix() is ds.masks_matrix()
    # the array form keeps copies: the caller's arrays stay writable and apart
    ds = Dataset.from_arrays(t, values, masks, ("a", "b"))
    values[0, 0] = 99.0
    t[0] = -1.0
    assert ds.values_matrix()[0, 0] == 0.0 and ds.timestamps[0] == 0.0


def test_dataset_array_form_validates():
    t, values, masks = np.arange(4.0), np.zeros((2, 4)), np.ones((2, 4), bool)
    with pytest.raises(ShapeError, match="channel id 'a' appears more than once"):
        Dataset.from_arrays(t, values, masks, ("a", "a"))
    with pytest.raises(ShapeError):
        Dataset.from_arrays(t, values[:, :3], masks, ("a", "b"))
    with pytest.raises(ShapeError):
        Dataset.from_arrays(t, values, masks[:1], ("a", "b"))
    with pytest.raises(ShapeError):
        Dataset.from_arrays(t, values, masks, ("a", "b"), (ChannelKind.GENERIC,))
    with pytest.raises(ShapeError, match="timestamps must be finite"):
        Dataset.from_arrays([0.0, 1.0, 3.0, 4.0], values, masks, ("a", "b"))
    with pytest.raises(ShapeError, match="at least one channel"):
        Dataset.from_arrays(t, values[:0], masks[:0], ())
    with pytest.raises(ShapeError, match=r"expected timestamps \(n,\)"):
        Dataset.from_arrays(0.0, values, masks, ("a", "b"))
    ds = Dataset.from_arrays(t, values, masks, ("a", "b"))
    with pytest.raises(ShapeError, match="channel id 'b' appears more than once"):
        ds.select(["b", "a", "b"])
    with pytest.raises(KeyError):
        ds.select(["c"])


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def test_ingest_basic_missing_cell(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("t,v\n0,1.0\n1,\n2,3.0\n")
    ds = ingest_csv(p)
    v = ds.channel("v")
    assert list(v.mask) == [True, False, True]
    assert v.values[0] == 1.0 and v.values[2] == 3.0
    assert np.isnan(v.values[1])
    assert ds.rate_fps == pytest.approx(1.0)


def test_ingest_nan_literal_is_missing(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("t,v\n0,NaN\n1,2.0\n2,nan\n3, nan \n4,NAN\n5,\tnAn\n6,7.0\n")
    ds = ingest_csv(p)
    assert list(ds.channel("v").mask) == [False, True, False, False, False, False, True]


@pytest.mark.parametrize("cell", [" ", "   ", "\t", " \t "])
def test_ingest_whitespace_only_cell_is_missing(tmp_path, cell):
    p = tmp_path / "d.csv"
    p.write_text(f"t,v,w\n0,1.0,{cell}\n1,{cell},2.0\n2,3.0,4.0\n")
    ds = ingest_csv(p)
    assert list(ds.channel("v").mask) == [True, False, True]
    assert list(ds.channel("w").mask) == [False, True, True]
    assert list(ds.channel("v").values[[0, 2]]) == [1.0, 3.0]


def test_ingest_quoted_numeric_cell_is_observed(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text('t,v\n0,"1.5"\n"1",2.5\n2,""\n')
    ds = ingest_csv(p)
    v = ds.channel("v")
    assert list(v.mask) == [True, True, False]
    assert list(v.values[:2]) == [1.5, 2.5]
    assert list(ds.timestamps) == [0.0, 1.0, 2.0]


def test_ingest_crlf_line_endings(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"t,v,w\r\n0,1.5,\r\n1,,2.0\r\n2,3.5,4.0\r\n")
    ds = ingest_csv(p)
    assert list(ds.timestamps) == [0.0, 1.0, 2.0]
    assert list(ds.channel("v").mask) == [True, False, True]
    assert list(ds.channel("w").mask) == [False, True, True]
    assert list(ds.channel("v").values[[0, 2]]) == [1.5, 3.5]
    assert list(ds.channel("w").values[1:]) == [2.0, 4.0]


def ingest_error(p, text):
    p.write_text(text)
    with pytest.raises(FormatError) as info:
        ingest_csv(p)
    return str(info.value)


def long_file(n_rows, bad_line=None, cell="1.5"):
    """Rows 't,v,w' for n_rows data rows with a gap pattern; the data row on
    line bad_line (the header is line 1) gets cell in column v."""
    rows = ["t,v,w"]
    for i in range(n_rows):
        v = "" if i % 7 == 3 else f"{i * 0.25}"
        rows.append(f"{i},{cell if i + 2 == bad_line else v},{i % 5}")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize(
    "text, line, cell",
    [("t,v,w\n0,1,2\n1,x,3\n", 3, "x"),
     ("t,v,w\n0,1,2\n1,1.5.2,3\n2,4,5\n", 3, "1.5.2"),
     (long_file(5000, bad_line=4500, cell="oops"), 4500, "oops")],
)
def test_ingest_bad_value_names_line_and_column(tmp_path, text, line, cell):
    p = tmp_path / "d.csv"
    msg = ingest_error(p, text)
    assert msg == f"{p}:{line}: bad value {cell!r} in column 'v'"


@pytest.mark.parametrize(
    "text, line, cell",
    [("t,v\n0,1\nabc,2\n", 3, "abc"),
     ("t,v\n0,1\n,2\n", 3, ""),
     ("t,v\n0,1\n1, \n\t,3\n", 4, "\t")],
)
def test_ingest_bad_timestamp_names_line(tmp_path, text, line, cell):
    p = tmp_path / "d.csv"
    assert ingest_error(p, text) == f"{p}:{line}: bad timestamp {cell!r}"


def test_ingest_empty_file_rejected(tmp_path):
    p = tmp_path / "d.csv"
    assert ingest_error(p, "") == f"{p}: empty file"


def test_ingest_blank_header_line_rejected(tmp_path):
    p = tmp_path / "d.csv"
    assert ingest_error(p, "\nt,v\n0,1\n1,2\n") == f"{p}:1: empty header"


@pytest.mark.parametrize("header, column",
                         [("t,,v", 2), ("t,v, ", 3), (" ,v,w", 1), ("t,\t,v", 2)])
def test_ingest_empty_header_cell_names_file_and_position(tmp_path, header, column):
    p = tmp_path / "d.csv"
    msg = ingest_error(p, header + "\n0,1,2\n1,2,3\n")
    assert msg == f"{p}:1: column {column} has an empty name"


def test_ingest_timestamp_column_missing_from_header_rejected(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("t,v\n0,1\n1,2\n")
    with pytest.raises(FormatError, match="timestamp column 'time' not in header"):
        ingest_csv(p, CsvSchema(timestamp="time"))


@pytest.mark.parametrize("text", ["t,v\n", "t,v\n0,1\n"])
def test_ingest_header_only_or_single_row_rejected(tmp_path, text):
    p = tmp_path / "d.csv"
    assert "need at least two rows" in ingest_error(p, text)


@pytest.mark.parametrize("header, column", [("t,v,v", "v"), ("t,t,v", "t"), ("v,t,w,v", "v")])
def test_ingest_repeated_column_names_file_and_column(tmp_path, header, column):
    p = tmp_path / "d.csv"
    msg = ingest_error(p, header + "\n0,1,2,3\n1,2,3,4\n")
    assert msg == f"{p}:1: column {column!r} appears more than once"


def test_scanned_block_reads_as_parsed_block(tmp_path):
    """A block numpy's parser rejects (a whitespace-only cell, an underscore
    in a number) is read cell by cell, to the same arrays."""
    plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
    text = long_file(9000)
    plain.write_text(text)
    lines = text.splitlines(keepends=True)
    assert lines[5002] == "5001,,1\n" and lines[6000] == "5999,1499.75,4\n"
    lines[5002] = "5001, ,1\n"  # both in the second block
    lines[6000] = "5999,1_499.75,4\n"
    odd.write_text("".join(lines))
    a, b = ingest_csv(plain), ingest_csv(odd)
    assert a.timestamps.tobytes() == b.timestamps.tobytes()
    assert a.values_matrix().tobytes() == b.values_matrix().tobytes()
    assert np.array_equal(a.masks_matrix(), b.masks_matrix())


def test_ingest_all_missing_channel_rejected(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("t,v,w\n0,,1\n1,,2\n")
    with pytest.raises(AllMissingChannel):
        ingest_csv(p)


def test_ingest_ragged_row_names_line(tmp_path):
    p = tmp_path / "d.csv"
    cases = [
        ("t,v\n0,1.0\n1,2.0,extra\n", 3, 3),
        ("t,v\n0,1.0\n\n2,3.0\n", 3, 0),  # a blank line is a ragged row
        ("t,v\n0,1.0\n1,2.0\n\n", 4, 0),
        ("t,v\n0\n1,2.0\n", 2, 1),
        (long_file(5000).replace("\n4000,", "\n4000,9,"), 4002, 4),
    ]
    for text, line, got in cases:
        msg = ingest_error(p, text)
        assert msg.startswith(f"{p}:{line}: expected ") and msg.endswith(f"fields, got {got}")


def test_ingest_nonuniform_timestamps_rejected(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("t,v\n0,1\n1,2\n3,3\n")
    with pytest.raises(FormatError):
        ingest_csv(p)


@pytest.mark.parametrize("rows", ["0,1\ninf,2\n", "-inf,1\n0,2\n"])
def test_ingest_nonfinite_timestamp_rejected(tmp_path, rows):
    p = tmp_path / "d.csv"
    p.write_text("t,v\n" + rows)
    with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: timestamps are not finite"):
        ingest_csv(p)


def test_ingest_large_file_shape(tmp_path):
    # 54000 rows, 12 channels
    n, c = 54000, 12
    header = "t," + ",".join(f"ch{i}" for i in range(c))
    rows = [header]
    for i in range(n):
        rows.append(f"{i}," + ",".join("1.5" for _ in range(c)))
    p = tmp_path / "big.csv"
    p.write_text("\n".join(rows) + "\n")
    ds = ingest_csv(p)
    assert len(ds.channels) == c
    assert len(ds) == n


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    t = np.arange(40) / 30.0
    chans = []
    for i in range(3):
        mask = rng.random(40) > 0.2
        mask[0] = True
        vals = rng.normal(0, 1, 40)
        vals[~mask] = np.nan
        chans.append(ChannelSeries(f"c{i}", ChannelKind.GENERIC, t, vals, mask))
    ds = Dataset(tuple(chans))
    p = tmp_path / "round.csv"
    write_csv(ds, p)
    back = ingest_csv(p)
    assert back.ids == ds.ids
    assert np.array_equal(back.timestamps, ds.timestamps)
    assert back.rate_fps == pytest.approx(ds.rate_fps)
    for cid in ds.ids:
        a, b = ds.channel(cid), back.channel(cid)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.values[a.mask], b.values[b.mask])


def test_write_csv_timestamp_column_named_like_a_channel(tmp_path):
    ds = Dataset.from_arrays(
        np.arange(3) / 60.0, np.ones((2, 3)), np.ones((2, 3), dtype=bool),
        ["t", "v"], [ChannelKind.GENERIC] * 2, 60.0,
    )
    p = tmp_path / "clash.csv"
    with pytest.raises(ConfigError, match="timestamp column 't' is also the name of a channel"):
        write_csv(ds, p)
    assert not p.exists()
    write_csv(ds, p, timestamp_column="time")
    assert p.read_text().splitlines()[0] == "time,t,v"


def test_ingest_schema_kinds_and_timestamp_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("va,time,f\n10,0,60.0\n11,1,60.1\n")
    schema = CsvSchema(timestamp="time", kinds={"va": ChannelKind.VOLTAGE_ANGLE,
                                                "f": ChannelKind.GENERIC})
    ds = ingest_csv(p, schema)
    assert ds.ids == ("va", "f")
    assert list(ds.timestamps) == [0.0, 1.0]
    assert list(ds.channel("va").values) == [10.0, 11.0]
    assert list(ds.channel("f").values) == [60.0, 60.1]
    assert ds.channel("va").kind is ChannelKind.VOLTAGE_ANGLE
    assert ds.channel("f").kind is ChannelKind.GENERIC


# ---------------------------------------------------------------------------
# LOCF gap filling: locf_fill on arrays, locf_baseline on a dataset
# ---------------------------------------------------------------------------

def filled(s):
    """The one channel of s after locf_baseline, which keeps the mask."""
    return locf_baseline(Dataset((s,))).channel(s.channel_id)


def test_fill_locf_interior_gap():
    s = make_series([1.0, np.nan, np.nan, 4.0], mask=[True, False, False, True])
    assert list(locf_fill(s.values, s.mask)) == [1.0, 1.0, 1.0, 4.0]


def test_fill_leading_gap_backfills():
    s = make_series([np.nan, 2.0, 3.0], mask=[False, True, True])
    assert list(locf_fill(s.values, s.mask)) == [2.0, 2.0, 3.0]


def test_fill_fully_observed_identity():
    s = make_series([5.0, 6.0, 7.0])
    out = filled(s)
    assert np.array_equal(out.values, s.values)
    assert np.array_equal(out.mask, s.mask)


def test_fill_all_missing_raises():
    s = make_series([np.nan, np.nan], mask=[False, False])
    with pytest.raises(AllMissingChannel):
        locf_fill(s.values, s.mask)


def test_fill_never_touches_observed():
    rng = np.random.default_rng(42)
    for case in range(100):
        n = rng.integers(2, 60)
        mask = rng.random(n) > rng.uniform(0.1, 0.9)
        if not mask.any():
            mask[rng.integers(n)] = True
        vals = rng.normal(0, 10, n)
        vals[~mask] = np.nan
        s = make_series(vals, mask=mask)
        out = filled(s)
        assert np.array_equal(out.values[mask], vals[mask])
        assert np.array_equal(out.mask, mask)
        assert np.isfinite(out.values).all()


# ---------------------------------------------------------------------------
# unwrap_degrees
# ---------------------------------------------------------------------------

def test_unwrap_single_crossing():
    assert list(unwrap_degrees([179.0, -179.0])) == [179.0, 181.0]


def test_unwrap_monotone_ramp_unchanged():
    vals = np.linspace(-170.0, 170.0, 20)
    assert np.allclose(unwrap_degrees(vals), vals)


def test_unwrap_double_jump_matches_oracle():
    # oracle (and numpy's reference unwrap) both give [170, 190, 150]
    vals = [170.0, -170.0, 150.0]
    expected = brute_force_unwrap(vals)
    assert np.allclose(expected, [170.0, 190.0, 150.0])
    assert np.allclose(np.unwrap(vals, period=360), expected)
    assert np.allclose(unwrap_degrees(vals), expected)


def test_unwrap_matches_oracle_randomized():
    rng = np.random.default_rng(7)
    for _ in range(100):
        true_angle = np.cumsum(rng.uniform(-179.0, 179.0, 30))
        wrapped = (true_angle + 180.0) % 360.0 - 180.0
        out = unwrap_degrees(wrapped)
        assert np.allclose(out, brute_force_unwrap(wrapped), atol=1e-9)
        # output differs from input by exact multiples of 360
        k = (out - wrapped) / 360.0
        assert np.allclose(k, np.round(k), atol=1e-9)
        d = np.diff(out)
        assert ((d > -180.0 - 1e-9) & (d <= 180.0 + 1e-9)).all()


# ---------------------------------------------------------------------------
# scale_dataset
# ---------------------------------------------------------------------------

def _pmu_dataset():
    t = np.arange(6, dtype=float)
    mag = ChannelSeries("vm", ChannelKind.GENERIC, t,
                        np.full(6, 345.0), np.ones(6, bool))
    ang_ref = ChannelSeries("ref", ChannelKind.VOLTAGE_ANGLE, t,
                            np.array([0.0, 10.0, 20.0, 30.0, 40.0, 50.0]), np.ones(6, bool))
    ang = ChannelSeries("va", ChannelKind.VOLTAGE_ANGLE, t,
                        np.array([5.0, 15.0, 25.0, 35.0, 45.0, 55.0]), np.ones(6, bool))
    freq = ChannelSeries("f", ChannelKind.GENERIC, t,
                         np.array([60.05, 60.0, 59.95, 60.0, 60.05, 60.0]), np.ones(6, bool))
    return Dataset((mag, ang_ref, ang, freq))


def test_scale_reference_channel_become_zero():
    ds = _pmu_dataset()
    scaled, _ = scale_dataset(ds, reference_channel="ref")
    assert np.allclose(scaled.channel("ref").values, 0.0)
    assert np.allclose(scaled.channel("va").values, 5.0)


def test_scale_bad_reference_rejected():
    ds = _pmu_dataset()
    with pytest.raises(ConfigError):
        scale_dataset(ds, reference_channel="f")
    with pytest.raises(ConfigError):
        scale_dataset(ds, reference_channel="nope")


def test_scale_default_reference_fewest_missing():
    t = np.arange(4, dtype=float)
    a = ChannelSeries("a", ChannelKind.VOLTAGE_ANGLE, t,
                      np.array([1.0, np.nan, 3.0, 4.0]),
                      np.array([True, False, True, True]))
    b = ChannelSeries("b", ChannelKind.VOLTAGE_ANGLE, t,
                      np.array([2.0, 3.0, 4.0, 5.0]), np.ones(4, bool))
    filled_a = ChannelSeries("a", a.kind, t, locf_fill(a.values, a.mask), a.mask)
    ds = Dataset((filled_a, b))
    scaled, transform = scale_dataset(ds)
    assert transform.reference_channel == "b"
    assert np.allclose(scaled.channel("b").values, 0.0)


def test_scale_round_trip_within_1e12():
    ds = _pmu_dataset()
    scaled, transform = scale_dataset(ds, reference_channel="ref")
    back = transform.invert(scaled)
    for cid in ds.ids:
        orig = ds.channel(cid).values
        rec = back.channel(cid).values
        denom = np.maximum(np.abs(orig), 1.0)
        assert (np.abs(rec - orig) / denom).max() < 1e-12
    # the non-angle channels pass through both ways untouched
    for cid in ("vm", "f"):
        assert np.array_equal(scaled.channel(cid).values, ds.channel(cid).values)
        assert np.array_equal(back.channel(cid).values, ds.channel(cid).values)
