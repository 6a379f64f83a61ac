"""Data model, CSV ingestion and gap filling."""

import dataclasses
import re

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from pagerec import (
    AllMissingChannel,
    ChannelKind,
    ChannelSeries,
    ConfigError,
    Dataset,
    FormatError,
    ShapeError,
    ingest_csv,
    locf_baseline,
    locf_fill,
    write_csv,
)
from pagerec.core import _CSV_BLOCK_ROWS, _uniform_steps, timestamp_column


def make_series(values, mask=None, cid="c0"):
    values = np.asarray(values, dtype=float)
    mask = np.ones(len(values), bool) if mask is None else np.asarray(mask, bool)
    return ChannelSeries(
        cid, ChannelKind.GENERIC, np.arange(len(values), dtype=float), values, mask
    )


def column(ds, cid):
    """Channel cid's values and mask: its rows of the stored arrays."""
    i = ds.ids.index(cid)
    return ds.values_matrix()[i], ds.masks_matrix()[i]


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
    (a,) = ds.channels
    for got, stored in ((a.timestamps, ds.timestamps), (a.values, ds.values_matrix()),
                        (a.mask, ds.masks_matrix())):
        assert not got.flags.writeable
        assert np.shares_memory(got, stored)
    with pytest.raises(ValueError):
        a.values[0] = 9.0


def test_reassigning_record_fields_leaves_the_dataset_unchanged():
    rec = ChannelSeries("a", ChannelKind.GENERIC, np.arange(3.0), np.array([1.0, 2.0, 3.0]),
                        np.ones(3, bool))
    ds = Dataset((rec,))
    rec.channel_id, rec.kind = "b", ChannelKind.VOLTAGE_ANGLE
    rec.timestamps, rec.values, rec.mask = np.arange(3.0) + 5.0, np.zeros(3), np.zeros(3, bool)
    (handed_out,) = ds.channels
    handed_out.values, handed_out.mask = np.zeros(3), np.zeros(3, bool)
    assert ds.ids == ("a",)
    assert ds.timestamps.tolist() == [0.0, 1.0, 2.0]
    assert ds.values_matrix().tolist() == [[1.0, 2.0, 3.0]]
    assert ds.masks_matrix().all()
    # slotted: a misspelt field is an error, not a new attribute
    with pytest.raises(AttributeError):
        rec.value = np.zeros(3)


def test_records_compare_by_identity():
    # a record holds arrays, so field-wise equality and hashing are undefined
    ds = Dataset((make_series([1.0, 2.0], cid="a"),))
    (a,), (b,) = ds.channels, ds.channels
    assert a == a and a != b
    assert len({a, b}) == 2


def test_dataset_requires_shared_timebase():
    a = make_series([1.0, 2.0], cid="a")
    b = ChannelSeries("b", ChannelKind.GENERIC, np.array([0.0, 2.0]), np.zeros(2), np.ones(2, bool))
    with pytest.raises(ShapeError, match="channel 'b' does not share"):
        Dataset((a, b))
    # the first channel that differs is named
    d = ChannelSeries("d", ChannelKind.GENERIC, np.array([0.0, 3.0]), np.zeros(2), np.ones(2, bool))
    with pytest.raises(ShapeError, match="channel 'b' does not share"):
        Dataset((a, make_series([3.0, 4.0], cid="c"), b, d))


def test_dataset_duplicate_ids_rejected():
    a = make_series([1.0, 2.0], cid="a")
    with pytest.raises(ShapeError):
        Dataset((a, a))


def test_dataset_rate_derived_from_step():
    t = np.arange(5) / 60.0
    a = ChannelSeries("a", ChannelKind.GENERIC, t, np.zeros(5), np.ones(5, bool))
    ds = Dataset((a,))
    assert ds.rate_fps == pytest.approx(60.0)
    with pytest.raises(AttributeError):
        ds.rate_fps = 30.0
    # one sample has no step
    assert Dataset.from_arrays([0.0], [[1.0]], [[True]], ["a"]).rate_fps == 1.0


def assert_same_dataset(a, b):
    assert (a.ids, a.rate_fps) == (b.ids, b.rate_fps)
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
    # the records' kinds and the constructor's rate are dropped: the rate
    # is the time base's
    for rate in (0.0, 25.0):
        a = Dataset(chans, rate)
        assert_same_dataset(a, Dataset.from_arrays(t, values, masks, ids))
        assert_same_dataset(a, Dataset(a.channels, rate))
        assert a.rate_fps == pytest.approx(30.0)
    c1 = Dataset.from_arrays(t, values, masks, ids).channels[1]
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
    # the time base, ids, values and masks are all a dataset stores
    assert [f.name for f in dataclasses.fields(Dataset)] == [
        "timestamps", "ids", "_values", "_masks"]
    assert set(vars(ds)) == {"timestamps", "ids", "_values", "_masks"}
    # the array form keeps copies: the caller's arrays stay writable and apart
    ds = Dataset.from_arrays(t, values, masks, ("a", "b"))
    values[0, 0] = 99.0
    t[0] = -1.0
    assert ds.values_matrix()[0, 0] == 0.0 and ds.timestamps[0] == 0.0


def test_adopting_constructor_stores_the_given_values_and_masks():
    # the engine's own constructor keeps the values and masks it is handed,
    # read-only from then on, copies the time base as from_arrays does, and
    # validates alike
    t = np.arange(3.0)
    values = np.arange(6.0).reshape(2, 3)
    masks = np.ones((2, 3), bool)
    ds = Dataset._adopt(t, values, masks, ("a", "b"))
    assert ds.values_matrix() is values and ds.masks_matrix() is masks
    assert not values.flags.writeable and not masks.flags.writeable
    assert t.flags.writeable and not np.shares_memory(ds.timestamps, t)
    with pytest.raises(ShapeError):
        Dataset._adopt(t, np.zeros((2, 2)), np.ones((2, 2), bool), ("a", "b"))


def test_dataset_array_form_validates():
    t, values, masks = np.arange(4.0), np.zeros((2, 4)), np.ones((2, 4), bool)
    with pytest.raises(ShapeError, match="channel id 'a' appears more than once"):
        Dataset.from_arrays(t, values, masks, ("a", "a"))
    with pytest.raises(ShapeError):
        Dataset.from_arrays(t, values[:, :3], masks, ("a", "b"))
    with pytest.raises(ShapeError):
        Dataset.from_arrays(t, values, masks[:1], ("a", "b"))
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
    values, mask = column(ds, "v")
    assert list(mask) == [True, False, True]
    assert values[0] == 1.0 and values[2] == 3.0
    assert np.isnan(values[1])
    assert ds.rate_fps == pytest.approx(1.0)


def test_ingest_nan_literal_is_missing(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("t,v\n0,NaN\n1,2.0\n2,nan\n3, nan \n4,NAN\n5,\tnAn\n6,7.0\n")
    ds = ingest_csv(p)
    assert list(column(ds, "v")[1]) == [False, True, False, False, False, False, True]


@pytest.mark.parametrize("cell", [" ", "   ", "\t", " \t "])
def test_ingest_whitespace_only_cell_is_missing(tmp_path, cell):
    p = tmp_path / "d.csv"
    p.write_text(f"t,v,w\n0,1.0,{cell}\n1,{cell},2.0\n2,3.0,4.0\n")
    ds = ingest_csv(p)
    assert list(column(ds, "v")[1]) == [True, False, True]
    assert list(column(ds, "w")[1]) == [False, True, True]
    assert list(column(ds, "v")[0][[0, 2]]) == [1.0, 3.0]


def test_ingest_quoted_numeric_cell_is_observed(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text('t,v\n0,"1.5"\n"1",2.5\n2,""\n')
    ds = ingest_csv(p)
    values, mask = column(ds, "v")
    assert list(mask) == [True, True, False]
    assert list(values[:2]) == [1.5, 2.5]
    assert list(ds.timestamps) == [0.0, 1.0, 2.0]


def test_ingest_crlf_line_endings(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"t,v,w\r\n0,1.5,\r\n1,,2.0\r\n2,3.5,4.0\r\n")
    ds = ingest_csv(p)
    assert list(ds.timestamps) == [0.0, 1.0, 2.0]
    assert list(column(ds, "v")[1]) == [True, False, True]
    assert list(column(ds, "w")[1]) == [False, True, True]
    assert list(column(ds, "v")[0][[0, 2]]) == [1.5, 3.5]
    assert list(column(ds, "w")[0][1:]) == [2.0, 4.0]


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
     ("t,v\n0,1\n1, \n\t,3\n", 4, "\t"),
     # an empty timestamp on a block's first line, with each line ending,
     # and on the first line of the second block
     ("t,v\n,1\n1,2\n", 2, ""),
     ("t,v\r\n,1\r\n1,2\r\n", 2, ""),
     ("t,v\r,1\r1,2\r", 2, ""),
     ("t,v\n" + "".join(f"{i},{i % 3}\n" for i in range(_CSV_BLOCK_ROWS)) + ",5\n1e9,6\n",
      _CSV_BLOCK_ROWS + 2, "")],
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


@pytest.mark.parametrize("text", ["t,v\n", "t,v\n0,1\n"])
def test_ingest_header_only_or_single_row_rejected(tmp_path, text):
    p = tmp_path / "d.csv"
    assert "need at least two rows" in ingest_error(p, text)


def test_ingest_header_without_a_channel_column_rejected(tmp_path):
    p = tmp_path / "d.csv"
    assert ingest_error(p, "t\n0\n1\n") == f"{p}: no channel columns besides the timestamp"


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


def test_ingest_nonfinite_cell_is_missing(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("t,v\n0,inf\n1,2.0\n2,-inf\n3, INF \n4,-Infinity\n5,6.0\n")
    values, mask = column(ingest_csv(p), "v")
    assert list(mask) == [False, True, False, False, False, True]
    assert list(values[mask]) == [2.0, 6.0]
    # a column of infinite cells has no observed sample
    p.write_text("t,v,w\n0,inf,1\n1,-inf,2\n")
    with pytest.raises(AllMissingChannel, match="column 'v' has no observed sample"):
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
    assert len(ds.ids) == c
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
        (a, a_mask), (b, b_mask) = column(ds, cid), column(back, cid)
        assert np.array_equal(a_mask, b_mask)
        assert np.array_equal(a[a_mask], b[b_mask])


def test_write_csv_timestamp_column_named_like_a_channel(tmp_path):
    ds = Dataset.from_arrays(
        np.arange(3) / 60.0, np.ones((2, 3)), np.ones((2, 3), dtype=bool), ["t", "v"],
    )
    p = tmp_path / "clash.csv"
    with pytest.raises(ConfigError, match="timestamp column 't' is also the name of a channel"):
        write_csv(ds, p)
    assert not p.exists()
    write_csv(ds, p, timestamp_column="time")
    assert p.read_text().splitlines()[0] == "time,t,v"


def test_ingest_schema_and_timestamp_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,va,f\n0,10,60.0\n1,11,60.1\n")
    ds = ingest_csv(p)
    assert ds.ids == ("va", "f")
    assert list(ds.timestamps) == [0.0, 1.0]
    assert ds.values_matrix().tolist() == [[10.0, 11.0], [60.0, 60.1]]


@pytest.mark.parametrize("in_header", [True, False], ids=["header", "row"])
def test_ingest_byte_not_utf8_names_file(tmp_path, in_header):
    # a Latin-1 micro sign (0xb5) in a header cell or in a data cell
    p = tmp_path / "d.csv"
    p.write_bytes(b"t,v\xb5\n0,1\n1,2\n" if in_header else b"t,v\n0,1\n1,2\xb5\n")
    match = f"^{re.escape(str(p))}: not UTF-8 text \\(byte b5: "
    with pytest.raises(FormatError, match=match):
        ingest_csv(p)
    if in_header:
        with pytest.raises(FormatError, match=match):
            timestamp_column(p)


def test_ingest_drops_a_byte_order_mark(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes("\ufefft,v\n0,1\n1,2\n".encode("utf-8"))
    assert timestamp_column(p) == "t"
    ds = ingest_csv(p)
    assert ds.ids == ("v",) and list(ds.timestamps) == [0.0, 1.0]


def test_csv_non_ascii_ids_round_trip_byte_exactly(tmp_path):
    ds = Dataset.from_arrays(np.arange(3) / 60.0, [[1.0, 2.0, 3.0], [0.5, 0.25, 0.0]],
                             np.ones((2, 3), dtype=bool), ["\u0398a", "\u00b5V"])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(ds, a, timestamp_column="\u03c4")
    assert a.read_bytes().split(b"\r\n")[0] == "\u03c4,\u0398a,\u00b5V".encode("utf-8")
    back = ingest_csv(a)
    assert back.ids == ds.ids and timestamp_column(a) == "\u03c4"
    write_csv(back, b, timestamp_column=timestamp_column(a))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# LOCF gap filling: locf_fill on arrays, locf_baseline on a dataset
# ---------------------------------------------------------------------------

def filled(s):
    """The values and mask of s's one channel after locf_baseline, which
    keeps the mask."""
    return column(locf_baseline(Dataset((s,))), s.channel_id)


def test_fill_locf_interior_gap():
    s = make_series([1.0, np.nan, np.nan, 4.0], mask=[True, False, False, True])
    assert list(locf_fill(s.values, s.mask)) == [1.0, 1.0, 1.0, 4.0]


def test_fill_leading_gap_backfills():
    s = make_series([np.nan, 2.0, 3.0], mask=[False, True, True])
    assert list(locf_fill(s.values, s.mask)) == [2.0, 2.0, 3.0]


def test_fill_fully_observed_identity():
    s = make_series([5.0, 6.0, 7.0])
    values, mask = filled(s)
    assert np.array_equal(values, s.values)
    assert np.array_equal(mask, s.mask)


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
        out, out_mask = filled(s)
        assert np.array_equal(out[mask], vals[mask])
        assert np.array_equal(out_mask, mask)
        assert np.isfinite(out).all()


def locf_reference(values, mask):
    """locf_fill through np.take_along_axis on the stack as it is given."""
    first = mask.argmax(axis=-1)[..., None]
    idx = np.where(mask, np.arange(values.shape[-1]), first)
    return np.take_along_axis(values, np.maximum.accumulate(idx, axis=-1), axis=-1)


def random_locf_case(rng, case):
    """A seeded (values, mask) pair for locf_fill: 1-D, 2-D, a stack of one
    window, a contiguous stack, or a non-contiguous chunk of a record's
    sliding windows, the layout the window engine passes. Masks leave at
    least one observation per row, and every fourth case exactly one."""
    kind = case % 5
    N, W = int(rng.integers(1, 7)), int(rng.integers(1, 40))
    if kind == 4:
        n = W + int(rng.integers(1, 60))
        record = rng.normal(0.0, 10.0, (N, n))
        rmask = rng.random((N, n)) < rng.uniform(0.05, 1.0)
        windows = (sliding_window_view(a, W, axis=1).transpose(1, 0, 2) for a in (record, rmask))
        b0, step = int(rng.integers(0, n - W)), int(rng.integers(1, 4))
        at = slice(b0, None, step)
        values, mask = (w[at] for w in windows)
        # a window without an observation gets one, in the record
        for b, i in np.argwhere(~mask.any(axis=-1)):
            rmask[i, b0 + b * step + int(rng.integers(0, W))] = True
        return values, mask
    shape = {0: (W,), 1: (N, W), 2: (1, N, W), 3: (int(rng.integers(2, 9)), N, W)}[kind]
    values = rng.normal(0.0, 10.0, shape)
    rows = values.reshape(-1, W)
    if case % 4 == 0:
        mask = np.zeros(rows.shape, bool)
    else:
        mask = rng.random(rows.shape) < rng.uniform(0.05, 1.0)
    mask[np.arange(len(rows)), rng.integers(0, W, len(rows))] = True
    mask = mask.reshape(shape)
    values[~mask] = np.nan
    return values, mask


def test_locf_fill_equals_the_take_along_axis_gather_bitwise():
    rng = np.random.default_rng(16)
    kinds = set()
    for case in range(600):
        values, mask = random_locf_case(rng, case)
        out = locf_fill(values, mask)
        assert out.shape == values.shape
        assert out.tobytes() == locf_reference(values, mask).tobytes(), case
        assert np.isfinite(out).all()
        kinds.add((values.ndim, values.flags.c_contiguous))
        first = mask.argmax(axis=-1)
        if (first > 0).any():
            kinds.add("leading gap")
        if (mask.sum(axis=-1) == 1).all():
            kinds.add("one observation per row")
    assert kinds >= {(1, True), (2, True), (3, True), (3, False),
                     "leading gap", "one observation per row"}


def test_locf_fill_on_a_stack_raises_for_a_row_without_observation():
    values = np.ones((3, 2, 5))
    mask = np.ones(values.shape, bool)
    mask[1, 1] = False
    with pytest.raises(AllMissingChannel):
        locf_fill(values, mask)
    with pytest.raises(AllMissingChannel):
        locf_fill(np.empty((2, 0)), np.empty((2, 0), bool))
