"""Block-wise CSV write against the row-by-row writer it replaced, and the
memory that block-wise ingest and write may use.

reference_write is write_csv as it ran before blocking: one csv.writer row
per sample, each value as repr(float). The block-wise writer must produce
the same bytes, and ingest_csv must read them back bit for bit.
"""

import csv
import re
import tracemalloc

import numpy as np
import pytest

from pagerec import ChannelKind, ChannelSeries, Dataset, FormatError, ingest_csv, write_csv
from pagerec.core import _CSV_BLOCK_ROWS


def reference_write(dataset, path, timestamp_column="t"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([timestamp_column, *dataset.ids])
        t = dataset.timestamps
        vals = dataset.values_matrix()
        masks = dataset.masks_matrix()
        for i in range(len(dataset)):
            row = [repr(float(t[i]))]
            for c in range(vals.shape[0]):
                row.append(repr(float(vals[c, i])) if masks[c, i] else "")
            writer.writerow(row)


def make_dataset(values, masks, ids=None, rate=60.0):
    values = np.asarray(values, dtype=float)
    masks = np.asarray(masks, dtype=bool)
    ids = ids or [f"c{i}" for i in range(len(values))]
    t = np.arange(values.shape[1]) / rate
    return Dataset(tuple(
        ChannelSeries(cid, ChannelKind.GENERIC, t, v, m)
        for cid, v, m in zip(ids, values, masks)
    ))


def gappy(rng, n_channels, n_samples, drop=0.3):
    """Random values; a masked sample keeps a finite value, which the writer
    must not print."""
    values = rng.normal(0.0, 50.0, (n_channels, n_samples))
    masks = rng.random((n_channels, n_samples)) > drop
    masks[:, 0] = True
    return values, masks


def masked_rows():
    values, masks = gappy(np.random.default_rng(1), 3, 60)
    masks[:, 10:20] = False
    masks[:, -1] = False
    return make_dataset(values, masks, ids=["a,b", 'q"uote', "plain"])


def one_observed_sample():
    values, masks = gappy(np.random.default_rng(2), 2, 40)
    masks[1] = False
    masks[1, 23] = True
    return make_dataset(values, masks)


def extreme_values():
    tiny = np.nextafter(0.0, 1.0)
    v = [-0.0, 0.0, tiny, -tiny, 2.2250738585072014e-308 / 3, 1e300, -1e300,
         -1.5, -123456.789, 1e16, 1.5e-7, np.inf, -np.inf, 0.1 + 0.2]
    values = np.array([v, v[::-1]])
    return make_dataset(values, np.ones_like(values, dtype=bool), rate=30.0)


def past_one_block():
    n = 2 * _CSV_BLOCK_ROWS + 17
    values, masks = gappy(np.random.default_rng(3), 5, n)
    return make_dataset(values, masks)


def no_rows():
    return make_dataset(np.empty((2, 0)), np.empty((2, 0), dtype=bool))


CASES = {
    "masked_rows": masked_rows,
    "one_observed_sample": one_observed_sample,
    "extreme_values": extreme_values,
    "past_one_block": past_one_block,
}


@pytest.mark.parametrize("name", [*CASES, "no_rows"])
@pytest.mark.parametrize("timestamp_column", ["t", "time stamp"])
def test_block_writer_matches_row_writer_bytes(tmp_path, name, timestamp_column):
    data = {**CASES, "no_rows": no_rows}[name]()
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_csv(data, ours, timestamp_column)
    reference_write(data, ref, timestamp_column)
    assert ours.read_bytes() == ref.read_bytes()


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", CASES)
def test_written_csv_reads_back_bitwise(tmp_path, name):
    data = CASES[name]()
    p = tmp_path / "d.csv"
    write_csv(data, p)
    back = ingest_csv(p)
    assert back.ids == data.ids
    assert np.array_equal(bits(back.timestamps), bits(data.timestamps))
    assert np.array_equal(back.masks_matrix(), data.masks_matrix())
    observed = data.masks_matrix()
    assert np.array_equal(bits(back.values_matrix()[observed]),
                          bits(data.values_matrix()[observed]))
    assert np.isnan(back.values_matrix()[~observed]).all()


@pytest.mark.filterwarnings("error")
def test_blank_line_alone_in_a_block_is_a_ragged_row(tmp_path):
    p = tmp_path / "d.csv"
    rows = "".join(f"{i},{i % 3}\n" for i in range(_CSV_BLOCK_ROWS))
    p.write_text("t,v\n" + rows + "\n")
    line = _CSV_BLOCK_ROWS + 2
    with pytest.raises(FormatError, match=f"^{re.escape(str(p))}:{line}: expected 2 fields, got 0$"):
        ingest_csv(p)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_io_memory_stays_below_file_size(tmp_path):
    """ingest_csv may hold the parsed table and the dataset built from it,
    not the file's cells as Python strings; write_csv holds one block of
    formatted rows, not the file."""
    values, masks = gappy(np.random.default_rng(4), 12, 20000)
    data = make_dataset(values, masks)
    p = tmp_path / "archive.csv"
    write_csv(data, p)
    size = p.stat().st_size
    assert traced_peak(ingest_csv, p) < 3 * size

    out = tmp_path / "out.csv"
    peak = traced_peak(write_csv, data, out)
    assert out.stat().st_size == size
    assert peak < size
