"""Time-series data model, CSV ingestion and gap filling.

:class:`Dataset` is columnar: one time base of n samples, the channel ids
and (N, n) arrays of values and observation masks, one row per channel, all
read-only. Channel order is significant: it fixes the block order of the
stacked matrices built downstream. :class:`ChannelSeries` is the plain
record of one channel, kept only for callers that still build a dataset
from records.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import io
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import AllMissingChannel, ConfigError, FormatError, ShapeError

_MISSING_TOKENS = {"", "nan"}

# Rows per block of CSV ingest and write. Bounds their transient memory:
# a block of formatted rows costs about six times its bytes on disk in
# Python string objects.
_CSV_BLOCK_ROWS = 2048

# The comma before an empty cell: one followed by a comma or a line end.
_EMPTY_BEFORE = re.compile(r",(?=[,\r\n]|\Z)")


class ChannelKind(enum.Enum):
    """A record's label, accepted and dropped: no computation reads it."""

    VOLTAGE_ANGLE = "voltage_angle"
    GENERIC = "generic"


def _uniform_steps(t: np.ndarray) -> bool:
    """True when the (at least two) timestamps t are finite and increase by
    one constant step: the first step is positive and every step passes
    np.allclose's test against it (rtol 1e-9, atol 1e-12), written out
    because np.allclose's own checks cost more than the test itself.

    Only the extreme steps are compared with the first step f: rounding is
    monotone and fl(f - s) = -fl(s - f), so |s - f| <= tol holds for every
    step s exactly when it holds for the largest and the smallest."""
    # inf - inf would warn in the step differences below
    if not np.isfinite(t).all():
        return False
    steps = t[1:] - t[:-1]
    first = float(steps[0])
    tol = 1e-12 + 1e-9 * first
    return (first > 0 and float(steps.max()) - first <= tol
            and first - float(steps.min()) <= tol)


@dataclass(eq=False, slots=True)
class ChannelSeries:
    """One measurement channel: a plain, slotted record, compared and hashed
    by identity. A :class:`Dataset` checks and copies it when the dataset is
    built from it, so changing a record afterwards leaves the dataset as it
    was.

    Parameters
    ----------
    channel_id : str
        Opaque identifier, unique within a dataset.
    kind : ChannelKind
        A label that a dataset does not keep; records a dataset hands out
        are GENERIC.
    timestamps : array of float
        Finite, strictly increasing, uniformly spaced sample times.
    values : array of float
        Measurements; entries at masked-out positions are meaningless
        (conventionally NaN).
    mask : array of bool
        True where the sample was observed.
    """

    channel_id: str
    kind: ChannelKind
    timestamps: np.ndarray
    values: np.ndarray
    mask: np.ndarray


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """Channels on one time base, stored as columns.

    timestamps holds the n sample times once; the channels' values and
    observation masks are (N, n) arrays whose row i belongs to channel
    ids[i]. All three arrays are read-only. The rate is derived from the
    time step.
    :meth:`from_arrays` builds one from the arrays themselves,
    ``Dataset(channels, rate_fps)`` from ChannelSeries records, dropping
    their kind labels and rate_fps; both copy their inputs and validate alike.
    The package's own :meth:`_adopt` validates alike and keeps the values
    and masks it is given without copying them.
    """

    timestamps: np.ndarray
    ids: tuple[str, ...]
    _values: np.ndarray = field(repr=False)
    _masks: np.ndarray = field(repr=False)

    def __init__(self, channels: Iterable[ChannelSeries], rate_fps: float = 0.0):
        chans = tuple(channels)
        t0 = chans[0].timestamps if chans else ()
        n = len(t0)
        for c in chans:
            lengths = (len(c.timestamps), len(c.values), len(c.mask))
            if lengths != (n, n, n):
                raise ShapeError(
                    f"channel {c.channel_id!r}: timestamps, values and mask lengths "
                    f"{lengths} differ from the common time base's {n}"
                )
        self._store(
            t0,
            [c.values for c in chans],
            [c.mask for c in chans],
            tuple(c.channel_id for c in chans),
        )
        # after _store has checked the first time base, so that a non-finite
        # shared one is reported as such, not as unshared (NaN != NaN)
        times = np.array([c.timestamps for c in chans], dtype=float)
        if not (times == self.timestamps).all():
            bad = (times != self.timestamps).any(axis=1).argmax()
            raise ShapeError(f"channel {chans[bad].channel_id!r} "
                             "does not share the common time base")

    @classmethod
    def from_arrays(cls, timestamps, values, masks, ids: Iterable[str]) -> "Dataset":
        """Dataset from its time base (n,), values and masks (N, n) and
        channel ids. The arrays are copied."""
        self = cls.__new__(cls)
        self._store(timestamps, values, masks, tuple(ids))
        return self

    @classmethod
    def _adopt(cls, timestamps, values, masks, ids: Iterable[str]) -> "Dataset":
        """Dataset that keeps the C-ordered float values and bool masks its
        caller has just built and drops, without copying them, and makes
        them read-only; the time base is copied, as from_arrays copies it."""
        self = cls.__new__(cls)
        self._store(timestamps, values, masks, tuple(ids), copy=False)
        return self

    def _store(self, t, values, masks, ids, copy: bool = True) -> None:
        """Check the time base, copy it, the values and the masks (unless
        copy is False, which keeps the values and masks given), check their
        shapes and the ids, and keep the arrays read-only: the one validator
        of every constructor."""
        if not ids:
            raise ShapeError("dataset needs at least one channel")
        t = np.array(t, dtype=float)
        # before the (N, n) copies, so that its temporaries do not add to them
        if t.ndim == 1 and len(t) >= 2 and not _uniform_steps(t):
            raise ShapeError(
                "timestamps must be finite and strictly increasing with a constant step"
            )
        array = np.array if copy else np.asarray
        values = array(values, dtype=float, order="C")
        masks = array(masks, dtype=bool, order="C")
        N = len(ids)
        if t.ndim != 1 or values.shape != (N, len(t)) or masks.shape != values.shape:
            raise ShapeError(
                f"expected timestamps (n,) and values and masks ({N}, n), "
                f"got {t.shape}, {values.shape} and {masks.shape}"
            )
        if len(set(ids)) != len(ids):
            repeated = next(c for k, c in enumerate(ids) if c in ids[:k])
            raise ShapeError(f"channel id {repeated!r} appears more than once")
        for a in (t, values, masks):
            a.setflags(write=False)
        # one update of the instance dict: the frozen class's __setattr__
        # refuses the fields
        self.__dict__.update(timestamps=t, ids=ids, _values=values, _masks=masks)

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def rate_fps(self) -> float:
        """Samples per second, the inverse of the time step; 1.0 for a
        dataset of fewer than two samples."""
        t = self.timestamps
        return float(1.0 / (t[1] - t[0])) if len(t) >= 2 else 1.0

    @property
    def channels(self) -> tuple[ChannelSeries, ...]:
        """The channels as GENERIC ChannelSeries records, built on each
        access; their arrays are read-only views of the stored ones."""
        return tuple(
            ChannelSeries(c, ChannelKind.GENERIC, self.timestamps, v, m)
            for c, v, m in zip(self.ids, self._values, self._masks)
        )

    def select(self, ids: Iterable[str]) -> "Dataset":
        """Sub-dataset with the given channels, in the given order; an id
        not in the dataset is a KeyError."""
        row = {c: i for i, c in enumerate(self.ids)}
        rows = [row[c] for c in ids]
        return Dataset.from_arrays(self.timestamps, self._values[rows], self._masks[rows],
                                   [self.ids[i] for i in rows])

    def values_matrix(self) -> np.ndarray:
        """Channel values as an (n_channels, n_samples) array: the stored,
        read-only one."""
        return self._values

    def masks_matrix(self) -> np.ndarray:
        """Observation masks, shaped and stored like values_matrix()."""
        return self._masks

    def with_values(self, values, masks=None) -> "Dataset":
        """Dataset with the same layout but new (N, n) values and, when
        given, new masks."""
        return Dataset.from_arrays(
            self.timestamps, values, self._masks if masks is None else masks, self.ids,
        )


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------

def ingest_csv(path) -> Dataset:
    """Read a comma-separated UTF-8 file into a Dataset, dropping a BOM.

    The first column holds the timestamps, every other column one channel,
    each named once in the header by a non-empty name. A cell that
    is empty, whitespace-only or a NaN literal (any case, surrounding spaces
    allowed) marks a missing sample, and so does every other cell that reads
    to a non-finite number (``inf``, ``-inf``): a missing sample is filled
    like any gap, where an observed one would stop every window holding it.
    A quoted numeric cell (``"1.5"``) is read as its number. Rows must all
    have the header's width, and timestamps must be finite and strictly
    increasing with a constant step, from which the dataset's rate is
    derived.

    The data rows are parsed in blocks of ``_CSV_BLOCK_ROWS`` lines: the
    file's text is never held whole, only one block of it beside the parsed
    float table.

    Raises
    ------
    FormatError
        A byte that is not UTF-8, empty or repeated header column name,
        ragged row or unparsable cell (each reported with its line number),
        fewer than two data rows, or a non-finite or non-uniform time column.
    AllMissingChannel
        Some channel has no observed (finite) sample at all.
    """
    with _reading(path) as fh:
        header = _read_header(fh, path)
        ids = tuple(header[1:])
        blocks = []
        lineno = 2
        while lines := list(itertools.islice(fh, _CSV_BLOCK_ROWS)):
            blocks.append(_parse_block(lines, path, lineno, header))
            lineno += len(lines)

    if sum(len(b) for b in blocks) < 2:
        raise FormatError(f"{path}: need at least two rows to infer the rate")
    table = np.concatenate(blocks)
    del blocks  # freed before the dataset copies the columns out of table

    t = table[:, 0]
    if not _uniform_steps(t):
        raise FormatError(f"{path}: timestamps are not finite and uniformly increasing")
    values = table.T[1:]
    masks = np.isfinite(values)
    unobserved = ~masks.any(axis=1)
    if unobserved.any():
        name = ids[unobserved.argmax()]
        raise AllMissingChannel(f"{path}: column {name!r} has no observed sample")
    return Dataset.from_arrays(t, values, masks, ids)


def timestamp_column(path) -> str:
    """The name of the timestamp column of the CSV file at path, as
    ingest_csv reads it: the first header cell, stripped. The header is
    checked as ingest_csv checks it."""
    with _reading(path) as fh:
        return _read_header(fh, path)[0]


@contextlib.contextmanager
def _reading(path):
    """The CSV file at path, open as UTF-8 text, a leading byte-order mark
    dropped. A byte that does not decode is a FormatError naming the file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.end].hex(" ")
        raise FormatError(f"{path}: not UTF-8 text (byte {bad}: {exc.reason})") from None


def _read_header(fh, path) -> list[str]:
    """The stripped column names of the header line fh is at: the timestamp
    column first, then at least one channel, every name non-empty and
    unique. Reads that one line."""
    first = fh.readline()
    if not first:
        raise FormatError(f"{path}: empty file")
    header = [h.strip() for h in next(csv.reader([first]))]
    if not header:
        raise FormatError(f"{path}:1: empty header")
    seen = set()
    for j, name in enumerate(header, start=1):
        if not name:
            raise FormatError(f"{path}:1: column {j} has an empty name")
        if name in seen:
            raise FormatError(f"{path}:1: column {name!r} appears more than once")
        seen.add(name)
    if len(header) < 2:
        raise FormatError(f"{path}: no channel columns besides the timestamp")
    return header


def _parse_block(lines: list[str], path, lineno: int, header: list[str]) -> np.ndarray:
    """One block of data lines, the first at line number lineno, as a
    (lines, columns) float array with NaN for a missing cell.

    numpy's C parser reads the block once its empty cells are spelled as
    NaN. A block it rejects (an empty timestamp cell is never spelled, so it
    rejects that too) or reads to another shape (it skips blank lines) is
    scanned cell by cell instead."""
    # an empty cell after a comma is a missing sample
    text = _EMPTY_BEFORE.sub(",nan", "".join(lines))
    block = None
    if not text.isspace():  # numpy warns about a block with no data
        try:
            block = np.loadtxt(io.StringIO(text), dtype=float, delimiter=",",
                               quotechar='"', comments=None, ndmin=2)
        except ValueError:
            pass
    if block is None or block.shape != (len(lines), len(header)):
        return _scan_block(lines, path, lineno, header)
    return block


def _scan_block(lines: list[str], path, lineno: int, header: list[str]) -> np.ndarray:
    """The cell-by-cell reading of a block that defines the input rules:
    names the first ragged line or unparsable cell, and reads what the C
    parser does not (whitespace-only cells, digits grouped by underscores)."""
    block = np.empty((len(lines), len(header)))
    for i, line in enumerate(lines):
        where = f"{path}:{lineno + i}"
        row = next(csv.reader([line]))
        if len(row) != len(header):
            raise FormatError(f"{where}: expected {len(header)} fields, got {len(row)}")
        for j, cell in enumerate(row):
            token = cell.strip()
            if j > 0 and token.lower() in _MISSING_TOKENS:  # column 0: timestamps
                block[i, j] = np.nan
                continue
            try:
                block[i, j] = float(token)
            except ValueError:
                if j == 0:
                    raise FormatError(f"{where}: bad timestamp {cell!r}") from None
                raise FormatError(
                    f"{where}: bad value {cell!r} in column {header[j]!r}"
                ) from None
    return block


def write_csv(dataset: Dataset, path, timestamp_column: str = "t") -> None:
    """Serialize a Dataset as UTF-8 in the ingestion schema (empty cell = missing).

    Every sample is written as the repr of its float, and every row ends in
    \\r\\n, as the csv module writes it. Rows are formatted in blocks of
    ``_CSV_BLOCK_ROWS``, so the memory used does not grow with the dataset.
    A timestamp_column named like a channel is a ConfigError, raised before
    the file is opened: ingest_csv could not read the header back."""
    if timestamp_column in dataset.ids:
        raise ConfigError(
            f"timestamp column {timestamp_column!r} is also the name of a channel"
        )
    t, values, masks = dataset.timestamps, dataset.values_matrix(), dataset.masks_matrix()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow([timestamp_column, *dataset.ids])
        for lo in range(0, len(dataset), _CSV_BLOCK_ROWS):
            hi = lo + _CSV_BLOCK_ROWS
            columns = [map(repr, t[lo:hi].tolist())]
            for row, mask in zip(values[:, lo:hi], masks[:, lo:hi]):
                cells = map(repr, row.tolist())
                if not mask.all():
                    cells = [s if m else "" for s, m in zip(cells, mask.tolist())]
                columns.append(cells)
            fh.write("\r\n".join(map(",".join, zip(*columns))))
            fh.write("\r\n")


# ---------------------------------------------------------------------------
# Gap filling
# ---------------------------------------------------------------------------

def locf_fill(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Array-level LOCF along the last axis: masked-out entries take the last
    observed value, leading gaps take the first observed value. Extra
    leading axes are filled row by row, as a stack of windows."""
    W = values.shape[-1]
    if not W:
        raise AllMissingChannel("cannot fill a channel with no observed sample")
    # the (rows, W) views; a stack of windows that is not contiguous is copied
    rows = math.prod(values.shape[:-1])
    v, m = values.reshape(rows, W), mask.reshape(rows, W)
    # argmax gives a row's first observed index, or 0 for a row with none
    row = np.arange(rows)[:, None]
    first = m.argmax(axis=-1)[:, None]
    if not m[row, first].all():
        raise AllMissingChannel("cannot fill a channel with no observed sample")
    # a gap takes the latest observed index before it, a leading gap the
    # first observed index
    idx = np.where(m, np.arange(W), first)
    np.maximum.accumulate(idx, axis=-1, out=idx)
    return v[row, idx].reshape(values.shape)
