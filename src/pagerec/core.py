"""Time-series data model, CSV ingestion, gap filling and angle referencing.

:class:`Dataset` is columnar: one time base of n samples and (N, n) arrays
of values and observation masks, one row per channel, all read-only.
:class:`ChannelSeries` is the plain record of one channel: a dataset
checks the records it is built from and hands records out, as read-only
views, on request. Channel order is significant: it fixes the block order
of the stacked matrices built downstream.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    AllMissingChannel,
    ConfigError,
    FormatError,
    NumericError,
    ShapeError,
)

_MISSING_TOKENS = {"", "nan"}

# Rows per block of CSV ingest and write. Bounds their transient memory:
# a block of formatted rows costs about six times its bytes on disk in
# Python string objects.
_CSV_BLOCK_ROWS = 2048

# The comma before an empty cell: one followed by a comma or a line end.
_EMPTY_BEFORE = re.compile(r",(?=[,\r\n]|\Z)")


class ChannelKind(enum.Enum):
    VOLTAGE_ANGLE = "voltage_angle"
    GENERIC = "generic"


def _uniform_steps(t: np.ndarray) -> bool:
    """True when the (at least two) timestamps t are finite and increase by
    one constant step: the first step is positive and every step passes
    np.allclose's test against it (rtol 1e-9, atol 1e-12), written out
    because np.allclose's own checks cost more than the test itself."""
    if not np.isfinite(t).all():
        return False
    steps = t[1:] - t[:-1]
    first = float(steps[0])
    return first > 0 and bool((np.abs(steps - first) <= 1e-12 + 1e-9 * first).all())


@dataclass(frozen=True, eq=False)
class ChannelSeries:
    """One measurement channel: a plain record. A :class:`Dataset` checks
    and copies it when the dataset is built from it.

    Parameters
    ----------
    channel_id : str
        Opaque identifier, unique within a dataset.
    kind : ChannelKind
        Physical interpretation; scale_dataset unwraps and references the
        VOLTAGE_ANGLE channels and passes the others through.
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

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """Channels on one time base, stored as columns.

    timestamps holds the n sample times once; the channels' values and
    observation masks are (N, n) arrays whose row i belongs to channel
    ids[i] of kind kinds[i]. All three arrays are read-only.
    ``Dataset(channels, rate_fps)`` builds one from ChannelSeries records,
    :meth:`from_arrays` from the arrays themselves; both copy their inputs
    and validate alike.
    A rate_fps of 0 means "derive from the timestamp step".
    """

    timestamps: np.ndarray
    ids: tuple[str, ...]
    kinds: tuple[ChannelKind, ...]
    rate_fps: float
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
            tuple(c.kind for c in chans),
            rate_fps,
        )
        # after _store has checked the first time base, so that a non-finite
        # shared one is reported as such, not as unshared (NaN != NaN)
        shared = (np.array([c.timestamps for c in chans], dtype=float)
                  == self.timestamps).all(axis=1)
        if not shared.all():
            raise ShapeError(f"channel {chans[shared.argmin()].channel_id!r} "
                             "does not share the common time base")

    @classmethod
    def from_arrays(
        cls,
        timestamps,
        values,
        masks,
        ids: Iterable[str],
        kinds: Iterable[ChannelKind] | None = None,
        rate_fps: float = 0.0,
    ) -> "Dataset":
        """Dataset from its time base (n,), values and masks (N, n), channel
        ids and kinds (GENERIC when omitted). The arrays are copied."""
        ids = tuple(ids)
        self = cls.__new__(cls)
        self._store(
            timestamps, values, masks, ids,
            (ChannelKind.GENERIC,) * len(ids) if kinds is None else tuple(kinds),
            rate_fps,
        )
        return self

    def _store(self, t, values, masks, ids, kinds, rate_fps) -> None:
        """Check the time base, copy it, the values and the masks, check
        their shapes, the kinds and the ids, and keep the copies read-only:
        the one validator of both constructors."""
        if not ids:
            raise ShapeError("dataset needs at least one channel")
        t = np.array(t, dtype=float)
        # before the (N, n) copies, so that its temporaries do not add to them
        if t.ndim == 1 and len(t) >= 2 and not _uniform_steps(t):
            raise ShapeError(
                "timestamps must be finite and strictly increasing with a constant step"
            )
        values = np.array(values, dtype=float, order="C")
        masks = np.array(masks, dtype=bool, order="C")
        N = len(ids)
        if (t.ndim != 1 or values.shape != (N, len(t)) or masks.shape != values.shape
                or len(kinds) != N):
            raise ShapeError(
                f"expected timestamps (n,), values and masks ({N}, n) and {N} "
                f"kinds, got {t.shape}, {values.shape}, {masks.shape} and {len(kinds)}"
            )
        if len(set(ids)) != len(ids):
            repeated = next(c for k, c in enumerate(ids) if c in ids[:k])
            raise ShapeError(f"channel id {repeated!r} appears more than once")
        if not rate_fps:
            rate_fps = 1.0 / (t[1] - t[0]) if len(t) >= 2 else 1.0
        for a in (t, values, masks):
            a.setflags(write=False)
        for name, value in (("timestamps", t), ("ids", ids), ("kinds", kinds),
                            ("rate_fps", float(rate_fps)), ("_values", values),
                            ("_masks", masks)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.timestamps)

    def _row(self, channel_id: str) -> int:
        try:
            return self.ids.index(channel_id)
        except ValueError:
            raise KeyError(channel_id) from None

    @property
    def channels(self) -> tuple[ChannelSeries, ...]:
        """The channels as ChannelSeries records, built on each access; their
        arrays are read-only views of the stored ones."""
        return tuple(self.channel(c) for c in self.ids)

    def channel(self, channel_id: str) -> ChannelSeries:
        """The record of one channel, over views of the stored arrays."""
        i = self._row(channel_id)
        return ChannelSeries(
            channel_id, self.kinds[i], self.timestamps, self._values[i], self._masks[i]
        )

    def select(self, ids: Iterable[str]) -> "Dataset":
        """Sub-dataset with the given channels, in the given order."""
        rows = [self._row(c) for c in ids]
        return Dataset.from_arrays(
            self.timestamps, self._values[rows], self._masks[rows],
            [self.ids[i] for i in rows], [self.kinds[i] for i in rows], self.rate_fps,
        )

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
            self.timestamps, values, self._masks if masks is None else masks,
            self.ids, self.kinds, self.rate_fps,
        )


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for CSV ingestion.

    timestamp: name of the time column (None picks the first column).
    kinds: per-column ChannelKind (unlisted columns default to GENERIC).
    rate_fps: overrides the rate inferred from timestamp deltas.
    """

    timestamp: str | None = None
    kinds: Mapping[str, ChannelKind] = field(default_factory=dict)
    rate_fps: float | None = None


def ingest_csv(path, schema: CsvSchema | None = None) -> Dataset:
    """Read a comma-separated file into a Dataset.

    One timestamp column, one column per channel, each named once in the
    header by a non-empty name. A cell that is empty, whitespace-only or a
    NaN literal (any case, surrounding spaces allowed) marks a missing
    sample; a quoted numeric cell (``"1.5"``) is read as its number. Rows
    must all have the header's width, and timestamps must be finite and
    strictly increasing with a constant step.

    The data rows are parsed in blocks of ``_CSV_BLOCK_ROWS`` lines: the
    file's text is never held whole, only one block of it beside the parsed
    float table.

    Raises
    ------
    FormatError
        Empty or repeated header column name, ragged row or unparsable cell
        (each reported with its line number), fewer than two data rows, or a
        non-finite or non-uniform time column.
    AllMissingChannel
        Some channel has no observed sample at all.
    """
    schema = schema or CsvSchema()
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first:
            raise FormatError(f"{path}: empty file")
        header = [h.strip() for h in next(csv.reader([first]))]
        if not header:
            raise FormatError(f"{path}:1: empty header")
        ts_col = schema.timestamp if schema.timestamp is not None else header[0]
        if ts_col not in header:
            raise FormatError(f"{path}: timestamp column {ts_col!r} not in header")
        seen = set()
        for j, name in enumerate(header, start=1):
            if not name:
                raise FormatError(f"{path}:1: column {j} has an empty name")
            if name in seen:
                raise FormatError(f"{path}:1: column {name!r} appears more than once")
            seen.add(name)
        if len(header) < 2:
            raise FormatError(f"{path}: no channel columns besides the timestamp")
        ts_idx = header.index(ts_col)

        blocks = []
        lineno = 2
        while lines := list(itertools.islice(fh, _CSV_BLOCK_ROWS)):
            blocks.append(_parse_block(lines, path, lineno, header, ts_idx))
            lineno += len(lines)

    if sum(len(b) for b in blocks) < 2:
        raise FormatError(f"{path}: need at least two rows to infer the rate")
    table = np.concatenate(blocks)
    del blocks  # freed before the columns are copied out of table

    t = table[:, ts_idx].copy()
    if not _uniform_steps(t):
        raise FormatError(f"{path}: timestamps are not finite and uniformly increasing")
    rate = schema.rate_fps if schema.rate_fps else 1.0 / (t[1] - t[0])

    ids = tuple(h for j, h in enumerate(header) if j != ts_idx)
    values = table.T[[j for j in range(len(header)) if j != ts_idx]]
    del table  # freed before the dataset copies values
    masks = ~np.isnan(values)
    unobserved = ~masks.any(axis=1)
    if unobserved.any():
        name = ids[unobserved.argmax()]
        raise AllMissingChannel(f"{path}: column {name!r} has no observed sample")
    kinds = [schema.kinds.get(name, ChannelKind.GENERIC) for name in ids]
    return Dataset.from_arrays(t, values, masks, ids, kinds, rate)


def _parse_block(lines: list[str], path, lineno: int, header: list[str],
                 ts_idx: int) -> np.ndarray:
    """One block of data lines, the first at line number lineno, as a
    (lines, columns) float array with NaN for a missing cell.

    numpy's C parser reads the block once its empty cells are spelled as
    NaN. A block it rejects, reads to another shape (it skips blank lines)
    or reads with a missing timestamp is scanned cell by cell instead."""
    # spell every empty cell as NaN: one at a line start, then one after a
    # comma (the leading newline gives the first line its line start)
    text = ("\n" + "".join(lines)).replace("\n,", "\nnan,")
    if "\r" in text:
        text = text.replace("\r,", "\rnan,")
    text = _EMPTY_BEFORE.sub(",nan", text)[1:]
    block = None
    if not text.isspace():  # numpy warns about a block with no data
        try:
            block = np.loadtxt(io.StringIO(text), dtype=float, delimiter=",",
                               quotechar='"', comments=None, ndmin=2)
        except ValueError:
            pass
    if (block is None or block.shape != (len(lines), len(header))
            or np.isnan(block[:, ts_idx]).any()):
        return _scan_block(lines, path, lineno, header, ts_idx)
    return block


def _scan_block(lines: list[str], path, lineno: int, header: list[str],
                ts_idx: int) -> np.ndarray:
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
            if j != ts_idx and token.lower() in _MISSING_TOKENS:
                block[i, j] = np.nan
                continue
            try:
                block[i, j] = float(token)
            except ValueError:
                if j == ts_idx:
                    raise FormatError(f"{where}: bad timestamp {cell!r}") from None
                raise FormatError(
                    f"{where}: bad value {cell!r} in column {header[j]!r}"
                ) from None
    return block


def write_csv(dataset: Dataset, path, timestamp_column: str = "t") -> None:
    """Serialize a Dataset back to the ingestion schema (empty cell = missing).

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
    with open(path, "w", newline="") as fh:
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
    if not mask.any(axis=-1).all():
        raise AllMissingChannel("cannot fill a channel with no observed sample")
    # a gap takes the latest observed index before it, a leading gap the
    # first observed index
    first = mask.argmax(axis=-1)[..., None]
    idx = np.where(mask, np.arange(values.shape[-1]), first)
    return np.take_along_axis(values, np.maximum.accumulate(idx, axis=-1), axis=-1)


# ---------------------------------------------------------------------------
# Angle unwrapping and referencing
# ---------------------------------------------------------------------------

def unwrap_degrees(values: np.ndarray) -> np.ndarray:
    """Unwrap a degree-valued sequence so successive differences lie in
    (-180, 180]; the output differs from the input by multiples of 360."""
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        return v.copy()
    d = np.diff(v)
    # k = ceil((d - 180)/360) maps d - 360k into (-180, 180]
    k = np.ceil((d - 180.0) / 360.0)
    return v[0] + np.concatenate(([0.0], np.cumsum(d - 360.0 * k)))


@dataclass(frozen=True)
class ScalingTransform:
    """Inverse bookkeeping produced by :func:`scale_dataset`: the reference
    channel and its unwrapped series, which undoing the referencing needs."""

    reference_channel: str | None
    reference_values: np.ndarray | None

    def invert(self, data: Dataset) -> Dataset:
        """Map a scaled dataset back to physical units.

        Angle channels come back unwrapped (referencing is undone, wrapping
        is not reapplied); every other channel passes through.
        """
        values = data.values_matrix().copy()
        for i, kind in enumerate(data.kinds):
            if kind is ChannelKind.VOLTAGE_ANGLE:
                if self.reference_values is None:
                    raise ConfigError("no reference series recorded for angles")
                values[i] = values[i] + self.reference_values
        return data.with_values(values)


def _pick_reference(data: Dataset, reference_channel: str | None) -> int | None:
    """Row of the angle channel every angle channel is referenced to."""
    if reference_channel is not None:
        if reference_channel not in data.ids:
            raise ConfigError(f"reference channel {reference_channel!r} not in dataset")
        i = data.ids.index(reference_channel)
        if data.kinds[i] is not ChannelKind.VOLTAGE_ANGLE:
            raise ConfigError(
                f"reference channel {reference_channel!r} is not an angle channel"
            )
        return i
    angles = [i for i, kind in enumerate(data.kinds) if kind is ChannelKind.VOLTAGE_ANGLE]
    if not angles:
        return None
    # fewest missing entries wins, first channel breaks ties
    missing = (~data.masks_matrix()).sum(axis=1)
    return min(angles, key=lambda i: (missing[i], i))


def scale_dataset(
    data: Dataset, reference_channel: str | None = None
) -> tuple[Dataset, ScalingTransform]:
    """Unwrap every angle channel and subtract the unwrapped reference angle
    channel from it; other channels pass through unchanged. A per-channel
    gain or offset needs no configuring: the window engine maps each channel
    onto [-1, 1] in every window, so estimates follow such a map and kept
    ranks do not change.

    reference_channel None picks the angle channel with the fewest missing
    entries. Fill gaps first: angle unwrapping propagates non-finite values.

    Returns the scaled dataset and the transform that maps estimates back to
    physical units.
    """
    values = data.values_matrix().copy()
    ref = _pick_reference(data, reference_channel)
    ref_unwrapped = None
    if ref is not None:
        if not np.isfinite(values[ref]).all():
            raise NumericError(
                f"reference channel {data.ids[ref]!r} has non-finite values; fill first"
            )
        ref_unwrapped = unwrap_degrees(values[ref])

    for i, (cid, kind) in enumerate(zip(data.ids, data.kinds)):
        if kind is ChannelKind.VOLTAGE_ANGLE:
            if not np.isfinite(values[i]).all():
                raise NumericError(
                    f"angle channel {cid!r} has non-finite values; fill first"
                )
            values[i] = unwrap_degrees(values[i]) - ref_unwrapped

    transform = ScalingTransform(
        reference_channel=data.ids[ref] if ref is not None else None,
        reference_values=ref_unwrapped,
    )
    return data.with_values(values), transform
