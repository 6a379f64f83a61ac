"""Time-series data model, CSV ingestion, gap filling and channel scaling.

The central objects are :class:`ChannelSeries` (one measurement channel with
an observation mask) and :class:`Dataset` (an ordered set of channels on a
common time base). Channel order is significant: it fixes the block order of
stacked matrices built downstream.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import re
from dataclasses import dataclass, field, replace
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
    VOLTAGE_MAGNITUDE = "voltage_magnitude"
    VOLTAGE_ANGLE = "voltage_angle"
    FREQUENCY = "frequency"
    GENERIC = "generic"


class FillPolicy(enum.Enum):
    """Gap-filling strategies. Only last-observation-carried-forward exists;
    leading gaps are backfilled from the first observed sample."""

    LOCF = "locf"


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


def _immutable(a, dtype) -> np.ndarray:
    a = np.array(a, dtype=dtype)  # always a copy
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ChannelSeries:
    """One measurement channel.

    Parameters
    ----------
    channel_id : str
        Opaque identifier, unique within a dataset.
    kind : ChannelKind
        Physical interpretation, used only by scaling.
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

    def __post_init__(self):
        t = _immutable(self.timestamps, float)
        v = _immutable(self.values, float)
        m = _immutable(self.mask, bool)
        if not (len(t) == len(v) == len(m)):
            raise ShapeError(
                f"channel {self.channel_id!r}: timestamps ({len(t)}), values "
                f"({len(v)}) and mask ({len(m)}) lengths differ"
            )
        if len(t) >= 2 and not _uniform_steps(t):
            raise ShapeError(
                f"channel {self.channel_id!r}: timestamps must be finite and "
                "strictly increasing with a constant step"
            )
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mask", m)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def n_missing(self) -> int:
        return int((~self.mask).sum())

    def replace_values(self, values, mask=None) -> "ChannelSeries":
        """Copy of this channel with new values (and optionally a new mask)."""
        return replace(
            self,
            values=np.asarray(values, dtype=float),
            mask=self.mask if mask is None else np.asarray(mask, dtype=bool),
        )


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of channels sharing one time base."""

    channels: tuple[ChannelSeries, ...]
    rate_fps: float = 0.0  # 0 means "derive from the timestamp step"

    def __post_init__(self):
        chans = tuple(self.channels)
        if not chans:
            raise ShapeError("dataset needs at least one channel")
        ids = [c.channel_id for c in chans]
        if len(set(ids)) != len(ids):
            raise ShapeError("channel ids must be unique")
        t0 = chans[0].timestamps
        for c in chans[1:]:
            if len(c) != len(t0) or not (c.timestamps == t0).all():
                raise ShapeError(
                    f"channel {c.channel_id!r} does not share the common time base"
                )
        rate = self.rate_fps
        if not rate:
            rate = 1.0 / (t0[1] - t0[0]) if len(t0) >= 2 else 1.0
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "rate_fps", float(rate))

    def __len__(self) -> int:
        return len(self.channels[0])

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(c.channel_id for c in self.channels)

    @property
    def timestamps(self) -> np.ndarray:
        return self.channels[0].timestamps

    def channel(self, channel_id: str) -> ChannelSeries:
        for c in self.channels:
            if c.channel_id == channel_id:
                return c
        raise KeyError(channel_id)

    def select(self, ids: Iterable[str]) -> "Dataset":
        """Sub-dataset with the given channels, in the given order."""
        return Dataset(tuple(self.channel(i) for i in ids), self.rate_fps)

    def values_matrix(self) -> np.ndarray:
        """Channel values as an (n_channels, n_samples) array."""
        return np.array([c.values for c in self.channels])

    def masks_matrix(self) -> np.ndarray:
        return np.array([c.mask for c in self.channels])

    def with_values(self, values: np.ndarray, masks: np.ndarray | None = None) -> "Dataset":
        """Dataset with the same layout but new per-channel values."""
        values = np.asarray(values, dtype=float)
        if values.shape != (len(self.channels), len(self)):
            raise ShapeError(
                f"values matrix {values.shape} does not match dataset "
                f"({len(self.channels)}, {len(self)})"
            )
        chans = []
        for i, c in enumerate(self.channels):
            m = None if masks is None else masks[i]
            chans.append(c.replace_values(values[i], m))
        return Dataset(tuple(chans), self.rate_fps)


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
    header. A cell that is empty, whitespace-only or a NaN literal (any case,
    surrounding spaces allowed) marks a missing sample; a quoted numeric cell
    (``"1.5"``) is read as its number. Rows must all have the header's width,
    and timestamps must be finite and strictly increasing with a constant
    step.

    The data rows are parsed in blocks of ``_CSV_BLOCK_ROWS`` lines: the
    file's text is never held whole, only one block of it beside the parsed
    float table.

    Raises
    ------
    FormatError
        Repeated header column, ragged row or unparsable cell (each reported
        with its line number), fewer than two data rows, or a non-finite or
        non-uniform time column.
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
        for name in header:
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
    del blocks  # freed before the channels copy their columns out of table

    t = table[:, ts_idx]
    if not _uniform_steps(t):
        raise FormatError(f"{path}: timestamps are not finite and uniformly increasing")
    rate = schema.rate_fps if schema.rate_fps else 1.0 / (t[1] - t[0])

    channels = []
    for j, name in enumerate(header):
        if j == ts_idx:
            continue
        vals = table[:, j]
        mask = ~np.isnan(vals)
        if not mask.any():
            raise AllMissingChannel(f"{path}: column {name!r} has no observed sample")
        kind = schema.kinds.get(name, ChannelKind.GENERIC)
        channels.append(ChannelSeries(name, kind, t, vals, mask))
    return Dataset(tuple(channels), rate)


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
    ``_CSV_BLOCK_ROWS``, so the memory used does not grow with the dataset."""
    t = dataset.timestamps
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([timestamp_column, *dataset.ids])
        for lo in range(0, len(dataset), _CSV_BLOCK_ROWS):
            hi = lo + _CSV_BLOCK_ROWS
            columns = [map(repr, t[lo:hi].tolist())]
            for c in dataset.channels:
                cells = map(repr, c.values[lo:hi].tolist())
                mask = c.mask[lo:hi]
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


def fill_missing(series: ChannelSeries, policy: FillPolicy = FillPolicy.LOCF) -> ChannelSeries:
    """Fill masked-out samples; observed samples and the mask are untouched."""
    if policy is not FillPolicy.LOCF:  # pragma: no cover - single-member enum
        raise ConfigError(f"unknown fill policy {policy!r}")
    if not series.mask.any():
        raise AllMissingChannel(
            f"channel {series.channel_id!r} has no observed sample"
        )
    return series.replace_values(locf_fill(series.values, series.mask))


def fill_dataset(data: Dataset, policy: FillPolicy = FillPolicy.LOCF) -> Dataset:
    return Dataset(
        tuple(fill_missing(c, policy) for c in data.channels), data.rate_fps
    )


# ---------------------------------------------------------------------------
# Angle unwrapping and channel scaling
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


def unwrap_angles(series: ChannelSeries) -> ChannelSeries:
    """Unwrap a VOLTAGE_ANGLE channel (degrees)."""
    if series.kind is not ChannelKind.VOLTAGE_ANGLE:
        raise ConfigError(
            f"channel {series.channel_id!r} has kind {series.kind.value}, "
            "expected voltage_angle"
        )
    return series.replace_values(unwrap_degrees(series.values))


@dataclass(frozen=True)
class ScalingPolicy:
    """How channels are mapped into comparable units.

    base_kv: per-channel divisor for magnitude channels (per-unit base).
    reference_channel: angle channel subtracted from every angle channel;
        None picks the angle channel with the fewest missing entries.
    nominal_hz, freq_gain: frequency channels map to (f - nominal) * gain.
    """

    base_kv: Mapping[str, float] = field(default_factory=dict)
    reference_channel: str | None = None
    nominal_hz: float = 60.0
    freq_gain: float = 10.0


@dataclass(frozen=True)
class ScalingTransform:
    """Inverse bookkeeping produced by :func:`scale_dataset`.

    Angle referencing is invertible only with the unwrapped reference series,
    which is retained here.
    """

    base_kv: Mapping[str, float]
    reference_channel: str | None
    reference_values: np.ndarray | None
    nominal_hz: float
    freq_gain: float

    def invert(self, data: Dataset) -> Dataset:
        """Map a scaled dataset back to physical units.

        Angle channels come back unwrapped (referencing is undone, wrapping
        is not reapplied).
        """
        chans = []
        for c in data.channels:
            if c.kind is ChannelKind.VOLTAGE_MAGNITUDE:
                chans.append(c.replace_values(c.values * self.base_kv[c.channel_id]))
            elif c.kind is ChannelKind.VOLTAGE_ANGLE:
                if self.reference_values is None:
                    raise ConfigError("no reference series recorded for angles")
                chans.append(c.replace_values(c.values + self.reference_values))
            elif c.kind is ChannelKind.FREQUENCY:
                chans.append(
                    c.replace_values(c.values / self.freq_gain + self.nominal_hz)
                )
            else:
                chans.append(c)
        return Dataset(tuple(chans), data.rate_fps)


def _pick_reference(data: Dataset, policy: ScalingPolicy) -> ChannelSeries | None:
    angles = [c for c in data.channels if c.kind is ChannelKind.VOLTAGE_ANGLE]
    if policy.reference_channel is not None:
        try:
            ref = data.channel(policy.reference_channel)
        except KeyError:
            raise ConfigError(
                f"reference channel {policy.reference_channel!r} not in dataset"
            ) from None
        if ref.kind is not ChannelKind.VOLTAGE_ANGLE:
            raise ConfigError(
                f"reference channel {policy.reference_channel!r} is not an angle channel"
            )
        return ref
    if not angles:
        return None
    # fewest missing entries wins, first channel breaks ties
    return min(angles, key=lambda c: (c.n_missing, data.ids.index(c.channel_id)))


def scale_dataset(data: Dataset, policy: ScalingPolicy) -> tuple[Dataset, ScalingTransform]:
    """Scale channels by kind: per-unit magnitudes, referenced (and unwrapped)
    angles, gain-mapped frequencies. Fill gaps first: angle unwrapping
    propagates non-finite values.

    Returns the scaled dataset and the transform that maps estimates back to
    physical units.
    """
    ref = _pick_reference(data, policy)
    ref_unwrapped = None
    if ref is not None:
        if not np.isfinite(ref.values).all():
            raise NumericError(
                f"reference channel {ref.channel_id!r} has non-finite values; fill first"
            )
        ref_unwrapped = unwrap_degrees(ref.values)

    chans = []
    for c in data.channels:
        if c.kind is ChannelKind.VOLTAGE_MAGNITUDE:
            if c.channel_id not in policy.base_kv:
                raise ConfigError(
                    f"no per-unit base configured for magnitude channel {c.channel_id!r}"
                )
            chans.append(c.replace_values(c.values / policy.base_kv[c.channel_id]))
        elif c.kind is ChannelKind.VOLTAGE_ANGLE:
            if ref_unwrapped is None:
                raise ConfigError("angle channels present but no reference available")
            if not np.isfinite(c.values).all():
                raise NumericError(
                    f"angle channel {c.channel_id!r} has non-finite values; fill first"
                )
            chans.append(c.replace_values(unwrap_degrees(c.values) - ref_unwrapped))
        elif c.kind is ChannelKind.FREQUENCY:
            chans.append(
                c.replace_values((c.values - policy.nominal_hz) * policy.freq_gain)
            )
        else:
            chans.append(c)

    transform = ScalingTransform(
        base_kv=dict(policy.base_kv),
        reference_channel=ref.channel_id if ref is not None else None,
        reference_values=ref_unwrapped,
        nominal_hz=policy.nominal_hz,
        freq_gain=policy.freq_gain,
    )
    return Dataset(tuple(chans), data.rate_fps), transform
