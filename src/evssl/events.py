"""Event stream I/O, partitioning, timestamp normalization, augmentation.

Events are kept in columnar numpy arrays (timestamps in integer
microseconds) so downstream kernels can stay vectorized. One type,
`EventStream`, holds both a whole recording and a fixed-count partition
of it; a normalized partition also carries its `t_star` column. All
types are immutable values whose columns are shared and never written: a
partition's columns are views of its recording's, and an augmentation
reuses every column it does not flip. `check_number` is the one boundary
rule for every numeric setting and argument of the package.

An EVT1 read holds the file's bytes and one copy of the columns at once,
16 + 13 bytes per event; an EVT1 write holds one record array beside the
columns and hands it to the file uncopied.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

US_PER_SECOND = 1_000_000
# Whole seconds whose microseconds still fit the uint64 timestamp column.
_MAX_T_SECONDS = (2**64 - 1) // US_PER_SECOND


class EventParseError(ValueError):
    """Malformed text event line."""


class EventBoundsError(ValueError):
    """Event coordinates outside the sensor geometry."""


class EventFormatError(ValueError):
    """Corrupt or mismatched binary event file."""


class ConfigurationError(ValueError):
    """A setting or argument of the wrong kind or out of range."""


def check_number(name: str, value, *, integer: bool = False, low=-math.inf, high=math.inf,
                 open_low: bool = False) -> None:
    """The one boundary rule for a numeric setting or argument.

    `value` must be a Python or numpy integer, or any real number unless
    `integer`; a bool, string, None or complex value never is. It must be
    finite, at least `low` (above it if `open_low`) and at most `high`.
    Otherwise ConfigurationError names the field and shows the value's repr.
    """
    # Chained comparisons, which NaN fails; `and` stops before comparing a string.
    if (isinstance(value, (int, np.integer) if integer else numbers.Real)
            and not isinstance(value, bool) and -math.inf < value < math.inf
            and (low < value if open_low else low <= value) and value <= high):
        return
    if high < math.inf:
        bounds = f" in {'(' if open_low else '['}{low}, {high}]"
    else:
        bounds = f" {'>' if open_low else '>='} {low}" if low > -math.inf else ""
    kind = "an integer" if integer else "a real number"
    raise ConfigurationError(f"{name} must be {kind}{bounds}, got {value!r}")


@dataclass(frozen=True)
class SensorGeometry:
    width: int
    height: int

    def __post_init__(self):
        # Up to 65536: x and y are uint16, in a stream and in an EVT1 record.
        check_number("geometry width", self.width, integer=True, low=8, high=65536)
        check_number("geometry height", self.height, integer=True, low=8, high=65536)
        # As Python ints: numpy sides such as uint16 overflow in `pixels`.
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))

    @property
    def pixels(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class EventStream:
    """Column-oriented events in file/time order: a recording or a partition.

    `t_star` holds the normalized timestamps (t - t0)/(tN - t0) once
    `normalize_timestamps` has been applied to a partition, else None;
    `empty_stream`'s is the empty array, the normalized timestamps of no events.
    `h_flip` and `v_flip` say whether `apply_augmentation` has mirrored x
    or y, so that ground truth can be mirrored to match.
    """

    t: np.ndarray  # uint64, microseconds
    x: np.ndarray  # uint16
    y: np.ndarray  # uint16
    p: np.ndarray  # int8, +1/-1
    geometry: SensorGeometry
    t_star: np.ndarray | None = None
    h_flip: bool = False
    v_flip: bool = False

    def __len__(self) -> int:
        return len(self.t)

    @property
    def duration_us(self) -> int:
        return int(self.t[-1]) - int(self.t[0]) if len(self.t) else 0


def empty_stream(geometry: SensorGeometry) -> EventStream:
    return EventStream(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint16),
                       np.zeros(0, dtype=np.uint16), np.zeros(0, dtype=np.int8), geometry,
                       t_star=np.zeros(0))


def make_stream(t, x, y, p, geometry: SensorGeometry) -> EventStream:
    """Build a validated stream from integer array-likes (t in microseconds);
    values are checked before the cast, so none wraps or truncates into range."""
    t, x, y, p = _checked_columns(t, x, y, p, geometry)
    return EventStream(np.asarray(t, dtype=np.uint64), np.asarray(x, dtype=np.uint16),
                       np.asarray(y, dtype=np.uint16), np.asarray(p, dtype=np.int8), geometry)


def _checked_columns(t, x, y, p, geometry: SensorGeometry) -> list[np.ndarray]:
    """The columns as arrays, once they pass the rules of a stream's columns:
    equal lengths, integers, t >= 0, x and y on the sensor, p +1 or -1."""
    cols = t, x, y, p = [np.asarray(c) for c in (t, x, y, p)]
    if not (len(t) == len(x) == len(y) == len(p)):
        raise ValueError("column lengths differ")
    if len(t):
        if not all(np.issubdtype(c.dtype, np.integer) for c in cols):
            raise ValueError(f"columns must hold integers, got {[c.dtype.name for c in cols]}")
        if t.min() < 0:
            raise ValueError("timestamps must be non-negative")
        if (x.min() < 0 or x.max() >= geometry.width
                or y.min() < 0 or y.max() >= geometry.height):
            raise EventBoundsError("event coordinates outside geometry")
        # Not np.isin: its temporaries take 12 bytes per int8 event. The abs
        # of int8 -128 wraps to -128, so it fails too.
        if not (np.abs(p) == 1).all():
            raise ValueError("polarity must be +1 or -1")
    return cols


def _first_decrease(t: np.ndarray) -> int | None:
    """Index of the first timestamp below the one before it, if any."""
    back = np.flatnonzero(t[1:] < t[:-1])  # not np.diff: uint64 wraps around
    return int(back[0]) + 1 if back.size else None


def parse_text_events(data: bytes | str, geometry: SensorGeometry) -> EventStream:
    """Parse non-decreasing `t_seconds x y p` lines (p in {0,1}); '#' lines are comments."""
    if isinstance(data, bytes):
        # A non-ASCII byte becomes U+FFFD and fails to parse as a field.
        data = data.decode("ascii", errors="replace")
    ts, xs, ys, ps = [], [], [], []
    for lineno, line in enumerate(io.StringIO(data), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise EventParseError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        try:
            t_sec = float(fields[0])
            x, y, p = int(fields[1]), int(fields[2]), int(fields[3])
        except ValueError as e:
            raise EventParseError(f"line {lineno}: {e}") from None
        if not 0 <= t_sec <= _MAX_T_SECONDS:  # also rejects NaN
            raise EventParseError(f"line {lineno}: timestamp {fields[0]} out of range")
        if p not in (0, 1):
            raise EventParseError(f"line {lineno}: polarity must be 0 or 1, got {p}")
        if not (0 <= x < geometry.width and 0 <= y < geometry.height):
            raise EventBoundsError(
                f"line {lineno}: ({x},{y}) outside {geometry.width}x{geometry.height}")
        t_us = round(t_sec * US_PER_SECOND)
        if ts and t_us < ts[-1]:
            raise EventParseError(f"line {lineno}: timestamp {fields[0]} decreases")
        ts.append(t_us)
        xs.append(x)
        ys.append(y)
        ps.append(1 if p == 1 else -1)
    # Microseconds reach 2**64 - 1, past what a list infers as int64.
    return make_stream(np.array(ts, dtype=np.uint64), xs, ys, ps, geometry)


# EVT1 binary format (little-endian):
#   magic 'EVT1', u32 width, u32 height, u64 count,
#   count * {u64 t_us, u16 x, u16 y, u8 p(0/1), u8 pad=0}
_EVT1_MAGIC = b"EVT1"
_EVT1_HEADER = np.dtype([("width", "<u4"), ("height", "<u4"), ("count", "<u8")])
_EVT1_RECORD = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"),
                         ("p", "u1"), ("pad", "u1")])


def write_binary_events(path, geometry: SensorGeometry, stream: EventStream) -> None:
    """Write only what `read_binary_events` returns unchanged. The header's
    `geometry` must be the stream's own (else EventFormatError), its columns
    must pass `make_stream`'s rules (else its errors) and its timestamps must
    not decrease (else EventFormatError), all checked before `path` is
    opened, so a file there keeps its bytes."""
    if geometry != stream.geometry:
        raise EventFormatError(
            f"geometry mismatch: header {geometry}, stream has {stream.geometry}")
    t, x, y, p = _checked_columns(stream.t, stream.x, stream.y, stream.p, geometry)
    if (i := _first_decrease(t)) is not None:
        raise EventFormatError(f"record {i}: timestamp decreases")
    records = np.zeros(len(t), dtype=_EVT1_RECORD)
    records["t"] = t
    records["x"] = x
    records["y"] = y
    records["p"] = p > 0
    header = np.zeros(1, dtype=_EVT1_HEADER)
    header["width"] = geometry.width
    header["height"] = geometry.height
    header["count"] = len(stream)
    with open(path, "wb") as f:
        f.write(_EVT1_MAGIC)
        f.write(header.tobytes())
        f.write(records)


def read_binary_events(path, geometry: SensorGeometry) -> EventStream:
    """Read a whole EVT1 file, holding its bytes and one copy of the columns
    at once: the records are checked where they lie in the bytes read, and
    t, x, y and p are copied out of them as contiguous columns."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _EVT1_MAGIC:
        raise EventFormatError(f"bad magic {raw[:4]!r}, expected {_EVT1_MAGIC!r}")
    if len(raw) < 4 + _EVT1_HEADER.itemsize:
        raise EventFormatError("truncated header")
    header = np.frombuffer(raw, dtype=_EVT1_HEADER, count=1, offset=4)[0]
    try:
        file_geometry = SensorGeometry(int(header["width"]), int(header["height"]))
    except ValueError as e:
        raise EventFormatError(f"header: {e}") from None
    if geometry != file_geometry:
        raise EventFormatError(f"geometry mismatch: file has {file_geometry}, expected {geometry}")
    count = int(header["count"])
    start = 4 + _EVT1_HEADER.itemsize
    if len(raw) - start != count * _EVT1_RECORD.itemsize:
        raise EventFormatError(f"count mismatch: header says {count} records, "
                               f"body holds {len(raw) - start} bytes")
    records = np.frombuffer(raw, dtype=_EVT1_RECORD, count=count, offset=start)
    if (records["p"] > 1).any():
        raise EventFormatError("polarity byte must be 0 or 1")
    if records["pad"].any():
        raise EventFormatError("non-zero pad byte")
    t = records["t"]
    if (i := _first_decrease(t)) is not None:
        raise EventFormatError(f"record {i}: timestamp decreases")
    p = np.where(records["p"] > 0, np.int8(1), np.int8(-1))
    return make_stream(t.copy(), records["x"].copy(), records["y"].copy(),
                       p, file_geometry)


def events_per_pixel_count(geometry: SensorGeometry, density: float) -> int:
    """Partition size N from an events-per-pixel density."""
    check_number("density", density, low=0, open_low=True)
    n = density * geometry.pixels
    if not n < np.inf:
        raise ConfigurationError(f"density x pixels must be finite, got density {density!r}")
    n = int(round(n))
    if n < 2:
        raise ConfigurationError(
            f"N={n} events per partition; timestamp normalization needs at least 2")
    return n


def partition_by_count(stream: EventStream, n: int) -> list[EventStream]:
    """Consecutive disjoint partitions of exactly n events; remainder dropped."""
    check_number("partition size", n, integer=True, low=2)
    if (i := _first_decrease(stream.t)) is not None:
        raise ValueError(f"event {i}: timestamp decreases")
    return [replace(stream, t=stream.t[i:i + n], x=stream.x[i:i + n], y=stream.y[i:i + n],
                    p=stream.p[i:i + n], t_star=None)
            for i in range(0, len(stream) - n + 1, n)]


def normalize_timestamps(partition: EventStream) -> EventStream:
    """Attach t_star = (t - t0)/(tN - t0); all zeros if the span is empty."""
    if len(partition) == 0:
        raise ValueError("cannot normalize an empty partition")
    t = partition.t
    if (i := _first_decrease(t)) is not None:
        raise ValueError(f"event {i}: timestamp decreases")
    # Offsets in integers: float64 loses single microseconds beyond 2**53.
    dt = (t - t[0]).astype(np.float64)
    t_star = np.zeros_like(dt) if dt[-1] == 0 else dt / dt[-1]
    return replace(partition, t_star=t_star)


@dataclass(frozen=True)
class AugmentConfig:
    h_flip_prob: float = 0.5
    v_flip_prob: float = 0.5
    polarity_flip_prob: float = 0.5
    pause_prob: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            check_number(f.name, getattr(self, f.name), low=0, high=1)


def apply_augmentation(partition: EventStream, *, h_flip: bool = False, v_flip: bool = False,
                       polarity_flip: bool = False) -> EventStream:
    """Mirror x, y or the polarities; the partition records its mirror flips."""
    x, y, p = partition.x, partition.y, partition.p
    if h_flip:
        x = (partition.geometry.width - 1 - x.astype(np.int64)).astype(np.uint16)
    if v_flip:
        y = (partition.geometry.height - 1 - y.astype(np.int64)).astype(np.uint16)
    if polarity_flip:
        p = (-p.astype(np.int64)).astype(np.int8)
    return replace(partition, x=x, y=y, p=p, h_flip=partition.h_flip != h_flip,
                   v_flip=partition.v_flip != v_flip)
