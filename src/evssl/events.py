"""Event stream I/O, partitioning, timestamp normalization, augmentation.

Events are kept in columnar numpy arrays (timestamps in integer
microseconds) so downstream kernels can stay vectorized. One type,
`EventStream`, holds both a whole recording and a fixed-count partition
of it; a normalized partition also carries its `t_star` column. All
types are immutable values; every operation returns new arrays.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

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
    """Invalid derived configuration value."""


@dataclass(frozen=True)
class SensorGeometry:
    width: int
    height: int

    def __post_init__(self):
        if self.width < 8 or self.height < 8:
            raise ValueError(f"geometry must be at least 8x8, got {self.width}x{self.height}")

    @property
    def pixels(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class EventStream:
    """Column-oriented events in file/time order: a recording or a partition.

    `t_star` holds the normalized timestamps (t - t0)/(tN - t0) once
    `normalize_timestamps` has been applied to a partition, else None;
    `empty_stream`'s is the empty array, the normalized timestamps of no events.
    """

    t: np.ndarray  # uint64, microseconds
    x: np.ndarray  # uint16
    y: np.ndarray  # uint16
    p: np.ndarray  # int8, +1/-1
    geometry: SensorGeometry
    t_star: np.ndarray | None = None

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
        if not np.isin(p, (-1, 1)).all():
            raise ValueError("polarity must be +1 or -1")
    return EventStream(np.asarray(t, dtype=np.uint64), np.asarray(x, dtype=np.uint16),
                       np.asarray(y, dtype=np.uint16), np.asarray(p, dtype=np.int8), geometry)


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
    records = np.zeros(len(stream), dtype=_EVT1_RECORD)
    records["t"] = stream.t
    records["x"] = stream.x
    records["y"] = stream.y
    records["p"] = (stream.p > 0).astype(np.uint8)
    header = np.zeros(1, dtype=_EVT1_HEADER)
    header["width"] = geometry.width
    header["height"] = geometry.height
    header["count"] = len(stream)
    with open(path, "wb") as f:
        f.write(_EVT1_MAGIC)
        f.write(header.tobytes())
        f.write(records.tobytes())


def read_binary_events(path, geometry: SensorGeometry | None = None) -> EventStream:
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
    if geometry is not None and geometry != file_geometry:
        raise EventFormatError(f"geometry mismatch: file has {file_geometry}, expected {geometry}")
    count = int(header["count"])
    body = raw[4 + _EVT1_HEADER.itemsize:]
    if len(body) != count * _EVT1_RECORD.itemsize:
        raise EventFormatError(
            f"count mismatch: header says {count} records, body holds {len(body)} bytes")
    records = np.frombuffer(body, dtype=_EVT1_RECORD)
    if (records["p"] > 1).any():
        raise EventFormatError("polarity byte must be 0 or 1")
    if records["pad"].any():
        raise EventFormatError("non-zero pad byte")
    t = records["t"]
    back = np.flatnonzero(t[1:] < t[:-1])  # not np.diff: uint64 wraps around
    if back.size:
        raise EventFormatError(f"record {back[0] + 1}: timestamp decreases")
    p = np.where(records["p"] > 0, 1, -1).astype(np.int8)
    return make_stream(t.copy(), records["x"].copy(), records["y"].copy(),
                       p, file_geometry)


def events_per_pixel_count(geometry: SensorGeometry, density: float) -> int:
    """Partition size N from an events-per-pixel density."""
    n = density * geometry.pixels  # chained comparison: NaN, infinity and overflow fail
    if not 0 < n < np.inf:
        raise ConfigurationError(f"density x pixels must be finite and positive, got {density}")
    n = int(round(n))
    if n < 2:
        raise ConfigurationError(
            f"N={n} events per partition; timestamp normalization needs at least 2")
    return n


def partition_by_count(stream: EventStream, n: int) -> list[EventStream]:
    """Consecutive disjoint partitions of exactly n events; remainder dropped."""
    if n < 2:
        raise ConfigurationError(f"partition size must be >= 2, got {n}")
    back = np.flatnonzero(stream.t[1:] < stream.t[:-1])
    if back.size:
        raise ValueError(f"event {back[0] + 1}: timestamp decreases")
    return [EventStream(stream.t[i:i + n], stream.x[i:i + n], stream.y[i:i + n],
                        stream.p[i:i + n], stream.geometry)
            for i in range(0, len(stream) - n + 1, n)]


def normalize_timestamps(partition: EventStream) -> EventStream:
    """Attach t_star = (t - t0)/(tN - t0); all zeros if the span is empty."""
    if len(partition) == 0:
        raise ValueError("cannot normalize an empty partition")
    t = partition.t
    if np.any(t[1:] < t[:-1]):  # not np.diff: uint64 wraps around
        raise ValueError("partition timestamps must be non-decreasing")
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
        for name in ("h_flip_prob", "v_flip_prob", "polarity_flip_prob", "pause_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0,1]")


@dataclass(frozen=True)
class AugmentationRecord:
    h_flip: bool = False
    v_flip: bool = False
    polarity_flip: bool = False
    pause: bool = False


def draw_augmentation(rng: np.random.Generator, config: AugmentConfig) -> AugmentationRecord:
    return AugmentationRecord(
        h_flip=bool(rng.random() < config.h_flip_prob),
        v_flip=bool(rng.random() < config.v_flip_prob),
        polarity_flip=bool(rng.random() < config.polarity_flip_prob),
        pause=bool(rng.random() < config.pause_prob),
    )


def apply_augmentation(partition: EventStream, record: AugmentationRecord) -> EventStream:
    x, y, p = partition.x, partition.y, partition.p
    if record.h_flip:
        x = (partition.geometry.width - 1 - x.astype(np.int64)).astype(np.uint16)
    if record.v_flip:
        y = (partition.geometry.height - 1 - y.astype(np.int64)).astype(np.uint16)
    if record.polarity_flip:
        p = (-p.astype(np.int64)).astype(np.int8)
    # The pause flag is carried in the record only; the trainer inserts an
    # `empty_stream` as one more partition, the events themselves are untouched.
    return replace(partition, x=x, y=y, p=p)
