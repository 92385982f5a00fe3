import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evssl import events as ev

from conftest import corrupted


GEOM = ev.SensorGeometry(128, 128)


@st.composite
def event_streams(draw, max_events=200):
    n = draw(st.integers(0, max_events))
    width = draw(st.sampled_from([8, 32, 128]))
    height = draw(st.sampled_from([8, 64, 128]))
    ts = sorted(draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    geometry = ev.SensorGeometry(width, height)
    return ev.make_stream(
        np.array(ts, dtype=np.uint64),
        rng.integers(0, width, size=n).astype(np.uint16),
        rng.integers(0, height, size=n).astype(np.uint16),
        rng.choice(np.array([-1, 1], dtype=np.int8), size=n),
        geometry)


# ---------------------------------------------------------------------------
# text parsing


def _columns(stream, i):
    return int(stream.t[i]), int(stream.x[i]), int(stream.y[i]), int(stream.p[i])


def test_parse_simple_line():
    stream = ev.parse_text_events("0.000000 5 7 1\n", GEOM)
    assert _columns(stream, 0) == (0, 5, 7, 1)


def test_parse_seconds_to_microseconds_and_negative_polarity():
    stream = ev.parse_text_events("1.5 0 0 0\n", GEOM)
    assert _columns(stream, 0) == (1_500_000, 0, 0, -1)


def test_parse_out_of_bounds():
    with pytest.raises(ev.EventBoundsError):
        ev.parse_text_events("0.1 999 0 1\n", GEOM)


def test_parse_comments_and_blank_lines():
    text = "# header\n\n0.0 1 2 1\n  \n0.5 3 4 0\n"
    stream = ev.parse_text_events(text, GEOM)
    assert len(stream) == 2
    assert _columns(stream, 1) == (500_000, 3, 4, -1)


def test_parse_error_reports_line_number():
    with pytest.raises(ev.EventParseError, match="line 2"):
        ev.parse_text_events("0.0 1 2 1\n0.1 apple 2 1\n", GEOM)


def test_parse_rejects_bad_polarity():
    with pytest.raises(ev.EventParseError):
        ev.parse_text_events("0.0 1 2 7\n", GEOM)


def test_parse_rejects_decreasing_timestamp():
    with pytest.raises(ev.EventParseError, match="line 2: timestamp 0.1 decreases"):
        ev.parse_text_events("0.5 1 1 1\n0.1 2 2 0\n", GEOM)


def test_parse_accepts_bytes():
    stream = ev.parse_text_events(b"0.25 2 3 1\n", GEOM)
    assert _columns(stream, 0) == (250_000, 2, 3, 1)


def test_parse_rejects_non_ascii_bytes_in_fields_only():
    with pytest.raises(ev.EventParseError, match="line 2: invalid literal"):
        ev.parse_text_events(b"0.0 1 1 1\n0.25 2 3 1\xff\n", GEOM)
    assert len(ev.parse_text_events(b"# caf\xe9\n0.25 2 3 1\n", GEOM)) == 1


@pytest.mark.parametrize("t", ["nan", "inf", "-0.5", "1e30"])
def test_parse_rejects_timestamp_outside_uint64_microseconds(t):
    with pytest.raises(ev.EventParseError, match=f"line 1: timestamp {t} out of range"):
        ev.parse_text_events(f"{t} 2 3 1\n", GEOM)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_corrupt_bytes_raise_only_typed_errors(data):
    raw = b"# t x y p\n0.000125 3 4 1\n0.5 127 0 0\n1.25 5 6 1\n"
    try:
        ev.parse_text_events(corrupted(raw, data), GEOM)
    except (ev.EventParseError, ev.EventBoundsError):
        pass


# ---------------------------------------------------------------------------
# EVT1 binary round trip


def test_binary_round_trip_small(tmp_path):
    stream = ev.parse_text_events("0.0 1 2 1\n0.5 3 4 0\n", GEOM)
    path = tmp_path / "events.evt1"
    ev.write_binary_events(path, GEOM, stream)
    back = ev.read_binary_events(path)
    assert back.geometry == GEOM
    assert np.array_equal(back.t, stream.t)
    assert np.array_equal(back.x, stream.x)
    assert np.array_equal(back.y, stream.y)
    assert np.array_equal(back.p, stream.p)


def test_binary_empty_stream(tmp_path):
    path = tmp_path / "empty.evt1"
    ev.write_binary_events(path, GEOM, ev.empty_stream(GEOM))
    assert path.stat().st_size == 4 + 16  # magic + header only
    assert len(ev.read_binary_events(path)) == 0


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.evt1"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ev.EventFormatError, match="magic"):
        ev.read_binary_events(path)


def test_binary_truncated_record(tmp_path):
    stream = ev.parse_text_events("0.0 1 2 1\n", GEOM)
    path = tmp_path / "trunc.evt1"
    ev.write_binary_events(path, GEOM, stream)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(ev.EventFormatError, match="count mismatch"):
        ev.read_binary_events(path)


def test_binary_geometry_check(tmp_path):
    path = tmp_path / "geom.evt1"
    ev.write_binary_events(path, GEOM, ev.empty_stream(GEOM))
    with pytest.raises(ev.EventFormatError, match="geometry"):
        ev.read_binary_events(path, ev.SensorGeometry(64, 64))


def _corrupt_evt1(tmp_path, offset, value: bytes):
    """One-event 16x16 EVT1 file with `value` written `offset` bytes into
    its record (t at 0, x at 8, y at 10, polarity at 12, pad at 13)."""
    geometry = ev.SensorGeometry(16, 16)
    path = tmp_path / "one.evt1"
    ev.write_binary_events(path, geometry, ev.make_stream([0], [3], [4], [1], geometry))
    raw = bytearray(path.read_bytes())
    start = 4 + 16 + offset  # after magic and header
    raw[start:start + len(value)] = value
    path.write_bytes(bytes(raw))
    return path


def test_binary_rejects_out_of_sensor_coordinate(tmp_path):
    path = _corrupt_evt1(tmp_path, 8, (20).to_bytes(2, "little"))
    with pytest.raises(ev.EventBoundsError):
        ev.read_binary_events(path)


def test_binary_rejects_polarity_byte_above_one(tmp_path):
    path = _corrupt_evt1(tmp_path, 12, b"\x02")
    with pytest.raises(ev.EventFormatError, match="polarity"):
        ev.read_binary_events(path)


def test_binary_rejects_decreasing_timestamp(tmp_path):
    path = tmp_path / "unsorted.evt1"
    stream = ev.make_stream([50, 10, 40, 5], [1, 2, 3, 4], [1, 2, 3, 4], [1, -1, 1, -1], GEOM)
    ev.write_binary_events(path, GEOM, stream)
    with pytest.raises(ev.EventFormatError, match="record 1: timestamp decreases"):
        ev.read_binary_events(path)


def test_binary_rejects_non_zero_pad_byte(tmp_path):
    path = _corrupt_evt1(tmp_path, 13, b"\x01")
    with pytest.raises(ev.EventFormatError, match="pad"):
        ev.read_binary_events(path)


def test_binary_rejects_header_geometry_below_minimum(tmp_path):
    path = _corrupt_evt1(tmp_path, -16, (4).to_bytes(4, "little") * 2)
    with pytest.raises(ev.EventFormatError, match="header: geometry must be at least 8x8"):
        ev.read_binary_events(path)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_binary_corrupt_bytes_raise_only_typed_errors(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("evt") / "s.evt1"
    ev.write_binary_events(path, GEOM, ev.make_stream(
        [5, 9, 9, 70], [0, 127, 3, 64], [1, 2, 127, 0], [1, -1, -1, 1], GEOM))
    path.write_bytes(corrupted(path.read_bytes(), data))
    try:
        ev.read_binary_events(path)
    except (ev.EventFormatError, ev.EventBoundsError):
        pass


@settings(max_examples=50, deadline=None)
@given(stream=event_streams())
def test_binary_round_trip_property(stream, tmp_path_factory):
    path = tmp_path_factory.mktemp("evt") / "s.evt1"
    ev.write_binary_events(path, stream.geometry, stream)
    back = ev.read_binary_events(path)
    assert np.array_equal(back.t, stream.t)
    assert np.array_equal(back.x, stream.x)
    assert np.array_equal(back.y, stream.y)
    assert np.array_equal(back.p, stream.p)
    # write(read(write(x))) is byte-identical
    path2 = path.with_suffix(".roundtrip")
    ev.write_binary_events(path2, back.geometry, back)
    assert path.read_bytes() == path2.read_bytes()


# ---------------------------------------------------------------------------
# partition sizing


def test_events_per_pixel_count_reference_values():
    assert ev.events_per_pixel_count(ev.SensorGeometry(128, 128), 0.3) == 4915
    assert ev.events_per_pixel_count(ev.SensorGeometry(64, 64), 0.3) == 1229


def test_events_per_pixel_count_too_small():
    with pytest.raises(ev.ConfigurationError):
        ev.events_per_pixel_count(ev.SensorGeometry(8, 8), 0.01)


# 1e307 is finite, but 1e307 * 64 pixels overflows to infinity.
@pytest.mark.parametrize("density", [0.0, -0.3, np.nan, np.inf, -np.inf, 1e307])
def test_events_per_pixel_count_rejects_non_finite_or_non_positive_density(density):
    with pytest.raises(ev.ConfigurationError, match="finite and positive"):
        ev.events_per_pixel_count(ev.SensorGeometry(8, 8), density)


# Each of these values used to be cast into a storage type it does not fit:
# stored as another valid value, wrapped, truncated, or a bare OverflowError.
@pytest.mark.parametrize("column,value,error,match", [
    ("p", np.array([257]), ValueError, "polarity"),
    ("p", np.array([-255]), ValueError, "polarity"),
    ("t", np.array([-5]), ValueError, "non-negative"),
    ("x", np.array([65537]), ev.EventBoundsError, "outside"),
    ("x", np.array([2.9]), ValueError, "integers"),
    ("x", np.array([np.nan]), ValueError, "integers"),
    ("p", [257], ValueError, "polarity"),
    ("t", [-5], ValueError, "non-negative")])
def test_make_stream_rejects_values_its_columns_cannot_hold(column, value, error, match):
    columns = dict(t=np.array([0]), x=np.array([1]), y=np.array([1]), p=np.array([1]))
    columns[column] = value
    with pytest.raises(error, match=match):
        ev.make_stream(**columns, geometry=ev.SensorGeometry(16, 16))


def test_geometry_minimum_size():
    with pytest.raises(ValueError):
        ev.SensorGeometry(2, 2)


def _stream_of(n, geometry=GEOM):
    return ev.make_stream(
        np.arange(n, dtype=np.uint64) * 10,
        np.zeros(n, dtype=np.uint16),
        np.zeros(n, dtype=np.uint16),
        np.ones(n, dtype=np.int8),
        geometry)


@pytest.mark.parametrize("n_events,n,expected_parts", [(10, 4, 2), (4, 4, 1), (3, 4, 0)])
def test_partition_by_count_sizes(n_events, n, expected_parts):
    parts = ev.partition_by_count(_stream_of(n_events), n)
    assert len(parts) == expected_parts
    assert all(len(p) == n for p in parts)


def test_partition_rejects_decreasing_timestamps():
    stream = ev.make_stream([50, 60, 10, 20], [1, 2, 3, 4], [1, 2, 3, 4], [1, -1, 1, -1], GEOM)
    with pytest.raises(ValueError, match="event 2: timestamp decreases"):
        ev.partition_by_count(stream, 2)


def test_partitions_are_disjoint_and_ordered():
    parts = ev.partition_by_count(_stream_of(12), 4)
    seen = np.concatenate([p.t for p in parts])
    assert np.array_equal(seen, np.arange(12, dtype=np.uint64) * 10)


# ---------------------------------------------------------------------------
# timestamp normalization


def test_normalize_midpoint():
    part = ev.EventStream(np.array([0, 50, 100], dtype=np.uint64),
                             np.zeros(3, dtype=np.uint16), np.zeros(3, dtype=np.uint16),
                             np.ones(3, dtype=np.int8), GEOM)
    out = ev.normalize_timestamps(part)
    assert np.allclose(out.t_star, [0.0, 0.5, 1.0])


def test_normalize_degenerate_all_equal():
    part = ev.EventStream(np.array([7, 7, 7], dtype=np.uint64),
                             np.zeros(3, dtype=np.uint16), np.zeros(3, dtype=np.uint16),
                             np.ones(3, dtype=np.int8), GEOM)
    out = ev.normalize_timestamps(part)
    assert np.array_equal(out.t_star, [0.0, 0.0, 0.0])


def test_normalize_two_events():
    part = ev.EventStream(np.array([10, 40], dtype=np.uint64),
                             np.zeros(2, dtype=np.uint16), np.zeros(2, dtype=np.uint16),
                             np.ones(2, dtype=np.int8), GEOM)
    out = ev.normalize_timestamps(part)
    assert np.array_equal(out.t_star, [0.0, 1.0])


def test_normalize_rejects_unsorted():
    part = ev.EventStream(np.array([40, 10], dtype=np.uint64),
                             np.zeros(2, dtype=np.uint16), np.zeros(2, dtype=np.uint16),
                             np.ones(2, dtype=np.int8), GEOM)
    with pytest.raises(ValueError):
        ev.normalize_timestamps(part)


def test_normalize_resolves_microseconds_beyond_float_precision():
    # EVT1 holds any uint64 timestamp; at t0 = 2**60 us float64 steps are
    # 256 us apart, so offsets from t0 must be taken before converting.
    t0 = 2**60
    part = ev.EventStream(np.array([t0, t0 + 100, t0 + 200, t0 + 300], dtype=np.uint64),
                          np.zeros(4, dtype=np.uint16), np.zeros(4, dtype=np.uint16),
                          np.ones(4, dtype=np.int8), GEOM)
    out = ev.normalize_timestamps(part)
    assert np.array_equal(out.t_star, np.array([0.0, 100.0, 200.0, 300.0]) / 300.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=50))
def test_normalize_range_and_monotonicity(ts):
    ts = sorted(ts)
    n = len(ts)
    part = ev.EventStream(np.array(ts, dtype=np.uint64),
                             np.zeros(n, dtype=np.uint16), np.zeros(n, dtype=np.uint16),
                             np.ones(n, dtype=np.int8), GEOM)
    out = ev.normalize_timestamps(part)
    assert np.all(out.t_star >= 0.0) and np.all(out.t_star <= 1.0)
    assert np.all(np.diff(out.t_star) >= 0.0)
    if ts[0] != ts[-1]:
        assert out.t_star[0] == 0.0 and out.t_star[-1] == 1.0


# ---------------------------------------------------------------------------
# augmentation


def _simple_partition():
    return ev.EventStream(np.array([0, 10], dtype=np.uint64),
                             np.array([0, 5], dtype=np.uint16),
                             np.array([3, 7], dtype=np.uint16),
                             np.array([1, -1], dtype=np.int8), GEOM)


def test_h_flip_maps_edges():
    part = _simple_partition()
    out = ev.apply_augmentation(part, ev.AugmentationRecord(h_flip=True))
    assert out.x[0] == 127 and out.x[1] == 122
    assert np.array_equal(out.y, part.y)


def test_polarity_flip():
    out = ev.apply_augmentation(_simple_partition(), ev.AugmentationRecord(polarity_flip=True))
    assert np.array_equal(out.p, [-1, 1])


def test_zero_probabilities_are_identity():
    rng = np.random.default_rng(0)
    cfg = ev.AugmentConfig(0.0, 0.0, 0.0, 0.0)
    record = ev.draw_augmentation(rng, cfg)
    out = ev.apply_augmentation(_simple_partition(), record)
    assert record == ev.AugmentationRecord()
    assert np.array_equal(out.x, _simple_partition().x)
    assert np.array_equal(out.p, _simple_partition().p)


def test_double_flip_is_identity():
    part = _simple_partition()
    for record in (ev.AugmentationRecord(h_flip=True),
                   ev.AugmentationRecord(v_flip=True),
                   ev.AugmentationRecord(polarity_flip=True)):
        twice = ev.apply_augmentation(ev.apply_augmentation(part, record), record)
        assert np.array_equal(twice.x, part.x)
        assert np.array_equal(twice.y, part.y)
        assert np.array_equal(twice.p, part.p)


def test_probability_one_always_fires():
    rng = np.random.default_rng(1)
    cfg = ev.AugmentConfig(1.0, 1.0, 1.0, 1.0)
    record = ev.draw_augmentation(rng, cfg)
    assert record.h_flip and record.v_flip and record.polarity_flip and record.pause


def test_augmentation_preserves_sorting():
    rng = np.random.default_rng(2)
    cfg = ev.AugmentConfig(1.0, 1.0, 1.0, 0.0)
    out = ev.apply_augmentation(_simple_partition(), ev.draw_augmentation(rng, cfg))
    assert np.all(np.diff(out.t.astype(np.int64)) >= 0)


def test_augment_config_validates_probabilities():
    with pytest.raises(ValueError):
        ev.AugmentConfig(h_flip_prob=1.5)
