import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evssl import events as ev
from evssl import synth

from conftest import corrupted, stream_sha1


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
    back = ev.read_binary_events(path, GEOM)
    assert back.geometry == GEOM
    assert np.array_equal(back.t, stream.t)
    assert np.array_equal(back.x, stream.x)
    assert np.array_equal(back.y, stream.y)
    assert np.array_equal(back.p, stream.p)


def test_binary_empty_stream(tmp_path):
    path = tmp_path / "empty.evt1"
    ev.write_binary_events(path, GEOM, ev.empty_stream(GEOM))
    assert path.stat().st_size == 4 + 16  # magic + header only
    assert len(ev.read_binary_events(path, GEOM)) == 0


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.evt1"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ev.EventFormatError, match="magic"):
        ev.read_binary_events(path, GEOM)


def test_binary_truncated_record(tmp_path):
    stream = ev.parse_text_events("0.0 1 2 1\n", GEOM)
    path = tmp_path / "trunc.evt1"
    ev.write_binary_events(path, GEOM, stream)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(ev.EventFormatError, match="count mismatch"):
        ev.read_binary_events(path, GEOM)


def test_binary_geometry_check(tmp_path):
    path = tmp_path / "geom.evt1"
    ev.write_binary_events(path, GEOM, ev.empty_stream(GEOM))
    with pytest.raises(ev.EventFormatError, match="geometry"):
        ev.read_binary_events(path, ev.SensorGeometry(64, 64))


@pytest.mark.parametrize("stream_side,header_side", [(8, 16), (16, 8)])
def test_binary_write_rejects_header_geometry_of_another_stream(tmp_path, stream_side,
                                                                header_side):
    # 8x8 written as 16x16 would read back silently as a 16x16 stream.
    geometry = ev.SensorGeometry(stream_side, stream_side)
    stream = ev.make_stream([0, 5], [1, 7], [2, 7], [1, -1], geometry)
    path = tmp_path / "kept.evt1"
    path.write_bytes(b"existing bytes")
    header = ev.SensorGeometry(header_side, header_side)
    with pytest.raises(ev.EventFormatError, match="geometry mismatch") as info:
        ev.write_binary_events(path, header, stream)
    assert str(header) in str(info.value) and str(geometry) in str(info.value)
    assert path.read_bytes() == b"existing bytes"


# Each stream, built directly rather than by make_stream, would read back
# altered (p = 0 as -1) or be refused by the reader.
@pytest.mark.parametrize("column,values,error,match", [
    ("p", [1, 0], ValueError, "polarity"),
    ("p", [2, -1], ValueError, "polarity"),
    ("x", [3, 9], ev.EventBoundsError, "outside"),
    ("y", [8, 3], ev.EventBoundsError, "outside"),
    ("t", [7, 6], ev.EventFormatError, "record 1: timestamp decreases")])
def test_binary_write_rejects_streams_its_reader_alters_or_rejects(tmp_path, column, values,
                                                                  error, match):
    geometry = ev.SensorGeometry(8, 8)
    columns = dict(t=np.array([5, 6], dtype=np.uint64), x=np.array([1, 2], dtype=np.uint16),
                   y=np.array([3, 4], dtype=np.uint16), p=np.array([1, -1], dtype=np.int8))
    columns[column] = np.array(values, dtype=columns[column].dtype)
    path = tmp_path / "kept.evt1"
    path.write_bytes(b"existing bytes")
    with pytest.raises(error, match=match):
        ev.write_binary_events(path, geometry, ev.EventStream(**columns, geometry=geometry))
    assert path.read_bytes() == b"existing bytes"


def test_binary_layout_and_read_back_columns_are_pinned(tmp_path):
    # The digest was recorded from a writer that copied its records to bytes
    # first, so it pins the EVT1 layout. The columns are copies, not field
    # views of the record buffer: views left RSS where copies left it but
    # took ~10x the minor page faults in stream_infer, and raised its step time.
    geometry = ev.SensorGeometry(64, 48)
    i = np.arange(1000)
    stream = ev.make_stream(i * i // 3, i * 7 % 64, i * 5 % 48, np.where(i % 3, 1, -1), geometry)
    path = tmp_path / "pinned.evt1"
    ev.write_binary_events(path, geometry, stream)
    assert (hashlib.sha1(path.read_bytes()).hexdigest()
            == "ee16619520426aba3a43c017b295634d27b30608")
    back = ev.read_binary_events(path, geometry)
    for name, dtype in zip("txyp", (np.uint64, np.uint16, np.uint16, np.int8)):
        col = getattr(back, name)
        assert col.dtype == dtype and col.flags.c_contiguous and col.flags.owndata
        assert np.array_equal(col, getattr(stream, name))


ONE_EVENT_GEOM = ev.SensorGeometry(16, 16)


def _corrupt_evt1(tmp_path, offset, value: bytes):
    """One-event EVT1 file of ONE_EVENT_GEOM with `value` written `offset`
    bytes into its record (t at 0, x at 8, y at 10, polarity at 12, pad at 13)."""
    path = tmp_path / "one.evt1"
    ev.write_binary_events(path, ONE_EVENT_GEOM,
                           ev.make_stream([0], [3], [4], [1], ONE_EVENT_GEOM))
    raw = bytearray(path.read_bytes())
    start = 4 + 16 + offset  # after magic and header
    raw[start:start + len(value)] = value
    path.write_bytes(bytes(raw))
    return path


def test_binary_rejects_out_of_sensor_coordinate(tmp_path):
    path = _corrupt_evt1(tmp_path, 8, (20).to_bytes(2, "little"))
    with pytest.raises(ev.EventBoundsError):
        ev.read_binary_events(path, ONE_EVENT_GEOM)


def test_binary_rejects_polarity_byte_above_one(tmp_path):
    path = _corrupt_evt1(tmp_path, 12, b"\x02")
    with pytest.raises(ev.EventFormatError, match="polarity"):
        ev.read_binary_events(path, ONE_EVENT_GEOM)


def test_binary_rejects_decreasing_timestamp(tmp_path):
    path = tmp_path / "unsorted.evt1"
    stream = ev.make_stream([5, 10, 40, 50], [1, 2, 3, 4], [1, 2, 3, 4], [1, -1, 1, -1], GEOM)
    ev.write_binary_events(path, GEOM, stream)
    raw = bytearray(path.read_bytes())
    raw[20:28] = (50).to_bytes(8, "little")  # record 0's t, past record 1's
    path.write_bytes(bytes(raw))
    with pytest.raises(ev.EventFormatError, match="record 1: timestamp decreases"):
        ev.read_binary_events(path, GEOM)


def test_binary_rejects_non_zero_pad_byte(tmp_path):
    path = _corrupt_evt1(tmp_path, 13, b"\x01")
    with pytest.raises(ev.EventFormatError, match="pad"):
        ev.read_binary_events(path, ONE_EVENT_GEOM)


def test_binary_rejects_header_geometry_below_minimum(tmp_path):
    path = _corrupt_evt1(tmp_path, -16, (4).to_bytes(4, "little") * 2)
    with pytest.raises(ev.EventFormatError,
                       match=r"header: geometry width must be an integer in \[8, 65536\]"):
        ev.read_binary_events(path, ONE_EVENT_GEOM)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_binary_corrupt_bytes_raise_only_typed_errors(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("evt") / "s.evt1"
    ev.write_binary_events(path, GEOM, ev.make_stream(
        [5, 9, 9, 70], [0, 127, 3, 64], [1, 2, 127, 0], [1, -1, -1, 1], GEOM))
    path.write_bytes(corrupted(path.read_bytes(), data))
    try:
        ev.read_binary_events(path, GEOM)
    except (ev.EventFormatError, ev.EventBoundsError):
        pass


@settings(max_examples=50, deadline=None)
@given(stream=event_streams())
def test_binary_round_trip_property(stream, tmp_path_factory):
    path = tmp_path_factory.mktemp("evt") / "s.evt1"
    ev.write_binary_events(path, stream.geometry, stream)
    back = ev.read_binary_events(path, stream.geometry)
    assert np.array_equal(back.t, stream.t)
    assert np.array_equal(back.x, stream.x)
    assert np.array_equal(back.y, stream.y)
    assert np.array_equal(back.p, stream.p)
    # write(read(write(x))) is byte-identical
    path2 = path.with_suffix(".roundtrip")
    ev.write_binary_events(path2, back.geometry, back)
    assert path.read_bytes() == path2.read_bytes()


# ---------------------------------------------------------------------------
# per-event memory of the event path: synthesis, EVT1 write and read


@pytest.fixture(scope="module")
def dense_recording(tmp_path_factory):
    """A dense 64x64 checkerboard stream (168,896 events) and its EVT1 file."""
    geometry = ev.SensorGeometry(64, 64)
    scene = synth.SyntheticScene(geometry, synth.checkerboard(geometry, 16), (32.0, 40.0),
                                 contrast=0.125, duration=1.2)
    stream = synth.generate_events(scene, 1e-3)
    path = tmp_path_factory.mktemp("dense") / "dense.evt1"
    ev.write_binary_events(path, geometry, stream)
    return scene, stream, path


def test_dense_recording_stream_is_pinned(dense_recording):
    # The digest of the stream as the per-step simulator emitted it; the run
    # crosses 38 of the 32-step emission blocks.
    _, stream, _ = dense_recording
    assert len(stream) == 168_896
    assert stream_sha1(stream) == "12fa48239295e3af41acc2bb735f82f3d9e16b64"


def _peak_bytes_per_event(call, n_events: int) -> float:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / n_events


# Measured peaks, bytes per event: synthesis 35.3 (38.3 when its per-block
# firing records were still held at the final sort, 34.7 when each step
# wrote its own events, 68.0 when every step's events were kept in
# float64/int64 lists and concatenated), write 15.0
# (28.0 with a bytes copy of the records), read 29.0 (53.0 with a copy of
# the body, an int64 polarity temporary and np.isin's temporaries). Each
# bound adds ~15% to the measured peak.
@pytest.mark.parametrize("stage,bound", [("generate", 40.0), ("write", 18.0), ("read", 34.0)])
def test_event_path_peak_bytes_per_event(dense_recording, tmp_path, stage, bound):
    scene, stream, path = dense_recording
    calls = {"generate": lambda: synth.generate_events(scene, 1e-3),
             "write": lambda: ev.write_binary_events(tmp_path / "w.evt1", scene.geometry, stream),
             "read": lambda: ev.read_binary_events(path, scene.geometry)}
    per_event = _peak_bytes_per_event(calls[stage], len(stream))
    assert per_event <= bound, f"{stage} peaks at {per_event:.1f} bytes per event"


# ---------------------------------------------------------------------------
# partition sizing


def test_events_per_pixel_count_reference_values():
    assert ev.events_per_pixel_count(ev.SensorGeometry(128, 128), 0.3) == 4915
    assert ev.events_per_pixel_count(ev.SensorGeometry(64, 64), 0.3) == 1229


def test_events_per_pixel_count_too_small():
    with pytest.raises(ev.ConfigurationError):
        ev.events_per_pixel_count(ev.SensorGeometry(8, 8), 0.01)


# 1e307 is finite, but 1e307 * 64 pixels overflows to infinity.
def test_events_per_pixel_count_rejects_density_whose_count_overflows():
    with pytest.raises(ev.ConfigurationError,
                       match=r"^density x pixels must be finite, got density 1e\+307$"):
        ev.events_per_pixel_count(ev.SensorGeometry(8, 8), 1e307)


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
    ("t", [-5], ValueError, "non-negative"),
    ("x", np.array([1, 2]), ValueError, "column lengths differ"),
    ("t", np.zeros(0, dtype=np.int64), ValueError, "column lengths differ")])
def test_make_stream_rejects_values_its_columns_cannot_hold(column, value, error, match):
    columns = dict(t=np.array([0]), x=np.array([1]), y=np.array([1]), p=np.array([1]))
    columns[column] = value
    with pytest.raises(error, match=match):
        ev.make_stream(**columns, geometry=ev.SensorGeometry(16, 16))


def test_geometry_accepts_numpy_integers_as_python_ints():
    # A uint16 product would overflow at 300x300.
    geometry = ev.SensorGeometry(np.uint16(300), np.int64(300))
    assert geometry.pixels == 90_000
    assert type(geometry.width) is int and type(geometry.height) is int
    assert geometry == ev.SensorGeometry(300, 300)


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


def test_normalize_rejects_empty_partition():
    with pytest.raises(ValueError, match="cannot normalize an empty partition"):
        ev.normalize_timestamps(_stream_of(0))


def test_normalize_rejects_unsorted():
    part = ev.EventStream(np.array([40, 10], dtype=np.uint64),
                             np.zeros(2, dtype=np.uint16), np.zeros(2, dtype=np.uint16),
                             np.ones(2, dtype=np.int8), GEOM)
    with pytest.raises(ValueError, match="event 1: timestamp decreases"):
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
    out = ev.apply_augmentation(part, h_flip=True)
    assert out.x[0] == 127 and out.x[1] == 122
    assert np.array_equal(out.y, part.y)
    # Recorded for ground truth, and kept by normalization and partitioning.
    assert out.h_flip and not out.v_flip and not part.h_flip
    assert ev.normalize_timestamps(out).h_flip
    assert all(p.h_flip for p in ev.partition_by_count(out, 2))


def test_polarity_flip():
    out = ev.apply_augmentation(_simple_partition(), polarity_flip=True)
    assert np.array_equal(out.p, [-1, 1])


def test_double_flip_is_identity():
    part = _simple_partition()
    for flip in ("h_flip", "v_flip", "polarity_flip"):
        once = ev.apply_augmentation(part, **{flip: True})
        twice = ev.apply_augmentation(once, **{flip: True})
        assert (once.h_flip, once.v_flip) == (flip == "h_flip", flip == "v_flip")
        assert not (twice.h_flip or twice.v_flip)
        assert np.array_equal(twice.x, part.x)
        assert np.array_equal(twice.y, part.y)
        assert np.array_equal(twice.p, part.p)


def test_augmentation_preserves_sorting():
    out = ev.apply_augmentation(_simple_partition(), h_flip=True, v_flip=True, polarity_flip=True)
    assert np.all(np.diff(out.t.astype(np.int64)) >= 0)
