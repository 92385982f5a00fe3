import hashlib

import numpy as np
import pytest
from hypothesis import strategies as st

from evssl import synth
from evssl.events import (SensorGeometry, events_per_pixel_count,
                          normalize_timestamps, partition_by_count)


# Canonical desk-scale scene: the balanced velocity keeps both flow
# components observable and each partition spans ~5 px of motion, enough
# for warping to clearly sharpen the event images.
CHECKER_VELOCITY = (32.0, 40.0)
CHECKER_DENSITY = 0.5


@pytest.fixture(scope="session")
def checker_scene():
    geom = SensorGeometry(64, 64)
    base = synth.checkerboard(geom, period=16)
    return synth.SyntheticScene(geom, base, velocity=CHECKER_VELOCITY,
                                contrast=1.0, duration=2.0)


@pytest.fixture(scope="session")
def checker_partitions(checker_scene):
    """Normalized fixed-count partitions of the checkerboard scene."""
    stream = synth.generate_events(checker_scene, 1e-3)
    n = events_per_pixel_count(checker_scene.geometry, CHECKER_DENSITY)
    return [normalize_timestamps(p) for p in partition_by_count(stream, n)]


# Smooth wide-gradient scene with ~1 px of motion per partition, where the
# linearized photometric constancy is accurate: the reconstruction stack is
# exercised on this one.
BLOB_VELOCITY = (16.0, 20.0)
BLOB_CONTRAST = 0.35
BLOB_DENSITY = 0.3


@pytest.fixture(scope="session")
def blob_scene():
    geom = SensorGeometry(64, 64)
    base = synth.gaussian_blobs(geom, count=20, sigma=4.0, amplitude=2.0,
                                rng=np.random.default_rng(42))
    return synth.SyntheticScene(geom, base, velocity=BLOB_VELOCITY,
                                contrast=BLOB_CONTRAST, duration=2.0)


@pytest.fixture(scope="session")
def blob_partitions(blob_scene):
    stream = synth.generate_events(blob_scene, 1e-3)
    n = events_per_pixel_count(blob_scene.geometry, BLOB_DENSITY)
    return [normalize_timestamps(p) for p in partition_by_count(stream, n)]


def stream_sha1(stream) -> str:
    """SHA-1 of a stream's t, x, y and p columns, each little-endian."""
    digest = hashlib.sha1()
    for col in (stream.t, stream.x, stream.y, stream.p):
        digest.update(col.astype(col.dtype.newbyteorder("<")).tobytes())
    return digest.hexdigest()


def corrupted(raw: bytes, data) -> bytes:
    """`raw` truncated at a drawn length, or with one drawn byte flipped;
    `data` is a hypothesis `st.data()` draw."""
    if data.draw(st.booleans()):
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    i = data.draw(st.integers(0, len(raw) - 1))
    return raw[:i] + bytes([raw[i] ^ data.draw(st.integers(1, 255))]) + raw[i + 1:]


def random_partition(rng, geometry=None, n_events=40):
    """Small random normalized partition for property tests."""
    from evssl.events import EventStream
    geometry = geometry or SensorGeometry(16, 16)
    t = np.sort(rng.integers(0, 100_000, size=n_events).astype(np.uint64))
    part = EventStream(
        t,
        rng.integers(0, geometry.width, size=n_events).astype(np.uint16),
        rng.integers(0, geometry.height, size=n_events).astype(np.uint16),
        rng.choice(np.array([-1, 1], dtype=np.int8), size=n_events),
        geometry)
    return normalize_timestamps(part)
