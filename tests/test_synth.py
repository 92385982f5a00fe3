import numpy as np
import pytest

from evssl import synth
from evssl.events import SensorGeometry, partition_by_count, normalize_timestamps

GEOM = SensorGeometry(16, 16)


def scene_with(base, velocity, contrast=0.25, duration=1.0, geometry=GEOM):
    return synth.SyntheticScene(geometry, base, velocity=velocity,
                                contrast=contrast, duration=duration)


# ---------------------------------------------------------------------------
# rendering


def test_render_at_zero_is_base():
    base = synth.checkerboard(GEOM, 4)
    scene = scene_with(base, (3.0, 2.0))
    assert np.array_equal(synth.render_scene(scene, 0.0), base)


def test_render_static_scene_constant_in_time():
    rng = np.random.default_rng(0)
    base = rng.normal(size=(16, 16))
    scene = scene_with(base, (0.0, 0.0))
    for t in (0.1, 0.5, 0.9):
        assert np.array_equal(synth.render_scene(scene, t), base)


def test_render_full_period_shift_wraps_to_base():
    base = synth.checkerboard(GEOM, 4)
    scene = scene_with(base, (16.0, 0.0), duration=1.0)
    assert np.array_equal(synth.render_scene(scene, 1.0), base)


def test_render_subpixel_shift_interpolates():
    base = np.zeros((16, 16))
    base[:, 8] = 1.0
    scene = scene_with(base, (0.5, 0.0), duration=1.0)
    frame = synth.render_scene(scene, 1.0)  # shifted right by half a pixel
    assert frame[0, 8] == pytest.approx(0.5)
    assert frame[0, 9] == pytest.approx(0.5)


def test_render_rejects_time_outside_duration():
    scene = scene_with(np.zeros((16, 16)), (1.0, 0.0), duration=1.0)
    with pytest.raises(ValueError):
        synth.render_scene(scene, 1.5)


# ---------------------------------------------------------------------------
# event generation


def test_static_scene_produces_no_events():
    scene = scene_with(synth.checkerboard(GEOM, 4), (0.0, 0.0))
    stream = synth.generate_events(scene, 1e-2)
    assert len(stream) == 0


def test_linear_ramp_fires_expected_event_count():
    # Brightness at x=8 climbs 3.5 thresholds over the run: exactly 3 events.
    contrast = 0.2
    slope = 3.5 * contrast / 4.0  # shift totals 4 px
    base = np.zeros((16, 16))
    ramp = np.clip(np.arange(16) - 4, 0, 8) * slope
    base[:] = ramp[None, :]
    scene = scene_with(base, (-2.0, 0.0), contrast=contrast, duration=2.0)
    stream = synth.generate_events(scene, 1e-3)
    at_pixel = (stream.x == 8) & (stream.y == 8)
    assert int(at_pixel.sum()) == 3
    assert np.all(stream.p[at_pixel] == 1)


def test_events_sorted_and_in_bounds():
    scene = scene_with(synth.checkerboard(GEOM, 4), (6.0, -4.0), contrast=0.3)
    stream = synth.generate_events(scene, 1e-3)
    assert len(stream) > 0
    assert np.all(np.diff(stream.t.astype(np.int64)) >= 0)
    assert stream.x.max() < 16 and stream.y.max() < 16
    assert set(np.unique(stream.p)) <= {-1, 1}


def test_event_count_consistency_with_brightness_travel():
    # The reference level moves exactly one threshold per event, so the
    # signed event sum per pixel tracks the total brightness change to
    # within one threshold.
    c = 0.3
    scene = scene_with(synth.checkerboard(GEOM, 4, amplitude=1.0), (6.0, 3.0),
                       contrast=c, duration=1.0)
    stream = synth.generate_events(scene, 1e-3)
    signed = np.zeros((16, 16))
    np.add.at(signed, (stream.y.astype(int), stream.x.astype(int)), stream.p)
    travel = synth.render_scene(scene, 1.0) - synth.render_scene(scene, 0.0)
    # The band is closed: rounding in |delta|/C can leave the residual at
    # exactly one threshold.
    assert np.all(np.abs(travel - c * signed) <= c + 1e-9)


def test_timestep_precondition_violation_suggests_smaller_step():
    scene = scene_with(synth.checkerboard(GEOM, 4, amplitude=4.0), (40.0, 0.0),
                       contrast=0.05, duration=1.0)
    with pytest.raises(ValueError, match="timestep"):
        synth.generate_events(scene, 0.25)


@pytest.mark.parametrize("field,value", [
    ("contrast", np.nan), ("contrast", np.inf), ("contrast", 0.0),
    ("duration", np.nan), ("duration", np.inf), ("duration", -1.0),
    ("velocity", (np.nan, 0.0)), ("velocity", (0.0, -np.inf)), ("velocity", (1.0,)),
    ("timestep", np.nan), ("timestep", np.inf), ("timestep", 0.0)])
def test_synthesis_rejects_non_finite_or_non_positive_inputs(field, value):
    # Before these checks NaN contrast gave 0 events, NaN or infinite
    # duration failed in int(), a short or non-finite velocity failed in
    # render_scene, and an infinite timestep gave no steps.
    kw = dict(contrast=0.25, duration=1.0, velocity=(1.0, 0.0))
    timestep = 1e-2
    if field == "timestep":
        timestep = value
    else:
        kw[field] = value
    with pytest.raises(ValueError, match=field):
        synth.generate_events(scene_with(synth.checkerboard(GEOM, 4), **kw), timestep)


def _with_pixel(value):
    base = synth.checkerboard(GEOM, 4)
    base[3, 5] = value
    return base


# A non-finite pattern would fail late, inside generate_events, with an
# invalid-value warning from a cast or a multiply.
@pytest.mark.parametrize("base,match", [
    (np.zeros((16, 17)), "pattern shape"), (np.zeros((17, 16)), "pattern shape"),
    (np.zeros((2, 16, 16)), "pattern shape"),
    (np.full((16, 16), np.nan), "finite"), (np.full((16, 16), np.inf), "finite"),
    (_with_pixel(np.nan), "finite"), (_with_pixel(-np.inf), "finite")])
def test_scene_rejects_pattern_of_another_shape_or_non_finite(base, match):
    with pytest.raises(ValueError, match=match):
        scene_with(base, velocity=(1.0, 0.0))


def test_mirrored_velocity_produces_x_flipped_stream():
    # Symmetric pattern, dyadic velocity and timestep: the two runs are
    # bit-exact mirrors of each other, timestamps included.
    w = 16
    tri = 1.0 - np.abs(np.arange(w) - (w - 1) / 2.0) / ((w - 1) / 2.0)
    base = np.tile(tri, (16, 1))
    fwd = scene_with(base, (4.0, 0.0), contrast=0.125, duration=1.0)
    rev = scene_with(base, (-4.0, 0.0), contrast=0.125, duration=1.0)
    s_fwd = synth.generate_events(fwd, 1.0 / 256.0)
    s_rev = synth.generate_events(rev, 1.0 / 256.0)
    assert len(s_fwd) == len(s_rev) > 0

    def as_sorted(t, x, y, p):
        order = np.lexsort((p, x, y, t))
        return t[order], x[order], y[order], p[order]

    a = as_sorted(s_fwd.t, s_fwd.x, s_fwd.y, s_fwd.p)
    b = as_sorted(s_rev.t, (w - 1 - s_rev.x.astype(np.int64)).astype(np.uint16),
                  s_rev.y, s_rev.p)
    for col_a, col_b in zip(a, b):
        assert np.array_equal(col_a, col_b)


# ---------------------------------------------------------------------------
# ground truth


def test_ground_truth_flow_matches_velocity_times_span(checker_scene, checker_partitions):
    part = checker_partitions[0]
    gt = synth.ground_truth_flow(checker_scene, part)
    dur_s = part.duration_us / 1e6
    assert np.all(gt.u == pytest.approx(checker_scene.velocity[0] * dur_s))
    assert np.all(gt.v == pytest.approx(checker_scene.velocity[1] * dur_s))


def test_ground_truth_frame_matches_render(checker_scene):
    frame = synth.ground_truth_frame(checker_scene, 500_000)
    assert np.array_equal(frame, synth.render_scene(checker_scene, 0.5))


def test_gaussian_blob_pattern_shape_and_positivity():
    rng = np.random.default_rng(0)
    base = synth.gaussian_blobs(GEOM, count=5, sigma=2.0, amplitude=1.0, rng=rng)
    assert base.shape == (16, 16)
    assert base.max() > 0.5
