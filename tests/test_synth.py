import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evssl import synth
from evssl.events import US_PER_SECOND, ConfigurationError, SensorGeometry

from conftest import stream_sha1

GEOM = SensorGeometry(16, 16)


def scene_with(base, velocity, contrast=0.25, duration=1.0, geometry=GEOM):
    return synth.SyntheticScene(geometry, base, velocity=velocity,
                                contrast=contrast, duration=duration)


# ---------------------------------------------------------------------------
# rendering


def render(scene, t):
    """The scene's frame at t seconds, rendered as `ground_truth_frame` does."""
    return synth._render(np.tile(scene.base, (2, 2)), scene.velocity, t)


def test_render_at_zero_is_base():
    base = synth.checkerboard(GEOM, 4)
    scene = scene_with(base, (3.0, 2.0))
    assert np.array_equal(render(scene, 0.0), base)


def test_render_static_scene_constant_in_time():
    rng = np.random.default_rng(0)
    base = rng.normal(size=(16, 16))
    scene = scene_with(base, (0.0, 0.0))
    for t in (0.1, 0.5, 0.9):
        assert np.array_equal(render(scene, t), base)


def test_render_full_period_shift_wraps_to_base():
    base = synth.checkerboard(GEOM, 4)
    scene = scene_with(base, (16.0, 0.0), duration=1.0)
    assert np.array_equal(render(scene, 1.0), base)


def test_render_subpixel_shift_interpolates():
    base = np.zeros((16, 16))
    base[:, 8] = 1.0
    scene = scene_with(base, (0.5, 0.0), duration=1.0)
    frame = render(scene, 1.0)  # shifted right by half a pixel
    assert frame[0, 8] == pytest.approx(0.5)
    assert frame[0, 9] == pytest.approx(0.5)


def _render_ix(base, sx, sy):
    """Reference renderer: four `np.ix_` gathers of the wrapped pattern."""
    h, w = base.shape
    kx, fx = int(np.floor(sx)), sx - np.floor(sx)
    ky, fy = int(np.floor(sy)), sy - np.floor(sy)
    ix0 = (np.arange(w) + kx) % w
    ix1 = (ix0 + 1) % w
    iy0 = (np.arange(h) + ky) % h
    iy1 = (iy0 + 1) % h
    top = base[np.ix_(iy0, ix0)] * (1.0 - fx) + base[np.ix_(iy0, ix1)] * fx
    bot = base[np.ix_(iy1, ix0)] * (1.0 - fx) + base[np.ix_(iy1, ix1)] * fx
    return top * (1.0 - fy) + bot * fy


@pytest.mark.parametrize("vx,vy", [
    (3 * 16 + 0.375, -2 * 12 - 0.6), (-5 * 16 - 0.1, 4 * 12 + 0.9),
    (-16.0, 12.0), (7 * 16.0, -3 * 12.0), (0.4, -0.7), (-1e-9, 1e-9)])
def test_render_matches_ix_gathers_at_whole_periods_plus_a_fraction(vx, vy):
    base = np.random.default_rng(3).normal(size=(12, 16))
    scene = scene_with(base, (vx, vy), geometry=SensorGeometry(16, 12))
    for t in (0.0, 0.3, 1.0):
        assert np.array_equal(render(scene, t), _render_ix(base, -vx * t, -vy * t))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_render_matches_ix_gathers_on_drawn_frames(data):
    # Non-square frames, either sign, up to 5 periods per second for up to
    # 4 s: the window's whole-pixel offset wraps many times over.
    h = data.draw(st.integers(8, 20))
    w = data.draw(st.integers(8, 20).filter(lambda v: v != h))
    base = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(h, w))
    vx = data.draw(st.floats(-5.0 * w, 5.0 * w))
    vy = data.draw(st.floats(-5.0 * h, 5.0 * h))
    duration = data.draw(st.floats(0.01, 4.0))
    t = data.draw(st.floats(0.0, duration))
    scene = scene_with(base, (vx, vy), duration=duration, geometry=SensorGeometry(w, h))
    assert np.array_equal(render(scene, t), _render_ix(base, -vx * t, -vy * t))


def test_ground_truth_frame_rejects_time_outside_duration():
    scene = scene_with(np.zeros((16, 16)), (1.0, 0.0), duration=1.0)
    with pytest.raises(ConfigurationError):
        synth.ground_truth_frame(scene, 1_500_000)


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
    scene = scene_with(synth.checkerboard(GEOM, 4), (6.0, 3.0),
                       contrast=c, duration=1.0)
    stream = synth.generate_events(scene, 1e-3)
    signed = np.zeros((16, 16))
    np.add.at(signed, (stream.y.astype(int), stream.x.astype(int)), stream.p)
    travel = render(scene, 1.0) - render(scene, 0.0)
    # The band is closed: rounding in |delta|/C can leave the residual at
    # exactly one threshold.
    assert np.all(np.abs(travel - c * signed) <= c + 1e-9)


def test_timestep_precondition_violation_suggests_smaller_step():
    scene = scene_with(4.0 * synth.checkerboard(GEOM, 4), (40.0, 0.0),
                       contrast=0.05, duration=1.0)
    with pytest.raises(ValueError, match="timestep"):
        synth.generate_events(scene, 0.25)


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


def _generate_reference(scene, timestep):
    """Reference simulator: every pixel floor-divided on every step, each
    frame rendered by `_render_ix`."""
    c = scene.contrast
    n_steps = int(np.ceil(scene.duration / timestep))
    h, w = scene.base.shape
    vx, vy = scene.velocity
    l_prev = _render_ix(scene.base, 0.0, 0.0).ravel()
    l_ref = l_prev.copy()
    flat_pix = np.arange(h * w)
    ts_parts, pix_parts, pol_parts = [], [], []
    t_prev = 0.0
    for step in range(1, n_steps + 1):
        t_next = min(step * timestep, scene.duration)
        l_new = _render_ix(scene.base, -vx * t_next, -vy * t_next).ravel()
        assert np.abs(l_new - l_prev).max() < 4.0 * c
        delta = l_new - l_ref
        n = (np.abs(delta) // c).astype(np.int64)
        fired = n > 0
        if fired.any():
            reps = n[fired]
            sign = np.sign(delta[fired])
            pix = np.repeat(flat_pix[fired], reps)
            pol = np.repeat(sign, reps)
            total = int(reps.sum())
            starts = np.repeat(np.cumsum(reps) - reps, reps)
            k = np.arange(total) - starts + 1.0
            targets = l_ref[pix] + pol * k * c
            lp = l_prev[pix]
            frac = (targets - lp) / (l_new[pix] - lp)
            ts_parts.append(t_prev + frac * (t_next - t_prev))
            pix_parts.append(pix)
            pol_parts.append(pol)
            l_ref[fired] += sign * reps * c
        l_prev = l_new
        t_prev = t_next
    if not ts_parts:
        return (np.zeros(0, np.uint64), np.zeros(0, np.uint16), np.zeros(0, np.uint16),
                np.zeros(0, np.int8))
    t_us = np.rint(np.concatenate(ts_parts) * US_PER_SECOND).astype(np.uint64)
    pix = np.concatenate(pix_parts)
    pol = np.concatenate(pol_parts).astype(np.int8)
    x = (pix % w).astype(np.uint16)
    y = (pix // w).astype(np.uint16)
    order = np.lexsort((x, y, t_us))
    return t_us[order], x[order], y[order], pol[order]


@st.composite
def small_scenes(draw):
    """A small scene and a timestep within the 4C rule.

    Half the draws hold multiples of C moving whole pixels per step: every
    rendered value is then exact, so brightness changes land on threshold
    multiples, where `//` and the accumulated reference level decide the
    event count. The others hold a continuous pattern at any velocity.
    """
    h, w = draw(st.integers(8, 12)), draw(st.integers(8, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Short runs, and runs that end on or between later emission blocks.
    block = synth._BLOCK_STEPS
    n_steps = draw(st.one_of(st.integers(1, 24), st.integers(1, 3).map(lambda m: m * block),
                             st.integers(block + 1, 3 * block + 7)))
    if draw(st.booleans()):
        # At 0.15, 0.3 and 0.6, 3 * C // C is 2, below the quotient's floor.
        c = draw(st.sampled_from([0.1, 0.15, 0.3, 0.35, 0.6, 0.7]))
        base = rng.integers(0, 4, size=(h, w)) * c
        timestep = draw(st.sampled_from([1.0, 0.5, 0.125]))
        step = draw(st.sampled_from([(1, 0), (0, -1), (1, 1), (-1, 1)]))
        velocity = (step[0] / timestep, step[1] / timestep)
        duration = n_steps * timestep
    else:
        c = draw(st.floats(0.05, 1.0))
        base = rng.normal(size=(h, w)) * draw(st.floats(0.1, 3.0))
        velocity = (draw(st.floats(-30.0, 30.0)), draw(st.floats(-30.0, 30.0)))
        # A bilinear shift moves a pixel by at most the largest neighbour
        # step per pixel of shift, so this keeps every step below 3C.
        g = max(np.abs(base - np.roll(base, 1, axis=1)).max(),
                np.abs(base - np.roll(base, 1, axis=0)).max())
        timestep = min(0.1, 3.0 * c / (g * (abs(velocity[0]) + abs(velocity[1])) + 1e-9))
        duration = timestep * (n_steps - draw(st.floats(0.0, 0.9)))
    return scene_with(base, velocity, contrast=c, duration=duration,
                      geometry=SensorGeometry(w, h)), timestep


@settings(max_examples=150, deadline=None)
@given(small_scenes())
def test_generate_events_matches_the_reference_simulator(drawn):
    scene, timestep = drawn
    stream = synth.generate_events(scene, timestep)
    for col, ref in zip((stream.t, stream.x, stream.y, stream.p),
                        _generate_reference(scene, timestep)):
        assert col.dtype == ref.dtype and np.array_equal(col, ref)


def _one_step_stream(level, contrast):
    # The stripe at x=5 moves one whole pixel in one step, so x=6 goes
    # 0 -> level and x=5 goes level -> 0, with every rendered value exact.
    base = np.zeros((16, 16))
    base[:, 5] = level
    scene = scene_with(base, (1.0, 0.0), contrast=contrast, duration=1.0)
    assert np.array_equal(render(scene, 1.0), np.roll(base, 1, axis=1))
    return synth.generate_events(scene, 1.0)


def _count_at(stream, x: int, p: int) -> int:
    return int(((stream.x == x) & (stream.y == 0) & (stream.p == p)).sum())


def test_change_just_under_three_thresholds_fires_floor_divided_count():
    level = 0.8999999999999999
    # The quotient rounds up to 3, floor division does not.
    assert np.floor(level / 0.3) == 3.0 and level // 0.3 == 2.0
    stream = _one_step_stream(level, 0.3)
    assert _count_at(stream, 6, 1) == 2 and _count_at(stream, 5, -1) == 2
    assert len(stream) == 2 * 2 * 16


def test_change_of_exactly_one_threshold_fires_one_event():
    stream = _one_step_stream(0.3, 0.3)
    assert _count_at(stream, 6, 1) == 1 and _count_at(stream, 5, -1) == 1
    assert len(stream) == 2 * 16
    assert np.all(stream.t == US_PER_SECOND)


# Digests of these 2 s runs as the per-step simulator emitted them. They
# cross 63 of the 32-step emission blocks, which the small scenes above
# never reach.
@pytest.mark.parametrize("name,count,sha1", [
    ("checker_scene", 32_768, "e3682d9c1ffe2089fbf3a06ead90416fdeffb806"),
    ("blob_scene", 61_963, "32d708ba51cfe76c1322cf5828b8f35df8602f52")])
def test_full_size_scene_streams_are_pinned(request, name, count, sha1):
    stream = synth.generate_events(request.getfixturevalue(name), 1e-3)
    assert len(stream) == count and stream_sha1(stream) == sha1


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
    assert np.array_equal(frame, render(checker_scene, 0.5))


def test_ground_truth_frame_accepts_the_rounded_last_event_time():
    # The stripe moves one whole pixel in one step of a duration that is
    # not a whole number of microseconds; every event time rounds up to
    # 123457 us, 0.3 us past the end. 123458 us is 1.3 us past it and raises.
    duration = 0.1234567
    base = np.zeros((16, 16))
    base[:, 5] = 0.3
    scene = scene_with(base, (1.0 / duration, 0.0), contrast=0.3, duration=duration)
    stream = synth.generate_events(scene, duration)
    assert len(stream) == 2 * 16 and np.all(stream.t == 123_457)
    frame = synth.ground_truth_frame(scene, int(stream.t[-1]))
    assert np.array_equal(frame, render(scene, duration))
    with pytest.raises(ConfigurationError):
        synth.ground_truth_frame(scene, 123_458)


@pytest.mark.parametrize("period", [1, 3, 16])
def test_checkerboard_alternates_unit_tiles_of_the_period(period):
    # Unit contrast at every period: a scene scales the pattern itself, as in
    # `4.0 * synth.checkerboard(GEOM, 4)`. A non-square frame tells x from y.
    base = synth.checkerboard(SensorGeometry(24, 16), period)
    assert base.shape == (16, 24) and base.dtype == np.float64
    tiles = base[::period, ::period]
    assert np.array_equal(np.kron(tiles, np.ones((period, period)))[:16, :24], base)
    assert tiles[0, 0] == 0.0 and set(np.unique(tiles)) == {0.0, 1.0}
    assert np.all(tiles[1:] == 1.0 - tiles[:-1])
    assert np.all(tiles[:, 1:] == 1.0 - tiles[:, :-1])


def test_gaussian_blob_pattern_shape_and_positivity():
    rng = np.random.default_rng(0)
    base = synth.gaussian_blobs(GEOM, count=5, sigma=2.0, amplitude=1.0, rng=rng)
    assert base.shape == (16, 16)
    assert base.max() > 0.5
