import numpy as np
import pytest

from evssl import autodiff as ad
from evssl import geometry as geo
from evssl import synth
from evssl.autodiff import Parameter, Tensor
from evssl.events import EventStream, SensorGeometry, normalize_timestamps

from conftest import random_partition
from gradcheck import check_gradients

GEOM = SensorGeometry(16, 16)


def partition_from(events, geometry=GEOM):
    """events: list of (t_us, x, y, p)."""
    t, x, y, p = zip(*events)
    part = EventStream(np.array(t, dtype=np.uint64), np.array(x, dtype=np.uint16),
                          np.array(y, dtype=np.uint16), np.array(p, dtype=np.int8),
                          geometry)
    return normalize_timestamps(part)


# ---------------------------------------------------------------------------
# voxel grid


def test_voxel_single_event_lands_in_first_bin():
    part = partition_from([(0, 3, 4, 1)])
    grid = geo.build_voxel_grid(part, 5)
    assert grid[0, 4, 3] == 1.0
    assert grid.sum() == 1.0
    assert np.count_nonzero(grid) == 1


def test_voxel_bilinear_bin_split():
    # t* = 0.375 with B=5 puts the event at bin coordinate 1.5.
    part = partition_from([(0, 2, 2, 1), (375, 5, 5, 1), (1000, 9, 9, 1)])
    grid = geo.build_voxel_grid(part, 5)
    assert grid[1, 5, 5] == pytest.approx(0.5)
    assert grid[2, 5, 5] == pytest.approx(0.5)


def test_voxel_polarity_cancellation():
    part = partition_from([(0, 4, 4, 1), (0, 4, 4, -1)])
    grid = geo.build_voxel_grid(part, 5)
    assert np.all(grid == 0.0)


def test_voxel_last_bin_exact():
    part = partition_from([(0, 1, 1, 1), (100, 2, 2, -1)])
    grid = geo.build_voxel_grid(part, 5)
    assert grid[4, 2, 2] == -1.0
    assert grid[0, 1, 1] == 1.0


def test_voxel_mass_conservation_random():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        part = random_partition(rng, n_events=int(rng.integers(2, 120)))
        grid = geo.build_voxel_grid(part, int(rng.integers(2, 8)))
        assert grid.sum() == pytest.approx(float(part.p.sum()), abs=1e-9)


def test_voxel_empty_partition_needs_normalization():
    part = EventStream(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint16),
                          np.zeros(0, dtype=np.uint16), np.zeros(0, dtype=np.int8), GEOM)
    with pytest.raises(ValueError):
        geo.build_voxel_grid(part, 5)


# ---------------------------------------------------------------------------
# event mask


def test_mask_all_zero_grid():
    assert not geo.event_mask(np.zeros((5, 8, 8))).any()


def test_mask_false_at_cancelling_pixel():
    part = partition_from([(0, 4, 4, 1), (0, 4, 4, -1), (0, 2, 2, 1), (100, 3, 3, 1)])
    mask = geo.event_mask(geo.build_voxel_grid(part, 5))
    assert not mask[4, 4]
    assert mask[2, 2] and mask[3, 3]


def test_mask_single_event():
    part = partition_from([(0, 6, 9, 1)])
    mask = geo.event_mask(geo.build_voxel_grid(part, 5))
    assert mask[9, 6]
    assert mask.sum() == 1


# ---------------------------------------------------------------------------
# warping


def zero_flow(geometry=GEOM):
    return np.zeros((2, geometry.height, geometry.width))


def constant_flow(u, v, geometry=GEOM):
    f = np.zeros((2, geometry.height, geometry.width))
    f[0] = u
    f[1] = v
    return f


def test_warp_zero_flow_is_identity():
    rng = np.random.default_rng(0)
    part = random_partition(rng)
    for t_ref in (0.0, 1.0):
        warped = geo.warp_events(part, zero_flow(), t_ref)
        assert np.array_equal(warped.xs.data, part.x.astype(np.float64))
        assert np.array_equal(warped.ys.data, part.y.astype(np.float64))


def test_warp_forward_and_backward_arithmetic():
    part = partition_from([(0, 0, 0, 1), (40, 5, 7, 1), (100, 9, 9, 1)])
    flow = constant_flow(1.0, 0.0)
    fwd = geo.warp_events(part, flow, 1.0)
    assert fwd.xs.data[1] == pytest.approx(5.6)   # x + (1 - 0.4) * 1
    assert fwd.ys.data[1] == pytest.approx(7.0)
    bwd = geo.warp_events(part, flow, 0.0)
    assert bwd.xs.data[1] == pytest.approx(4.6)   # x + (0 - 0.4) * 1


def test_warp_rejects_other_t_ref():
    part = partition_from([(0, 1, 1, 1), (10, 2, 2, 1)])
    with pytest.raises(ValueError):
        geo.warp_events(part, zero_flow(), 0.5)


# ---------------------------------------------------------------------------
# accumulation


def test_accumulate_single_event():
    part = partition_from([(0, 9, 9, -1), (50, 5, 7, 1), (100, 8, 2, -1)])
    images = geo.accumulate_warped_images(part, geo.warp_events(part, zero_flow(), 1.0))
    assert images.h_pos.data[7, 5] == pytest.approx(1.0)
    assert images.t_pos.data[7, 5] == pytest.approx(0.5 / (1.0 + geo.EPS))
    assert images.p_pos.data[7, 5] == pytest.approx(1.0)
    assert images.h_neg.data[2, 8] == pytest.approx(1.0)
    assert images.h_neg.data[9, 9] == pytest.approx(1.0)


def test_accumulate_half_pixel_split():
    # Warp target (5.5, 7.0): t*=0 event at x=5 with u=0.5 at t_ref=1.
    part = partition_from([(0, 5, 7, 1)])
    images = geo.accumulate_warped_images(
        part, geo.warp_events(part, constant_flow(0.5, 0.0), 1.0))
    assert images.h_pos.data[7, 5] == pytest.approx(0.5)
    assert images.h_pos.data[7, 6] == pytest.approx(0.5)


def test_accumulate_same_pixel_bundle():
    # Three +1 events at one pixel, identical warp target: hand accumulation
    # gives H=3, P=3*(1/3)=1, G=3/(1+eps).
    part = partition_from([(0, 4, 4, 1), (50, 4, 4, 1), (100, 4, 4, 1)])
    images = geo.accumulate_warped_images(part, geo.warp_events(part, zero_flow(), 0.0))
    g_pos, _ = geo.average_iwe(images)
    assert images.h_pos.data[4, 4] == pytest.approx(3.0)
    assert images.p_pos.data[4, 4] == pytest.approx(1.0)
    assert g_pos.data[4, 4] == pytest.approx(3.0, rel=1e-6)


def test_accumulate_t_in_unit_interval_and_zero_where_empty():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        part = random_partition(rng, n_events=60)
        flow = rng.uniform(-3, 3, size=(2, 16, 16))
        for t_ref in (0.0, 1.0):
            images = geo.accumulate_warped_images(
                part, geo.warp_events(part, flow, t_ref))
            for t_img, h_img in ((images.t_pos, images.h_pos),
                                 (images.t_neg, images.h_neg)):
                assert np.all(t_img.data >= 0.0) and np.all(t_img.data <= 1.0)
                assert np.all(t_img.data[h_img.data == 0.0] == 0.0)


def test_splat_mass_conservation_interior():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        part = random_partition(rng, n_events=50)
        # Small flow keeps every warped position strictly inside the frame.
        safe = (part.x > 3) & (part.x < 12) & (part.y > 3) & (part.y < 12)
        part = EventStream(part.t[safe], part.x[safe], part.y[safe], part.p[safe],
                              part.geometry, part.t_star[safe])
        if len(part) == 0:
            continue
        flow = rng.uniform(-2, 2, size=(2, 16, 16))
        images = geo.accumulate_warped_images(part, geo.warp_events(part, flow, 1.0))
        assert images.h_pos.data.sum() == pytest.approx(float((part.p > 0).sum()))
        assert images.h_neg.data.sum() == pytest.approx(float((part.p < 0).sum()))


def test_zero_flow_accumulation_matches_unwarped_counts():
    rng = np.random.default_rng(7)
    part = random_partition(rng, n_events=80)
    images = geo.accumulate_warped_images(part, geo.warp_events(part, zero_flow(), 1.0))
    counts = np.zeros((16, 16))
    for x, y, p in zip(part.x, part.y, part.p):
        if p > 0:
            counts[y, x] += 1.0
    assert np.array_equal(images.h_pos.data, counts)


def test_average_iwe_values():
    shape = (4, 4)
    mk = lambda v: Tensor(np.full(shape, float(v)))
    images = geo.WarpedImages(h_pos=mk(3), h_neg=mk(4), t_pos=mk(0), t_neg=mk(0),
                              p_pos=mk(1), p_neg=mk(2), t_ref=1.0)
    g_pos, g_neg = geo.average_iwe(images)
    assert g_pos.data[0, 0] == pytest.approx(3.0, rel=1e-6)
    assert g_neg.data[0, 0] == pytest.approx(2.0, rel=1e-6)
    zero = geo.WarpedImages(h_pos=mk(0), h_neg=mk(0), t_pos=mk(0), t_neg=mk(0),
                            p_pos=mk(0), p_neg=mk(0), t_ref=1.0)
    g0, _ = geo.average_iwe(zero)
    assert np.all(g0.data == 0.0)


# ---------------------------------------------------------------------------
# differentiability of H and T with respect to the flow


def test_warped_image_gradients_match_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        geom = SensorGeometry(9, 9)
        part = random_partition(rng, geometry=geom, n_events=12)
        # Random non-integer flow keeps warp targets off the pixel lattice.
        flow = Parameter("flow", rng.uniform(-1.6, 1.6, size=(2, 9, 9))
                         + rng.choice([-0.37, 0.23], size=(2, 9, 9)))
        probe_h = rng.normal(size=(9, 9))
        probe_t = rng.normal(size=(9, 9))
        t_ref = float(rng.integers(0, 2))

        def build():
            images = geo.accumulate_warped_images(
                part, geo.warp_events(part, flow, t_ref))
            return ad.add(
                ad.add(ad.tsum(ad.mul(images.h_pos, probe_h)),
                       ad.tsum(ad.mul(images.t_pos, probe_t))),
                ad.add(ad.tsum(ad.mul(images.h_neg, probe_h)),
                       ad.tsum(ad.mul(images.t_neg, probe_t))))

        check_gradients(build, [flow])


# ---------------------------------------------------------------------------
# FWL


def test_fwl_zero_flow_is_exactly_one():
    rng = np.random.default_rng(3)
    part = random_partition(rng, n_events=100)
    assert geo.fwl(part, zero_flow()) == 1.0


def test_fwl_error_on_zero_variance():
    # Uniform coverage: one event in every pixel -> flat count image.
    events = [(i, x, y, 1) for i, (y, x) in
              enumerate((y, x) for y in range(16) for x in range(16))]
    part = partition_from(events)
    with pytest.raises(ValueError):
        geo.fwl(part, zero_flow())


def test_fwl_ground_truth_flow_sharpens(checker_scene, checker_partitions):
    part = checker_partitions[len(checker_partitions) // 2]
    gt = synth.ground_truth_flow(checker_scene, part)
    value = geo.fwl(part, gt)
    assert value > 1.05
    assert geo.fwl(part, np.zeros((2, 64, 64))) == 1.0
