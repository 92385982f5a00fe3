import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evssl import autodiff as ad
from evssl import losses
from evssl import synth
from evssl.autodiff import Tensor
from evssl.events import EventStream, SensorGeometry, normalize_timestamps
from evssl.losses import LossWeights
from evssl.training import TrainConfig

from conftest import random_partition
from gradcheck import check_gradients, trainable

GEOM = SensorGeometry(16, 16)
W = LossWeights()


def partition_from(events, geometry=GEOM):
    t, x, y, p = zip(*events)
    part = EventStream(np.array(t, dtype=np.uint64), np.array(x, dtype=np.uint16),
                          np.array(y, dtype=np.uint16), np.array(p, dtype=np.int8),
                          geometry)
    return normalize_timestamps(part)


def empty_partition(geometry=GEOM):
    return EventStream(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint16),
                          np.zeros(0, dtype=np.uint16), np.zeros(0, dtype=np.int8),
                          geometry, t_star=np.zeros(0))


# ---------------------------------------------------------------------------
# contrast loss


def test_contrast_empty_partition_is_zero():
    loss = losses.contrast_loss(empty_partition(), np.zeros((2, 16, 16)))
    assert loss.item() == 0.0


def test_contrast_single_event_at_t_star_zero():
    part = partition_from([(5, 3, 3, 1)])
    assert part.t_star[0] == 0.0
    loss = losses.contrast_loss(part, np.zeros((2, 16, 16)))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_contrast_ground_truth_below_zero_flow(checker_scene, checker_partitions):
    part = checker_partitions[len(checker_partitions) // 2]
    gt = synth.ground_truth_flow(checker_scene, part)
    at_gt = losses.contrast_loss(part, gt).item()
    at_zero = losses.contrast_loss(part, np.zeros((2, 64, 64))).item()
    assert at_gt < at_zero


def test_contrast_out_of_frame_flow_scores_between_ground_truth_and_zero(
        checker_scene, checker_partitions):
    # Pinned behaviour of the paper's loss: events pushed out of the frame
    # stop contributing, so a flow far beyond the motion (200 px against
    # ~5 px) beats zero flow, though ground truth still wins.
    part = checker_partitions[len(checker_partitions) // 2]
    at_gt = losses.contrast_loss(part, synth.ground_truth_flow(checker_scene, part)).item()
    at_zero = losses.contrast_loss(part, np.zeros((2, 64, 64))).item()
    at_far = losses.contrast_loss(part, np.full((2, 64, 64), 200.0)).item()
    assert at_gt < at_far < at_zero


def test_contrast_gradient_matches_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        geom = SensorGeometry(8, 8)
        part = random_partition(rng, geometry=geom, n_events=10)
        flow = trainable("flow", rng.uniform(-1.3, 1.3, size=(2, 8, 8)) + 0.21)
        check_gradients(lambda: losses.contrast_loss(part, flow), [flow])


# ---------------------------------------------------------------------------
# Charbonnier smoothness


def test_charbonnier_constant_flow_is_zero():
    flow = np.full((2, 6, 7), 3.25)
    assert losses.charbonnier_smoothness(flow).item() == 0.0


@pytest.mark.parametrize("value", [0.0, 3.25, -40.0])
def test_charbonnier_of_a_one_pixel_flow_is_zero(value):
    # No forward difference fits in a 1x1 field.
    flow = trainable("flow", np.full((2, 1, 1), value))
    loss = losses.charbonnier_smoothness(flow)
    assert loss.item() == 0.0 and not loss.requires_grad


def test_charbonnier_unit_step_reference_value():
    # One horizontal difference location on a 1x2 field carrying a unit
    # step in u: sqrt(1 + eta^2) - eta.
    flow = np.zeros((2, 1, 2))
    flow[0, 0, 1] = 1.0
    eta = losses.CHARBONNIER_ETA
    expected = np.sqrt(1.0 + eta * eta) - eta
    assert losses.charbonnier_smoothness(flow).item() == pytest.approx(expected)
    assert expected == pytest.approx(0.9990, abs=5e-5)


def test_charbonnier_scaling_increases_loss():
    rng = np.random.default_rng(0)
    flow = rng.normal(size=(2, 8, 8))
    small = losses.charbonnier_smoothness(flow).item()
    big = losses.charbonnier_smoothness(2.0 * flow).item()
    assert big > small > 0.0


def test_charbonnier_gradient():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        flow = trainable("flow", rng.normal(size=(2, 5, 6)))
        check_gradients(lambda: losses.charbonnier_smoothness(flow), [flow])


# ---------------------------------------------------------------------------
# flow total


def test_flow_total_reduces_to_contrast_when_lambda_zero():
    rng = np.random.default_rng(1)
    part = random_partition(rng)
    flow = rng.normal(size=(2, 16, 16))
    weights = LossWeights(lambda1=0.0)
    total, report = losses.flow_total_loss(part, flow, weights)
    assert total.item() == pytest.approx(losses.contrast_loss(part, flow).item())
    assert report.total == pytest.approx(
        report.terms["contrast"] + weights.lambda1 * report.terms["smoothness"])


def test_flow_total_constant_flow_equals_contrast():
    rng = np.random.default_rng(2)
    part = random_partition(rng)
    flow = np.full((2, 16, 16), 1.5)
    total, _ = losses.flow_total_loss(part, flow, LossWeights(lambda1=1.0))
    assert total.item() == pytest.approx(losses.contrast_loss(part, flow).item())


def test_flow_total_report_bookkeeping():
    rng = np.random.default_rng(3)
    part = random_partition(rng)
    flow = rng.normal(size=(2, 16, 16))
    weights = LossWeights(lambda1=0.7)
    total, report = losses.flow_total_loss(part, flow, weights)
    assert set(report.terms) == {"contrast", "smoothness"}
    assert report.total == pytest.approx(
        report.terms["contrast"] + 0.7 * report.terms["smoothness"])
    assert total.item() == pytest.approx(report.total)


# ---------------------------------------------------------------------------
# reference increment


def test_reference_increment_deblurred_bundle():
    part = partition_from([(0, 4, 4, 1), (50, 4, 4, 1), (100, 4, 4, 1)])
    out = losses.reference_increment(part, np.zeros((2, 16, 16)), W)
    assert out.data[4, 4] == pytest.approx(3.0, rel=1e-6)


def test_reference_increment_averages_per_source_pixel():
    # Two -1 events at (4,4) and one at (6,4) all land on (5,4): H-=3 over
    # P-=1/2+1/2+1=2 source pixels, G-=1.5. The +1 event at t*=1 stays put.
    part = partition_from([(0, 4, 4, -1), (0, 4, 4, -1), (0, 6, 4, -1), (100, 10, 10, 1)])
    flow = np.zeros((2, 16, 16))
    flow[0, 4, 4], flow[0, 4, 6] = 1.0, -1.0
    out = losses.reference_increment(part, flow, W)
    assert out.data[4, 5] == pytest.approx(-1.5, rel=1e-6)
    assert out.data[10, 10] == pytest.approx(1.0, rel=1e-6)
    assert np.count_nonzero(out.data) == 2


def test_reference_increment_plain_integration():
    part = partition_from([(0, 4, 4, 1), (50, 4, 4, 1), (100, 4, 4, 1)])
    weights = LossWeights(deblur_enabled=False)
    out = losses.reference_increment(part, np.zeros((2, 16, 16)), weights)
    assert out.data[4, 4] == 3.0


def test_reference_increment_balanced_events_cancel():
    part = partition_from([(0, 4, 4, 1), (50, 4, 4, -1)])
    weights = LossWeights(deblur_enabled=False)
    out = losses.reference_increment(part, np.zeros((2, 16, 16)), weights)
    assert out.data[4, 4] == 0.0
    assert np.all(out.data == 0.0)


def test_reference_increment_detaches_flow():
    rng = np.random.default_rng(4)
    part = random_partition(rng)
    flow = trainable("flow", rng.normal(size=(2, 16, 16)))
    out = losses.reference_increment(part, flow, W)
    loss = ad.sum_of_squares(out)
    loss.backward()
    assert flow.grad is None


def test_reference_increment_respects_thresholds():
    part = partition_from([(0, 4, 4, 1), (50, 5, 5, -1)])
    weights = LossWeights(c_pos=2.0, c_neg=0.5, deblur_enabled=False)
    out = losses.reference_increment(part, np.zeros((2, 16, 16)), weights)
    assert out.data[4, 4] == 2.0
    assert out.data[5, 5] == -0.5


# ---------------------------------------------------------------------------
# spatial gradient: rows 1 and 2 of `warp_previous` at zero flow


def _gradient_stack(img):
    """[L, dL/dx, dL/dy] in numpy alone: central differences of the frame
    with its border replicated."""
    p = np.pad(img, 1, mode="edge")
    return np.stack([img, (p[1:-1, 2:] - p[1:-1, :-2]) * 0.5, (p[2:, 1:-1] - p[:-2, 1:-1]) * 0.5])


def _zero_flow_gradient(img):
    out = losses.warp_previous(img, np.zeros((2, *img.shape))).data[1:]
    assert np.array_equal(out, _gradient_stack(img)[1:])
    return out


def test_spatial_gradient_constant_image():
    gx, gy = _zero_flow_gradient(np.full((5, 5), 2.0))
    assert np.all(gx == 0.0) and np.all(gy == 0.0)


def test_spatial_gradient_ramp():
    img = np.tile(np.arange(6, dtype=np.float64), (4, 1))
    gx, gy = _zero_flow_gradient(img)
    assert np.all(gx[:, 1:-1] == 1.0)
    assert np.all(gx[:, 0] == 0.5) and np.all(gx[:, -1] == 0.5)
    assert np.all(gy == 0.0)


def test_spatial_gradient_vertical_ramp_has_no_x_component():
    img = np.tile(np.arange(5, dtype=np.float64)[:, None], (1, 6))
    gx, _ = _zero_flow_gradient(img)
    assert np.all(gx == 0.0)


# ---------------------------------------------------------------------------
# warping


def test_warp_previous_zero_flow_identity():
    rng = np.random.default_rng(5)
    for shape in ((6, 7), (1, 5), (4, 1), (64, 64)):
        img = rng.normal(size=shape)
        out = losses.warp_previous(img, np.zeros((2, *shape)))
        assert out.shape == (3, *shape)
        assert np.array_equal(out.data, _gradient_stack(img))


def test_warp_previous_of_a_parameter_frame_adds_five_nodes():
    # The frame lifted to one channel, the gather that replicates its
    # border, one correlation, the crop of its outer ring and one sample.
    frame = trainable("frame", np.random.default_rng(14).normal(size=(6, 7)))
    out = losses.warp_previous(frame, np.ones((2, 6, 7)))
    assert len([node for node in ad._toposort(out) if node is not frame._node]) == 5


def test_warp_previous_shifts_ramp():
    img = np.tile(np.arange(8, dtype=np.float64), (5, 1))
    flow = np.zeros((2, 5, 8))
    flow[0] = 1.0
    out = losses.warp_previous(img, flow)
    assert np.allclose(out.data[0, :, 1:], img[:, 1:] - 1.0)
    assert np.allclose(out.data[1, :, 2:-1], 1.0)  # clear of the border columns
    assert np.all(out.data[2] == 0.0)


def test_warp_previous_constant_image_unchanged():
    flow = np.random.default_rng(6).normal(size=(2, 5, 5)) * 3.0
    out = losses.warp_previous(np.full((5, 5), 4.2), flow)
    assert np.allclose(out.data[0], 4.2)
    assert np.all(out.data[1:] == 0.0)


def test_warp_previous_rows_match_separate_warps():
    # One sample of the stack [L, dL/dx, dL/dy] is, row by row, the sample
    # of each image alone on the same grid.
    rng = np.random.default_rng(13)
    img = rng.normal(size=(6, 7))
    flow = rng.normal(size=(2, 6, 7)) * 2.0
    rows, cols = np.mgrid[0:6, 0:7]
    grid = np.stack([cols - flow[0], rows - flow[1]])
    out = losses.warp_previous(img, flow).data
    for row, image in zip(out, _gradient_stack(img)):
        assert np.array_equal(row, ad.bilinear_sample(image[None], grid).data[0])


# ---------------------------------------------------------------------------
# predicted increment


def _predicted(l_prev, flow):
    return losses.predicted_increment(losses.warp_previous(l_prev, flow), flow)


def test_predicted_increment_zero_flow():
    rng = np.random.default_rng(7)
    img = rng.normal(size=(6, 6))
    out = _predicted(img, np.zeros((2, 6, 6)))
    assert np.all(out.data == 0.0)


def test_predicted_increment_flow_parallel_to_edge():
    # Horizontal edges only (gradient along y); flow along x generates nothing.
    img = np.tile(np.arange(6, dtype=np.float64)[:, None], (1, 6))
    flow = np.zeros((2, 6, 6))
    flow[0] = 2.0
    out = _predicted(img, flow)
    assert np.allclose(out.data, 0.0)


def test_predicted_increment_ramp_value():
    img = np.tile(np.arange(8, dtype=np.float64), (6, 1))
    flow = np.zeros((2, 6, 8))
    flow[0] = 1.5
    out = _predicted(img, flow)
    # Columns whose warp source stays clear of the replicated border.
    assert np.allclose(out.data[:, 3:-1], -1.5)


def test_predicted_increment_gradient_flows_to_previous_image():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        img = trainable("img", rng.normal(size=(6, 6)))
        flow = rng.uniform(-1.2, 1.2, size=(2, 6, 6)) + 0.31
        check_gradients(lambda: ad.sum_of_squares(_predicted(img, flow)), [img])


# ---------------------------------------------------------------------------
# photometric / temporal / tv


def test_photometric_identical_zero():
    rng = np.random.default_rng(8)
    img = rng.normal(size=(5, 5))
    assert losses.photometric_loss(img, img.copy()).item() == 0.0


def test_photometric_single_pixel_unit_difference():
    a = np.zeros((5, 5))
    b = np.zeros((5, 5))
    b[2, 3] = 1.0
    assert losses.photometric_loss(a, b).item() == 1.0
    assert losses.photometric_loss(b, a).item() == 1.0  # symmetric


def test_photometric_shape_mismatch():
    with pytest.raises(ValueError):
        losses.photometric_loss(np.zeros((4, 4)), np.zeros((5, 5)))


def test_temporal_warp_match_is_zero():
    img = np.tile(np.arange(8, dtype=np.float64), (5, 1))
    flow = np.zeros((2, 5, 8))
    flow[0] = 1.0
    warped = losses.warp_previous(img, flow)
    assert losses.temporal_loss(warped.data[0], warped).item() == 0.0
    assert losses.temporal_loss(img[:, 1:] - 1.0, warped[:, :, 1:]).item() \
        == pytest.approx(0.0)


def test_temporal_identical_frames_zero_flow():
    rng = np.random.default_rng(9)
    img = rng.normal(size=(6, 6))
    warped = losses.warp_previous(img.copy(), np.zeros((2, 6, 6)))
    assert losses.temporal_loss(img, warped).item() == pytest.approx(0.0)


def test_temporal_constant_offset():
    img = np.zeros((4, 5))
    warped = losses.warp_previous(img, np.zeros((2, 4, 5)))
    assert losses.temporal_loss(img + 0.3, warped).item() == pytest.approx(0.3 * 20)


def test_tv_constant_zero():
    assert losses.tv_loss(np.full((5, 5), 3.0)).item() == 0.0


def test_tv_single_step():
    img = np.zeros((4, 6))
    img[:, 3:] = 1.0  # one vertical step edge: 4 horizontal differences of 1
    assert losses.tv_loss(img).item() == 4.0


def test_tv_homogeneity():
    rng = np.random.default_rng(10)
    img = rng.normal(size=(6, 6))
    assert losses.tv_loss(3.0 * img).item() == pytest.approx(3.0 * losses.tv_loss(img).item())


def test_recon_term_gradients():
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        cur = trainable("cur", rng.normal(size=(6, 6)))
        prev = trainable("prev", rng.normal(size=(6, 6)))
        flow = rng.uniform(-1.1, 1.1, size=(2, 6, 6)) + 0.17
        ref = rng.normal(size=(6, 6))
        check_gradients(lambda: losses.photometric_loss(ref, _predicted(prev, flow)), [prev])
        # L1 terms: keep arguments away from the |.| kink.
        gap = np.abs(cur.data - losses.warp_previous(prev.data, flow).data[0])
        if gap.min() > 1e-3:
            check_gradients(
                lambda: losses.temporal_loss(cur, losses.warp_previous(prev, flow)),
                [cur, prev])
        check_gradients(lambda: losses.tv_loss(cur), [cur])


# ---------------------------------------------------------------------------
# unrolled total


def test_recon_total_single_step_reduces_to_photometric():
    weights = LossWeights(lambda2=0.0, lambda3=0.0)
    total, report = losses.recon_total_loss(Tensor(2.5), Tensor(9.9), Tensor(1.1), weights)
    assert total.item() == pytest.approx(2.5)
    assert report.terms["photometric"] == 2.5


def test_recon_total_tc_window():
    # The temporal sum, over steps S0..S only, enters scaled by lambda2 and
    # is reported unweighted.
    weights = LossWeights(lambda2=0.5, lambda3=0.0)
    total, report = losses.recon_total_loss(Tensor(0.0), Tensor(3.0), Tensor(0.0), weights)
    assert total.item() == 1.5
    assert report.terms["temporal"] == 3.0 and report.total == weights.lambda2 * 3.0


def test_recon_total_bookkeeping_and_bounds():
    weights = LossWeights(lambda2=0.25, lambda3=0.5)
    total, report = losses.recon_total_loss(Tensor(3.0), Tensor(7.0), Tensor(11.0), weights)
    assert total.item() == pytest.approx(3.0 + 0.25 * 7.0 + 0.5 * 11.0)
    assert report.total == pytest.approx(report.terms["photometric"]
                                         + weights.lambda2 * report.terms["temporal"]
                                         + weights.lambda3 * report.terms["tv"])
    # S0 beyond S is rejected where the window is configured.
    with pytest.raises(ValueError, match="S0"):
        TrainConfig(unroll_steps=1, tc_start_step=5)


# ---------------------------------------------------------------------------
# intensity normalization


def test_normalize_constant_image_is_half():
    out = losses.normalize_intensity(np.full((8, 8), -3.7))
    assert np.all(out == 0.5)


def test_normalize_output_range():
    rng = np.random.default_rng(11)
    out = losses.normalize_intensity(rng.normal(size=(32, 32)))
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_normalize_ramp_percentile_clipping():
    # 100-pixel linear ramp: the stated interpolation rule puts the 1%/99%
    # cuts inside the first/last gaps, so exactly one pixel saturates at
    # each end.
    l_hat = np.linspace(0.0, 2.0, 100).reshape(10, 10)
    out = losses.normalize_intensity(l_hat)
    flat = out.ravel()
    assert flat[0] == 0.0 and flat[-1] == 1.0
    assert int((flat == 0.0).sum()) == 1
    assert int((flat == 1.0).sum()) == 1

    # Independent oracle: percentiles by hand, no max-shift stabilization.
    intensity = np.exp(l_hat)
    srt = np.sort(intensity.ravel())
    pos_lo = 0.01 * 99
    pos_hi = 0.99 * 99
    m = srt[0] + (pos_lo - int(pos_lo)) * (srt[1] - srt[0])
    hi_k = int(pos_hi)
    big = srt[hi_k] + (pos_hi - hi_k) * (srt[hi_k + 1] - srt[hi_k])
    expected = np.clip((intensity - m) / (big - m), 0.0, 1.0)
    assert np.allclose(out, expected, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-8192, 8192))
def test_normalize_shift_invariance_exact_on_lattice(seed, shift_ticks):
    # Values on a 2^-20 lattice, shift on a 2^-10 lattice: the addition is
    # exact in float64, so the outputs must be bit-identical.
    rng = np.random.default_rng(seed)
    l_hat = rng.integers(-4 << 20, 4 << 20, size=(12, 12)) / float(1 << 20)
    c = shift_ticks / float(1 << 10)
    a = losses.normalize_intensity(l_hat)
    b = losses.normalize_intensity(l_hat + c)
    assert np.array_equal(a, b)


def test_normalize_shift_invariance_general_floats():
    # Arbitrary shifts round the inputs themselves, so equality is only up
    # to a few ulps after exp and the percentile interpolation.
    rng = np.random.default_rng(12)
    for _ in range(20):
        l_hat = rng.normal(size=(16, 16)) * 2.0
        c = rng.uniform(-30.0, 30.0)
        a = losses.normalize_intensity(l_hat)
        b = losses.normalize_intensity(l_hat + c)
        np.testing.assert_allclose(a, b, atol=1e-11)


def test_photometric_with_ground_truth_beats_zero_flow(blob_scene, blob_partitions):
    # Matched thresholds keep the reference increment on the same scale as
    # the true brightness change; the smooth scene keeps the linearized
    # constancy valid over one partition of motion.
    weights = LossWeights(c_pos=blob_scene.contrast, c_neg=blob_scene.contrast)
    for part in blob_partitions[2:10]:
        gt = synth.ground_truth_flow(blob_scene, part)
        l_prev = synth.ground_truth_frame(blob_scene, int(part.t[0]))
        loss_gt = losses.photometric_loss(
            losses.reference_increment(part, gt, weights),
            _predicted(l_prev, gt)).item()
        loss_zero = losses.photometric_loss(
            losses.reference_increment(part, np.zeros((2, 64, 64)), weights),
            _predicted(l_prev, np.zeros((2, 64, 64)))).item()
        assert loss_gt < loss_zero
