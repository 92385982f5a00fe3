import numpy as np
import pytest

from evssl import metrics
from evssl.autodiff import Tensor
from evssl.geometry import FlowField


def _flows(seed=0, shape=(12, 14)):
    rng = np.random.default_rng(seed)
    flow = rng.normal(scale=3.0, size=(2, *shape))
    gt = rng.normal(scale=3.0, size=(2, *shape))
    mask = rng.random(shape) > 0.3
    return flow, gt, mask


# ---------------------------------------------------------------------------
# endpoint error


def test_flow_metrics_same_for_every_flow_form():
    flow, gt, mask = _flows()
    expected = metrics.flow_metrics(flow, gt, mask)
    forms = [FlowField(flow[0], flow[1]), Tensor(flow)]
    for form in forms:
        assert metrics.flow_metrics(form, FlowField(gt[0], gt[1]), mask) == expected
        assert metrics.flow_metrics(form, Tensor(gt), mask) == expected


def test_flow_metrics_reference_values():
    flow = np.zeros((2, 4, 4))
    gt = np.zeros((2, 4, 4))
    gt[0, 0, :2] = [3.0, 4.0]
    gt[1, 0, :2] = [4.0, 0.0]
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, :4] = True
    aee, outliers = metrics.flow_metrics(flow, gt, mask)
    assert aee == pytest.approx((5.0 + 4.0) / 4)
    assert outliers == pytest.approx(50.0)


def test_flow_metrics_shape_mismatch():
    flow, gt, mask = _flows()
    with pytest.raises(ValueError, match="shapes differ"):
        metrics.flow_metrics(flow, gt[:, :-1], mask)
    with pytest.raises(ValueError, match="shapes differ"):
        metrics.flow_metrics(flow, gt, mask[:-1])


def test_flow_metrics_rejects_non_flow_shape():
    _, gt, mask = _flows()
    with pytest.raises(ValueError, match=r"\(2,H,W\)"):
        metrics.flow_metrics(np.zeros((3, *mask.shape)), gt, mask)


def test_flow_metrics_rejects_non_boolean_mask():
    # A uint8 copy of a one-pixel mask would index pixels 0 and 1 by value.
    flow, gt, _ = _flows()
    mask = np.zeros(flow.shape[1:], dtype=bool)
    mask[5, 6] = True
    metrics.flow_metrics(flow, gt, mask)
    with pytest.raises(ValueError, match="boolean"):
        metrics.flow_metrics(flow, gt, mask.astype(np.uint8))
    with pytest.raises(ValueError, match="boolean"):
        metrics.flow_metrics(flow, gt, mask.astype(np.uint8).tolist())
    assert metrics.flow_metrics(flow, gt, mask.tolist()) == metrics.flow_metrics(flow, gt, mask)


def test_flow_metrics_empty_mask():
    flow, gt, mask = _flows()
    with pytest.raises(ValueError, match="no valid pixels"):
        metrics.flow_metrics(flow, gt, np.zeros_like(mask))


# ---------------------------------------------------------------------------
# SSIM and frame metrics


def test_ssim_identity_is_one():
    a = np.random.default_rng(1).random((16, 16))
    assert metrics.ssim(a, a) == pytest.approx(1.0)


def test_ssim_symmetric_and_below_one_for_different_images():
    rng = np.random.default_rng(2)
    a, b = rng.random((20, 18)), rng.random((20, 18))
    assert metrics.ssim(a, b) == pytest.approx(metrics.ssim(b, a))
    assert metrics.ssim(a, b) < 1.0


@pytest.mark.parametrize("shape", [(10, 16), (16, 10)])
def test_ssim_rejects_images_below_window(shape):
    a = np.zeros(shape)
    with pytest.raises(ValueError, match="11x11"):
        metrics.ssim(a, a)


def test_ssim_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        metrics.ssim(np.zeros((12, 12)), np.zeros((12, 13)))


def test_frame_metrics_mse():
    a = np.full((12, 12), 0.25)
    b = np.full((12, 12), 0.75)
    mse, _ = metrics.frame_metrics(a, b)
    assert mse == pytest.approx(0.25)


@pytest.mark.parametrize("shape", [(12, 13), (13, 12), (1, 12, 12)])
def test_frame_metrics_shape_mismatch(shape):
    with pytest.raises(ValueError, match="shape mismatch"):
        metrics.frame_metrics(np.zeros((12, 12)), np.zeros(shape))


def test_frame_metrics_and_ssim_accept_nested_lists():
    rng = np.random.default_rng(0)
    a, b = rng.random((12, 12)), rng.random((12, 12))
    assert metrics.frame_metrics(a.tolist(), b.tolist()) == metrics.frame_metrics(a, b)
    assert metrics.ssim(a.tolist(), b.tolist()) == metrics.ssim(a, b)
