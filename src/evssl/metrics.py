"""Evaluation metrics: endpoint error, frame quality, flow color coding."""

from __future__ import annotations

import numpy as np

from .geometry import as_flow

OUTLIER_THRESHOLD_PX = 3.0
SSIM_C1, SSIM_C2 = 0.01 ** 2, 0.03 ** 2  # (k1 L)^2 and (k2 L)^2 for data range L = 1


def flow_metrics(flow, gt_flow, valid_mask: np.ndarray) -> tuple[float, float]:
    """Average endpoint error (px) and percentage of errors above 3 px."""
    u, v = as_flow(flow).data
    gu, gv = as_flow(gt_flow).data
    valid_mask = np.asarray(valid_mask)
    if u.shape != gu.shape or u.shape != valid_mask.shape:
        raise ValueError("flow, ground truth and mask shapes differ")
    if valid_mask.dtype != bool:  # an integer mask would index pixels by value
        raise ValueError(f"valid_mask must be boolean, got {valid_mask.dtype}")
    if not valid_mask.any():
        raise ValueError("no valid pixels for flow metrics")
    err = np.hypot(u - gu, v - gv)[valid_mask]
    aee = float(err.mean())
    outliers = float(100.0 * np.mean(err > OUTLIER_THRESHOLD_PX))
    return aee, outliers


def _gaussian_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    r = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    window = np.outer(g, g)
    return window / window.sum()


def _window_filter(image: np.ndarray, window: np.ndarray) -> np.ndarray:
    # 'valid'-mode correlation; SSIM statistics use only full windows.
    view = np.lib.stride_tricks.sliding_window_view(image, window.shape)
    return np.tensordot(view, window, axes=((2, 3), (0, 1)))


def ssim(a, b) -> float:
    """Mean local SSIM of images in [0,1], 11x11 Gaussian window, sigma 1.5."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    window = _gaussian_window()
    if a.shape[0] < window.shape[0] or a.shape[1] < window.shape[1]:
        raise ValueError("image smaller than the 11x11 SSIM window")
    mu_a = _window_filter(a, window)
    mu_b = _window_filter(b, window)
    var_a = _window_filter(a * a, window) - mu_a * mu_a
    var_b = _window_filter(b * b, window) - mu_b * mu_b
    cov = _window_filter(a * b, window) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float(np.mean(num / den))


def frame_metrics(recon, gt) -> tuple[float, float]:
    """MSE and SSIM between two images normalized to [0,1]."""
    recon, gt = np.asarray(recon, dtype=np.float64), np.asarray(gt, dtype=np.float64)
    if recon.shape != gt.shape:
        raise ValueError(f"shape mismatch: {recon.shape} vs {gt.shape}")
    mse = float(np.mean((recon - gt) ** 2))
    return mse, ssim(recon, gt)
