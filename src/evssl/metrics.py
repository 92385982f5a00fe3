"""Evaluation metrics: endpoint error, frame quality, flow color coding."""

from __future__ import annotations

import numpy as np

from .geometry import as_flow

OUTLIER_THRESHOLD_PX = 3.0


def flow_metrics(flow, gt_flow, valid_mask: np.ndarray) -> tuple[float, float]:
    """Average endpoint error (px) and percentage of errors above 3 px."""
    u, v = as_flow(flow).data
    gu, gv = as_flow(gt_flow).data
    if u.shape != gu.shape or u.shape != valid_mask.shape:
        raise ValueError("flow, ground truth and mask shapes differ")
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


def ssim(a: np.ndarray, b: np.ndarray, k1: float = 0.01, k2: float = 0.03,
         data_range: float = 1.0) -> float:
    """Mean local SSIM with an 11x11 Gaussian window, sigma 1.5."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    window = _gaussian_window()
    if a.shape[0] < window.shape[0] or a.shape[1] < window.shape[1]:
        raise ValueError("image smaller than the 11x11 SSIM window")
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    mu_a = _window_filter(a, window)
    mu_b = _window_filter(b, window)
    var_a = _window_filter(a * a, window) - mu_a * mu_a
    var_b = _window_filter(b * b, window) - mu_b * mu_b
    cov = _window_filter(a * b, window) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def frame_metrics(recon: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """MSE and SSIM between two images normalized to [0,1]."""
    if recon.shape != gt.shape:
        raise ValueError(f"shape mismatch: {recon.shape} vs {gt.shape}")
    mse = float(np.mean((recon - gt) ** 2))
    return mse, ssim(recon, gt)


def flow_color_code(flow) -> np.ndarray:
    """Direction as hue, speed as brightness; H x W x 3 floats in [0,1].

    Zero flow everywhere maps to black.
    """
    u, v = as_flow(flow).data
    mag = np.hypot(u, v)
    peak = mag.max()
    value = mag / peak if peak > 0 else np.zeros_like(mag)
    hue = np.degrees(np.arctan2(v, u)) % 360.0

    # HSV -> RGB with saturation 1.
    h6 = hue / 60.0
    sector = np.floor(h6).astype(int) % 6
    f = h6 - np.floor(h6)
    p = np.zeros_like(value)
    q = value * (1.0 - f)
    t = value * f
    channels = {
        0: (value, t, p), 1: (q, value, p), 2: (p, value, t),
        3: (p, q, value), 4: (t, p, value), 5: (value, p, q),
    }
    rgb = np.zeros((*value.shape, 3))
    for s, (r, g, b) in channels.items():
        m = sector == s
        rgb[m, 0] = r[m]
        rgb[m, 1] = g[m]
        rgb[m, 2] = b[m]
    return rgb
