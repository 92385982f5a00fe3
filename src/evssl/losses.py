"""Training objectives: contrast maximization for flow; photometric
constancy, temporal consistency and total variation for reconstruction;
the percentile intensity normalization.

Each reconstruction step warps the previous frame and its gradient once
(`warp_previous`); the photometric and temporal terms read rows of that
sample. Its flow is detached: the two networks share values, never gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .events import EventStream
from .geometry import EPS, accumulate_warped_images, as_flow, source_pixel_counts

CHARBONNIER_ETA = 1e-3


@dataclass(frozen=True)
class LossWeights:
    lambda1: float = 1.0   # flow smoothness
    lambda2: float = 0.1   # temporal consistency
    lambda3: float = 0.05  # total variation
    c_pos: float = 1.0     # positive contrast threshold
    c_neg: float = 1.0
    deblur_enabled: bool = True

    def __post_init__(self):
        # Chained comparisons so that NaN and infinity fail too.
        if not all(0 <= w < math.inf for w in (self.lambda1, self.lambda2, self.lambda3)):
            raise ValueError("loss weights must be finite and non-negative")
        if not all(0 < c < math.inf for c in (self.c_pos, self.c_neg)):
            raise ValueError("contrast thresholds must be finite and positive")


@dataclass
class LossReport:
    """Named raw term values and the weighted total."""

    terms: dict[str, float] = field(default_factory=dict)
    weights: dict[str, float] = field(default_factory=dict)
    total: float = 0.0


def contrast_loss(partition: EventStream, flow) -> Tensor:
    """Sum of squared per-polarity average-timestamp images T = W/(H+eps),
    W the t*-weighted counts, accumulated with events warped both forward
    (t_ref=1) and backward (t_ref=0). No events give exactly 0."""
    total = None
    for t_ref in (1.0, 0.0):
        img = accumulate_warped_images(partition, flow, t_ref, partition.t_star)
        term = ad.sum_of_squares(ad.div(img[2:], ad.add(img[:2], EPS)))
        total = term if total is None else ad.add(total, term)
    return total


def charbonnier_smoothness(flow) -> Tensor:
    """Charbonnier penalty on forward differences of the flow field.

    Each valid difference location contributes sqrt(|du|^2 + |dv|^2 + eta^2)
    - eta, combining both flow components; the result is the mean over all
    horizontal and vertical difference locations.
    """
    f = as_flow(flow)
    _, h, w = f.shape
    n_loc = h * (w - 1) + w * (h - 1)
    if n_loc == 0:
        return Tensor(0.0)
    eta, eta2 = CHARBONNIER_ETA, CHARBONNIER_ETA * CHARBONNIER_ETA
    dx = ad.sub(f[:, :, 1:], f[:, :, :-1])
    dy = ad.sub(f[:, 1:, :], f[:, :-1, :])
    sx = ad.sub(ad.sqrt(ad.add(ad.add(ad.square(dx[0]), ad.square(dx[1])), eta2)), eta)
    sy = ad.sub(ad.sqrt(ad.add(ad.add(ad.square(dy[0]), ad.square(dy[1])), eta2)), eta)
    return ad.div(ad.add(ad.tsum(sx), ad.tsum(sy)), float(n_loc))


def flow_total_loss(partition: EventStream, flow,
                    weights: LossWeights) -> tuple[Tensor, LossReport]:
    contrast = contrast_loss(partition, flow)
    smooth = charbonnier_smoothness(flow)
    total = ad.add(contrast, ad.mul(smooth, weights.lambda1))
    report = LossReport(
        terms={"contrast": contrast.item(), "smoothness": smooth.item()},
        weights={"contrast": 1.0, "smoothness": weights.lambda1},
        total=total.item())
    return total, report


def reference_increment(partition: EventStream, flow, weights: LossWeights) -> Tensor:
    """Brightness-increment image the reconstruction is trained against.

    With deblurring, events are warped to the partition end and averaged
    per contributing source pixel before integration; without it (ablation)
    the per-pixel event counts of a zero-flow accumulation are integrated
    directly. The flow is detached either way.
    """
    flow = as_flow(flow).data
    if not weights.deblur_enabled:
        # Zero flow leaves every event on its integer pixel with weight 1.
        flow = np.zeros_like(flow)
    img = accumulate_warped_images(partition, flow, 1.0,
                                   1.0 / source_pixel_counts(partition)).data
    # Deblurred: the average number of warped events per contributing
    # source pixel, G = H/(P+eps), P the splat of 1/source_pixel_counts.
    g = img[:2] / (img[2:] + EPS) if weights.deblur_enabled else img[:2]
    return Tensor(g[0] * weights.c_pos - g[1] * weights.c_neg)


def spatial_gradient(image) -> tuple[Tensor, Tensor]:
    """Central differences with replicated borders; returns (d/dx, d/dy)."""
    img = image if isinstance(image, Tensor) else Tensor(image)
    right = ad.concat([img[:, 1:], img[:, -1:]], axis=1)
    left = ad.concat([img[:, :1], img[:, :-1]], axis=1)
    down = ad.concat([img[1:, :], img[-1:, :]], axis=0)
    up = ad.concat([img[:1, :], img[:-1, :]], axis=0)
    gx = ad.mul(ad.sub(right, left), 0.5)
    gy = ad.mul(ad.sub(down, up), 0.5)
    return gx, gy


def warp_previous(l_prev, flow) -> Tensor:
    """The previous reconstruction and its spatial gradient, backward-warped
    by the (detached) flow, out(x) = in(x - u(x)), in one bilinear sample.

    Returns a (3,H,W) Tensor with rows [L, dL/dx, dL/dy]: the photometric
    term reads rows 1 and 2, the temporal term row 0.
    """
    gx, gy = spatial_gradient(l_prev)
    h, w = gx.shape
    fd = as_flow(flow).data
    rows, cols = np.mgrid[0:h, 0:w]
    grid = np.stack([cols - fd[0], rows - fd[1]])
    return ad.bilinear_sample(ad.reshape(ad.concat([l_prev, gx, gy]), (3, h, w)), grid)


def predicted_increment(warped, flow) -> Tensor:
    """Photometric-constancy prediction: minus the dot product of the warped
    spatial gradient (rows 1 and 2 of `warp_previous`) with the
    (detached) flow."""
    fd = as_flow(flow).data
    return ad.mul(ad.add(ad.mul(warped[1], fd[0]), ad.mul(warped[2], fd[1])), -1.0)


def photometric_loss(reference, predicted) -> Tensor:
    """Squared L2 norm of the increment difference, summed over pixels."""
    return ad.sum_of_squares(ad.sub(reference, predicted))


def temporal_loss(l_k, warped) -> Tensor:
    """L1 error of the current reconstruction against the warped previous
    one (row 0 of `warp_previous`)."""
    return ad.tsum(ad.absolute(ad.sub(l_k, warped[0])))


def tv_loss(image) -> Tensor:
    """Anisotropic total variation with forward differences."""
    img = image if isinstance(image, Tensor) else Tensor(image)
    dx = ad.sub(img[:, 1:], img[:, :-1])
    dy = ad.sub(img[1:, :], img[:-1, :])
    return ad.add(ad.tsum(ad.absolute(dx)), ad.tsum(ad.absolute(dy)))


def recon_total_loss(pe: Tensor, tc: Tensor, tv: Tensor,
                     weights: LossWeights) -> tuple[Tensor, LossReport]:
    """Unrolled reconstruction objective from its summed terms: photometric
    and TV over steps k = 0..S, temporal consistency over k = S0..S."""
    total = ad.add(pe, ad.add(ad.mul(tc, weights.lambda2), ad.mul(tv, weights.lambda3)))
    report = LossReport(
        terms={"photometric": pe.item(), "temporal": tc.item(), "tv": tv.item()},
        weights={"photometric": 1.0, "temporal": weights.lambda2, "tv": weights.lambda3},
        total=total.item())
    return total, report


def normalize_intensity(l_hat: np.ndarray) -> np.ndarray:
    """Map an unbounded log-brightness image to [0,1] via exp and the
    1%/99% intensity percentiles; a constant image maps to all 0.5.

    The log image is shifted by its maximum before exponentiation, which
    both avoids overflow and makes the result exactly shift-invariant
    whenever the shift itself is exact in floating point.
    """
    l_hat = np.asarray(l_hat, dtype=np.float64)
    intensity = np.exp(l_hat - l_hat.max())
    lo, hi = np.percentile(intensity, (1.0, 99.0))
    if hi == lo:
        return np.full_like(intensity, 0.5)
    return np.clip((intensity - lo) / (hi - lo), 0.0, 1.0)
