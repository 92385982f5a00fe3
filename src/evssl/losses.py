"""Training objectives: contrast maximization for flow, photometric
constancy plus temporal-consistency and total-variation terms for
reconstruction, and the percentile intensity normalization.

Flow entering any reconstruction-side term must be detached; the two
networks only share information through values, never gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .events import EventStream
from .geometry import accumulate_warped_images, as_flow, average_iwe, warp_events

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
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ValueError("loss weights must be non-negative")
        if self.c_pos <= 0 or self.c_neg <= 0:
            raise ValueError("contrast thresholds must be positive")


@dataclass
class LossReport:
    """Named raw term values and the weighted total."""

    terms: dict[str, float] = field(default_factory=dict)
    weights: dict[str, float] = field(default_factory=dict)
    total: float = 0.0


def contrast_loss(partition: EventStream, flow) -> Tensor:
    """Sum of squared per-polarity average-timestamp images, accumulated
    with events warped both forward (t_ref=1) and backward (t_ref=0)."""
    if len(partition) == 0:
        return Tensor(0.0)
    flow_t = as_flow(flow)
    total = None
    for t_ref in (1.0, 0.0):
        images = accumulate_warped_images(partition, warp_events(partition, flow_t, t_ref))
        term = ad.add(ad.sum_of_squares(images.t_pos), ad.sum_of_squares(images.t_neg))
        total = term if total is None else ad.add(total, term)
    return total


def charbonnier_smoothness(flow, eta: float = CHARBONNIER_ETA) -> Tensor:
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
    eta2 = eta * eta
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


def event_count_increment(partition: EventStream, weights: LossWeights) -> np.ndarray:
    """Plain per-pixel event integration: c_pos*N+ - c_neg*N- (no warping)."""
    geom = partition.geometry
    w = geom.width
    pix = partition.y.astype(np.int64) * w + partition.x.astype(np.int64)
    out = np.zeros(geom.height * w)
    pos = partition.p > 0
    if pos.any():
        out += weights.c_pos * np.bincount(pix[pos], minlength=out.size)
    if (~pos).any():
        out -= weights.c_neg * np.bincount(pix[~pos], minlength=out.size)
    return out.reshape(geom.height, w)


def reference_increment(partition: EventStream, flow, weights: LossWeights) -> Tensor:
    """Brightness-increment image the reconstruction is trained against.

    With deblurring, events are warped to the partition end and averaged
    per contributing source pixel before integration; without it (ablation)
    the raw per-pixel polarity sums are integrated directly. The flow is
    detached either way.
    """
    if not weights.deblur_enabled:
        return Tensor(event_count_increment(partition, weights))
    flow_t = as_flow(flow).detach()
    images = accumulate_warped_images(partition, warp_events(partition, flow_t, 1.0))
    g_pos, g_neg = average_iwe(images)
    return ad.sub(ad.mul(g_pos, weights.c_pos), ad.mul(g_neg, weights.c_neg))


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


def warp_previous(image, flow) -> Tensor:
    """Backward-warp an image by the (detached) flow: out(x) = in(x - u(x))."""
    img = image if isinstance(image, Tensor) else Tensor(image)
    h, w = img.shape
    fd = as_flow(flow).data
    gy, gx = np.mgrid[0:h, 0:w].astype(np.float64)
    grid = np.stack([gx - fd[0], gy - fd[1]])
    sampled = ad.bilinear_sample(ad.reshape(img, (1, h, w)), grid)
    return ad.reshape(sampled, (h, w))


def predicted_increment(l_prev, flow) -> Tensor:
    """Photometric-constancy prediction: minus the dot product of the
    forward-warped spatial gradients of the previous reconstruction with
    the (detached) flow."""
    gx, gy = spatial_gradient(l_prev)
    fd = as_flow(flow).data
    wx = warp_previous(gx, fd)
    wy = warp_previous(gy, fd)
    return ad.mul(ad.add(ad.mul(wx, fd[0]), ad.mul(wy, fd[1])), -1.0)


def photometric_loss(reference, predicted) -> Tensor:
    """Squared L2 norm of the increment difference, summed over pixels."""
    ref = reference if isinstance(reference, Tensor) else Tensor(reference)
    pred = predicted if isinstance(predicted, Tensor) else Tensor(predicted)
    return ad.sum_of_squares(ad.sub(ref, pred))


def temporal_loss(l_k, l_prev, flow) -> Tensor:
    """L1 photometric error against the flow-warped previous reconstruction."""
    cur = l_k if isinstance(l_k, Tensor) else Tensor(l_k)
    return ad.tsum(ad.absolute(ad.sub(cur, warp_previous(l_prev, flow))))


def tv_loss(image) -> Tensor:
    """Anisotropic total variation with forward differences."""
    img = image if isinstance(image, Tensor) else Tensor(image)
    dx = ad.sub(img[:, 1:], img[:, :-1])
    dy = ad.sub(img[1:, :], img[:-1, :])
    return ad.add(ad.tsum(ad.absolute(dx)), ad.tsum(ad.absolute(dy)))


def recon_total_loss(pe_terms: list[Tensor], tc_terms: list[Tensor],
                     tv_terms: list[Tensor], weights: LossWeights,
                     tc_start: int) -> tuple[Tensor, LossReport]:
    """Unrolled reconstruction objective over steps k = 0..S.

    Photometric and TV terms cover every step; temporal consistency only
    from step `tc_start` (S0) onward.
    """
    s = len(pe_terms) - 1
    if s < 0:
        raise ValueError("at least one unroll step required")
    if not (len(tc_terms) == len(tv_terms) == s + 1):
        raise ValueError("per-step term lists must have equal length")
    if not 0 <= tc_start <= s:
        raise ValueError(f"S0={tc_start} must lie in [0, S={s}]")

    def _sum(ts):
        acc = ts[0]
        for t in ts[1:]:
            acc = ad.add(acc, t)
        return acc

    pe = _sum(pe_terms)
    tv = _sum(tv_terms)
    tc = _sum(tc_terms[tc_start:])
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
