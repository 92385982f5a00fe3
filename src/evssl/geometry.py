"""Voxel-grid encoding, differentiable event warping, and warped-event images.

The voxel grid and event mask are plain numpy (network inputs). Warping
and accumulation run through the autodiff graph so the contrast loss
stays differentiable in the flow field. Events are warped once per
reference time into one (2,N) position Tensor, and all of them are
splatted once: polarity is a row of the splat, not a selection of
events. The rows are the per-polarity counts and per-polarity sums of
one per-event weight, and each consumer reads the rows it needs: the
contrast loss weights by timestamp, the deblurred reference increment
by inverse source-pixel count. FWL reads two count images, each one
splat of all events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .events import EventStream, check_number

# Divisions the formulation writes with an "epsilon close to zero";
# 1e-9 sits far below any event count.
EPS = 1e-9


@dataclass(frozen=True)
class FlowField:
    """Per-pixel displacement in pixels per unit of normalized partition time."""

    u: np.ndarray  # H x W
    v: np.ndarray

    def as_array(self) -> np.ndarray:
        return np.stack([self.u, self.v])


def _require_normalized(partition: EventStream) -> None:
    if partition.t_star is None:
        raise ValueError("partition is not normalized; call normalize_timestamps first")


def as_flow(flow) -> Tensor:
    """The one flow representation: a (2,H,W) Tensor of (u, v).

    Accepts a FlowField, a (2,H,W) array or a Tensor; a Tensor passes
    through unchanged, so its graph history is kept.
    """
    if isinstance(flow, FlowField):
        flow = flow.as_array()
    t = flow if isinstance(flow, Tensor) else Tensor(flow)
    if t.ndim != 3 or t.shape[0] != 2:
        raise ValueError(f"flow must have shape (2,H,W), got {t.shape}")
    return t


def check_bin_count(bins) -> None:
    """The one rule for a voxel grid's bin count, checked wherever one is
    set: an integer of at least 2."""
    check_number("bins", bins, integer=True, low=2)


def build_voxel_grid(partition: EventStream, bins: int) -> np.ndarray:
    """Spread each event's polarity over the two nearest of B temporal bins.

    Kernel weights max(0, 1-|t_b - t*(B-1)|) partition unity, so summing
    the grid over bins recovers the per-pixel signed polarity sum.
    """
    _require_normalized(partition)
    check_bin_count(bins)
    h, w = partition.geometry.height, partition.geometry.width
    tb = partition.t_star * (bins - 1)
    b0 = np.minimum(np.floor(tb).astype(np.int64), bins - 1)
    w1 = tb - b0
    pix = partition.y.astype(np.int64) * w + partition.x.astype(np.int64)
    pol = partition.p.astype(np.float64)
    grid = np.bincount(b0 * (h * w) + pix, weights=pol * (1.0 - w1), minlength=bins * h * w)
    hi = b0 + 1 < bins
    grid += np.bincount((b0[hi] + 1) * (h * w) + pix[hi],
                        weights=pol[hi] * w1[hi], minlength=bins * h * w)
    return grid.reshape(bins, h, w)


def event_mask(voxel: np.ndarray) -> np.ndarray:
    """True where the voxel grid carries any signed polarity mass."""
    return np.abs(voxel).sum(axis=0) > 0


def warp_events(partition: EventStream, flow, t_ref: float) -> Tensor:
    """Propagate events to t_ref: x' = x + (t_ref - t*) u(x); returns the
    (2,N) positions, row 0 holding x and row 1 y.

    The flow is read at each event's integer source pixel. Positions are
    continuous and may leave the frame; splatting handles that.
    """
    _require_normalized(partition)
    if t_ref not in (0.0, 1.0):
        raise ValueError(f"t_ref must be 0 or 1, got {t_ref}")
    flow_t = as_flow(flow)
    expected = (2, partition.geometry.height, partition.geometry.width)
    if flow_t.shape != expected:
        raise ValueError(f"flow shape {flow_t.shape} != {expected}")
    iy = partition.y.astype(np.int64)
    ix = partition.x.astype(np.int64)
    dt = np.broadcast_to(t_ref - partition.t_star, (2, len(partition)))
    src = np.stack([ix, iy]).astype(np.float64)
    return ad.add(ad.mul(ad.gather_pixels(flow_t, iy, ix), dt), src)


def source_pixel_counts(partition: EventStream) -> np.ndarray:
    """Per event: how many same-polarity events share its source pixel."""
    pixels = partition.geometry.pixels
    pix = partition.y.astype(np.int64) * partition.geometry.width + partition.x.astype(np.int64)
    key = np.where(partition.p > 0, pixels, 0) + pix
    return np.bincount(key, minlength=2 * pixels)[key]


def accumulate_warped_images(partition: EventStream, flow, t_ref: float,
                             weights: np.ndarray) -> Tensor:
    """Warp events to t_ref and splat them into a (4,H,W) image whose rows
    are [H+, H-, W+, W-]: per-polarity event counts and per-polarity sums
    of the per-event `weights` (N,).

    All events share one splat; polarity selects the rows an event adds
    to. Weighting by t* gives the numerators of the average-timestamp
    images, by 1/source_pixel_counts the source-pixel density P.
    Out-of-frame corners are dropped.
    """
    pos = warp_events(partition, flow, t_ref)
    shape = (partition.geometry.height, partition.geometry.width)
    sign = np.stack([partition.p > 0, partition.p < 0]).astype(np.float64)
    return ad.bilinear_splat(np.concatenate([sign, sign * weights]), pos, shape)


def fwl(partition: EventStream, flow) -> float:
    """Variance ratio of the flow-warped to the unwarped event count image.

    1 at zero flow; above 1 when warping sharpens the event image.
    """
    pos = warp_events(partition, as_flow(flow).detach(), 1.0)
    shape = (partition.geometry.height, partition.geometry.width)
    ones = np.ones((1, len(partition)))
    var_flow = float(np.var(ad.bilinear_splat(ones, pos, shape).data))
    # Unwarped events sit on their pixels, where a splat is a count.
    pix = partition.y.astype(np.int64) * partition.geometry.width + partition.x.astype(np.int64)
    counts = np.bincount(pix, minlength=partition.geometry.pixels)
    var_zero = float(np.var(counts.astype(np.float64)))
    if var_zero == 0.0:
        raise ValueError("unwarped event image has zero variance; FWL undefined")
    return var_flow / var_zero
