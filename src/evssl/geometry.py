"""Voxel-grid encoding, differentiable event warping, and warped-event images.

The voxel grid and event mask are plain numpy (network inputs). Warping
and accumulation run through the autodiff graph so the contrast and
reconstruction losses stay differentiable in the flow field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .events import EventStream, SensorGeometry

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


@dataclass(frozen=True)
class WarpedEvents:
    """Continuous event positions after propagation to t_ref."""

    xs: Tensor  # (N,)
    ys: Tensor
    t_star: np.ndarray
    p: np.ndarray
    t_ref: float
    geometry: SensorGeometry


@dataclass(frozen=True)
class WarpedImages:
    """Per-polarity count (H), average-timestamp (T) and source-density (P) images."""

    h_pos: Tensor
    h_neg: Tensor
    t_pos: Tensor
    t_neg: Tensor
    p_pos: Tensor
    p_neg: Tensor
    t_ref: float


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


def build_voxel_grid(partition: EventStream, bins: int) -> np.ndarray:
    """Spread each event's polarity over the two nearest of B temporal bins.

    Kernel weights max(0, 1-|t_b - t*(B-1)|) partition unity, so summing
    the grid over bins recovers the per-pixel signed polarity sum.
    """
    _require_normalized(partition)
    if bins < 2:
        raise ValueError(f"bin count must be >= 2, got {bins}")
    geom = partition.geometry
    h, w = geom.height, geom.width
    grid = np.zeros(bins * h * w)
    if len(partition):
        tb = partition.t_star * (bins - 1)
        b0 = np.floor(tb).astype(np.int64)
        b0 = np.minimum(b0, bins - 1)
        w1 = tb - b0
        pix = partition.y.astype(np.int64) * w + partition.x.astype(np.int64)
        pol = partition.p.astype(np.float64)
        grid += np.bincount(b0 * (h * w) + pix, weights=pol * (1.0 - w1),
                            minlength=bins * h * w)
        hi = b0 + 1 < bins
        if hi.any():
            grid += np.bincount((b0[hi] + 1) * (h * w) + pix[hi],
                                weights=pol[hi] * w1[hi], minlength=bins * h * w)
    return grid.reshape(bins, h, w)


def event_mask(voxel: np.ndarray) -> np.ndarray:
    """True where the voxel grid carries any signed polarity mass."""
    return np.abs(voxel).sum(axis=0) > 0


def warp_events(partition: EventStream, flow, t_ref: float) -> WarpedEvents:
    """Propagate events to t_ref: x' = x + (t_ref - t*) u(x).

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
    dt = t_ref - partition.t_star
    u_i = ad.gather_pixels(flow_t[0], iy, ix)
    v_i = ad.gather_pixels(flow_t[1], iy, ix)
    xs = ad.add(ad.mul(u_i, dt), ix.astype(np.float64))
    ys = ad.add(ad.mul(v_i, dt), iy.astype(np.float64))
    return WarpedEvents(xs, ys, partition.t_star, partition.p, t_ref, partition.geometry)


def source_pixel_counts(partition: EventStream) -> np.ndarray:
    """Per event: how many same-polarity events share its source pixel."""
    w = partition.geometry.width
    pix = partition.y.astype(np.int64) * w + partition.x.astype(np.int64)
    counts = np.empty(len(partition), dtype=np.int64)
    for pol in (1, -1):
        sel = partition.p == pol
        if sel.any():
            per_pixel = np.bincount(pix[sel], minlength=w * partition.geometry.height)
            counts[sel] = per_pixel[pix[sel]]
    return counts


def accumulate_warped_images(partition: EventStream, warped: WarpedEvents) -> WarpedImages:
    """Splat warped events into per-polarity H, T and P images.

    T is the (H+eps)-normalized average of event timestamps; P splats
    1/n_src per event, recovering the count of contributing source pixels
    when a pixel's events land together. Out-of-frame corners are dropped.
    """
    geom = partition.geometry
    shape = (geom.height, geom.width)
    n_src = source_pixel_counts(partition).astype(np.float64)
    images = {}
    for pol, tag in ((1, "pos"), (-1, "neg")):
        sel = partition.p == pol
        xs, ys = warped.xs[sel], warped.ys[sel]
        ones = np.ones(int(sel.sum()))
        h_img = ad.bilinear_splat(ones, xs, ys, shape)
        t_num = ad.bilinear_splat(warped.t_star[sel], xs, ys, shape)
        p_img = ad.bilinear_splat(1.0 / n_src[sel], xs, ys, shape)
        t_img = ad.div(t_num, ad.add(h_img, EPS))
        images[f"h_{tag}"] = h_img
        images[f"t_{tag}"] = t_img
        images[f"p_{tag}"] = p_img
    return WarpedImages(t_ref=warped.t_ref, **images)


def average_iwe(images: WarpedImages) -> tuple[Tensor, Tensor]:
    """Per-polarity average number of warped events per source pixel, H/(P+eps)."""
    g_pos = ad.div(images.h_pos, ad.add(images.p_pos, EPS))
    g_neg = ad.div(images.h_neg, ad.add(images.p_neg, EPS))
    return g_pos, g_neg


def _count_image(partition: EventStream, flow, t_ref: float = 1.0) -> np.ndarray:
    warped = warp_events(partition, flow, t_ref)
    images = accumulate_warped_images(partition, warped)
    return images.h_pos.data + images.h_neg.data


def fwl(partition: EventStream, flow) -> float:
    """Variance ratio of the flow-warped to the unwarped event count image.

    1 at zero flow; above 1 when warping sharpens the event image.
    """
    _require_normalized(partition)
    flow_t = as_flow(flow).detach()
    zero = np.zeros_like(flow_t.data)
    var_zero = float(np.var(_count_image(partition, zero)))
    if var_zero == 0.0:
        raise ValueError("unwarped event image has zero variance; FWL undefined")
    var_flow = float(np.var(_count_image(partition, flow_t)))
    return var_flow / var_zero
