"""Synthetic event generation with analytic ground truth.

A scene is a toroidally periodic log-brightness pattern translating at
constant velocity. Events come from a per-pixel integrate-and-fire model:
each pixel holds a reference level and emits an event whenever the
brightness has moved a full contrast threshold away from it, with the
event timestamp linearly interpolated inside the simulation step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import EventStream, SensorGeometry, US_PER_SECOND, empty_stream
from .geometry import FlowField


@dataclass(frozen=True)
class SyntheticScene:
    geometry: SensorGeometry
    base: np.ndarray                 # H x W log-brightness pattern
    velocity: tuple[float, float]    # (vx, vy) pixels per second
    contrast: float = 0.25           # simulated threshold, log-intensity units
    duration: float = 2.0            # seconds

    def __post_init__(self):
        if self.base.shape != (self.geometry.height, self.geometry.width):
            raise ValueError(f"pattern shape {self.base.shape} does not match geometry")
        if self.contrast <= 0:
            raise ValueError("contrast threshold must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


def checkerboard(geometry: SensorGeometry, period: int, amplitude: float = 1.0) -> np.ndarray:
    y, x = np.mgrid[0:geometry.height, 0:geometry.width]
    return amplitude * (((x // period) + (y // period)) % 2).astype(np.float64)


def gaussian_blobs(geometry: SensorGeometry, count: int, sigma: float,
                   amplitude: float, rng: np.random.Generator) -> np.ndarray:
    """Sum of toroidal Gaussian bumps at random centers."""
    h, w = geometry.height, geometry.width
    y, x = np.mgrid[0:h, 0:w]
    base = np.zeros((h, w))
    for _ in range(count):
        cx, cy = rng.uniform(0, w), rng.uniform(0, h)
        dx = (x - cx + w / 2.0) % w - w / 2.0
        dy = (y - cy + h / 2.0) % h - h / 2.0
        base += amplitude * np.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))
    return base


def from_grayscale(image: np.ndarray) -> np.ndarray:
    """Map an 8-bit grayscale image to a log-intensity pattern."""
    g = np.asarray(image, dtype=np.float64) / 255.0
    return np.log(0.1 + 0.9 * g)


def render_scene(scene: SyntheticScene, t: float) -> np.ndarray:
    """Brightness at time t: the base pattern shifted by velocity*t.

    Toroidal wrap with bilinear sub-pixel sampling. The shift is uniform,
    so one fractional offset serves the whole frame.
    """
    if not 0.0 <= t <= scene.duration:
        raise ValueError(f"t={t} outside [0, {scene.duration}]")
    h, w = scene.base.shape
    sx = -scene.velocity[0] * t
    sy = -scene.velocity[1] * t
    kx, fx = int(np.floor(sx)), sx - np.floor(sx)
    ky, fy = int(np.floor(sy)), sy - np.floor(sy)
    ix0 = (np.arange(w) + kx) % w
    ix1 = (ix0 + 1) % w
    iy0 = (np.arange(h) + ky) % h
    iy1 = (iy0 + 1) % h
    top = scene.base[np.ix_(iy0, ix0)] * (1.0 - fx) + scene.base[np.ix_(iy0, ix1)] * fx
    bot = scene.base[np.ix_(iy1, ix0)] * (1.0 - fx) + scene.base[np.ix_(iy1, ix1)] * fx
    return top * (1.0 - fy) + bot * fy


def generate_events(scene: SyntheticScene, timestep: float) -> EventStream:
    """Per-pixel integrate-and-fire simulation of the translating scene."""
    if timestep <= 0:
        raise ValueError("timestep must be positive")
    c = scene.contrast
    n_steps = int(np.ceil(scene.duration / timestep))
    h, w = scene.base.shape
    l_prev = render_scene(scene, 0.0).ravel()
    l_ref = l_prev.copy()
    flat_pix = np.arange(h * w)

    ts_parts, pix_parts, pol_parts = [], [], []
    t_prev = 0.0
    for step in range(1, n_steps + 1):
        t_next = min(step * timestep, scene.duration)
        l_new = render_scene(scene, t_next).ravel()
        step_max = float(np.abs(l_new - l_prev).max())
        if step_max >= 4.0 * c:
            suggested = timestep * (2.0 * c / step_max)
            raise ValueError(
                f"per-step brightness change {step_max:.4f} >= 4C={4 * c:.4f}; "
                f"retry with timestep <= {suggested:.6g}")
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
        return empty_stream(scene.geometry)
    t_us = np.rint(np.concatenate(ts_parts) * US_PER_SECOND).astype(np.uint64)
    pix = np.concatenate(pix_parts)
    pol = np.concatenate(pol_parts).astype(np.int8)
    x = (pix % w).astype(np.uint16)
    y = (pix // w).astype(np.uint16)
    order = np.lexsort((x, y, t_us))
    return EventStream(t_us[order], x[order], y[order], pol[order], scene.geometry)


def ground_truth_flow(scene: SyntheticScene, partition: EventStream) -> FlowField:
    """Constant flow: velocity times the partition's wall-clock span."""
    dur_s = partition.duration_us / US_PER_SECOND
    h, w = scene.geometry.height, scene.geometry.width
    return FlowField(np.full((h, w), scene.velocity[0] * dur_s),
                     np.full((h, w), scene.velocity[1] * dur_s))


def ground_truth_frame(scene: SyntheticScene, t_us: int) -> np.ndarray:
    """Log-brightness frame at an absolute microsecond timestamp."""
    return render_scene(scene, t_us / US_PER_SECOND)
