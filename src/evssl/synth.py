"""Synthetic event generation with analytic ground truth.

A scene is a toroidally periodic log-brightness pattern translating at
constant velocity, each frame a bilinear lerp of a window sliced from the
pattern tiled 2x2. Events come from a per-pixel integrate-and-fire model:
each pixel holds a reference level, and a pixel whose brightness is
|delta| >= C away from it fires |delta| // C events (C the contrast
threshold), their timestamps linearly interpolated inside the simulation
step. The reference level then moves by those events' thresholds,
accumulated in floating point step after step. The steps record their
firing pixels, which are expanded into events a block of steps at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import (ConfigurationError, EventStream, SensorGeometry, US_PER_SECOND, check_number,
                     empty_stream)
from .geometry import FlowField


@dataclass(frozen=True)
class SyntheticScene:
    geometry: SensorGeometry
    base: np.ndarray                 # H x W log-brightness pattern
    velocity: tuple[float, float]    # (vx, vy) pixels per second
    contrast: float = 0.25           # simulated threshold, log-intensity units
    duration: float = 2.0            # seconds

    def __post_init__(self):
        if not isinstance(self.geometry, SensorGeometry):
            raise ConfigurationError(f"geometry must be a SensorGeometry, got {self.geometry!r}")
        shape = (self.geometry.height, self.geometry.width)
        if not (isinstance(self.base, np.ndarray) and self.base.dtype.kind in "iuf"
                and self.base.shape == shape and np.isfinite(self.base).all()):
            raise ConfigurationError(
                f"base must be a finite real numpy array of shape {shape}, got {self.base!r}")
        check_number("contrast", self.contrast, low=0, open_low=True)
        check_number("duration", self.duration, low=0, open_low=True)
        # `ndim` first: a 0-d array has no len().
        if not (isinstance(self.velocity, (tuple, list, np.ndarray))
                and getattr(self.velocity, "ndim", 1) == 1 and len(self.velocity) == 2):
            raise ConfigurationError(f"velocity must be a pair (vx, vy), got {self.velocity!r}")
        for i, v in enumerate(self.velocity):
            check_number(f"velocity[{i}]", v)


def checkerboard(geometry: SensorGeometry, period: int) -> np.ndarray:
    check_number("period", period, integer=True, low=1)
    y, x = np.mgrid[0:geometry.height, 0:geometry.width]
    return (((x // period) + (y // period)) % 2).astype(np.float64)


def gaussian_blobs(geometry: SensorGeometry, count: int, sigma: float,
                   amplitude: float, rng: np.random.Generator) -> np.ndarray:
    """Sum of toroidal Gaussian bumps at random centers."""
    check_number("count", count, integer=True, low=0)
    check_number("sigma", sigma, low=0, open_low=True)
    check_number("amplitude", amplitude)
    h, w = geometry.height, geometry.width
    y, x = np.mgrid[0:h, 0:w]
    base = np.zeros((h, w))
    for _ in range(count):
        cx, cy = rng.uniform(0, w), rng.uniform(0, h)
        dx = (x - cx + w / 2.0) % w - w / 2.0
        dy = (y - cy + h / 2.0) % h - h / 2.0
        base += amplitude * np.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))
    return base


def _render(tiled: np.ndarray, velocity, t: float) -> np.ndarray:
    """The frame at time t, from `tiled`, the base tiled 2x2.

    The shift is uniform: its whole pixels, modulo the period, place one
    (H+1, W+1) window in `tiled`, and one fractional offset serves the whole
    frame. One horizontal lerp runs over all H+1 window rows, and each pair
    of adjacent lerped rows is then blended vertically.
    """
    h, w = tiled.shape[0] // 2, tiled.shape[1] // 2
    sx = -velocity[0] * t
    sy = -velocity[1] * t
    kx, fx = int(np.floor(sx)) % w, sx - np.floor(sx)
    ky, fy = int(np.floor(sy)) % h, sy - np.floor(sy)
    win = tiled[ky:ky + h + 1, kx:kx + w + 1]
    rows = win[:, :-1] * (1.0 - fx) + win[:, 1:] * fx
    return rows[:-1] * (1.0 - fy) + rows[1:] * fy


def render_scene(scene: SyntheticScene, t: float) -> np.ndarray:
    """Brightness at time t: the base pattern shifted by velocity*t.

    Toroidal wrap with bilinear sub-pixel sampling: the shifted window is a
    slice of the base tiled 2x2, and its rows share one horizontal lerp.
    """
    check_number("t", t, low=0, high=scene.duration)
    return _render(np.tile(scene.base, (2, 2)), scene.velocity, t)


# Steps whose firing records are expanded into events in one pass. Medians
# of 11 runs of recon_unroll's 3 s blob scene on 2 shared cores: 361 ms at 1
# step, 233 ms at 32, 229 ms at 64 and 220 ms at 128. The records, 64 bytes
# per firing pixel, and a block's expansion temporaries are held beside the
# event columns: the dense 64x64 scene peaks at 35.3 bytes per event up to
# 64 steps and at 44.9 at 128.
_BLOCK_STEPS = 32


def _grow(cols: list[np.ndarray], need: int) -> None:
    """Double same-length columns in place until they hold `need` entries."""
    if need > len(cols[0]):
        for col in cols:
            col.resize(max(2 * len(col), need), refcheck=False)


def _emit(records: list[np.ndarray], n: int, cols: list[np.ndarray], count: int,
          c: float, w: int) -> int:
    """Expand the first `n` firing records into events at `count` onward;
    returns the new event count.

    A record fired `reps` events: its k-th (k = 1..reps) crosses
    l_ref + sign*k*C at the fraction of its step where the brightness,
    linear between l_prev and l_new, reaches that level.
    """
    pix, reps, sign, ref, prev, new, t0, t1 = (col[:n] for col in records)
    total = int(reps.sum())
    starts = np.repeat(np.cumsum(reps) - reps, reps)
    k = np.arange(total) - starts + 1.0
    pol = np.repeat(sign, reps)
    lp = np.repeat(prev, reps)
    frac = (np.repeat(ref, reps) + pol * k * c - lp) / (np.repeat(new, reps) - lp)
    t0, t1 = np.repeat(t0, reps), np.repeat(t1, reps)
    t_us = np.rint((t0 + frac * (t1 - t0)) * US_PER_SECOND)
    pix = np.repeat(pix, reps)
    _grow(cols, count + total)
    for col, part in zip(cols, (t_us, pix % w, pix // w, pol)):
        col[count:count + total] = part  # the same casts as astype
    return count + total


def generate_events(scene: SyntheticScene, timestep: float) -> EventStream:
    """Per-pixel integrate-and-fire simulation of the translating scene.

    At each step a pixel whose brightness is |delta| >= C from its
    reference level fires |delta| // C events of delta's sign, and its
    reference level moves by that many thresholds, accumulated in floating
    point. Only the firing pixels are floor-divided: for finite a >= 0 and
    C > 0, a // C >= 1 exactly when a >= C. `//` is kept because
    `np.floor(a / C)` differs from it: 0.8999999999999999 // 0.3 is 2,
    while the quotient rounds to 3.0.

    The base is tiled 2x2 once for every frame's window. A step only
    decides firing and moves the reference levels; it records each firing
    pixel's index, count, sign, reference level before the move, both
    brightness levels and the step's times. Every `_BLOCK_STEPS` steps, and
    at the end, one pass expands the records into four typed event columns
    (t rounded to microseconds, x, y, p). Records and events double in
    place when full; the records are freed, and the events sorted by
    (t, y, x), at the end.
    """
    check_number("timestep", timestep, low=0, open_low=True)
    c = scene.contrast
    n_steps = int(np.ceil(scene.duration / timestep))
    w = scene.base.shape[1]
    tiled = np.tile(scene.base, (2, 2))
    l_prev = _render(tiled, scene.velocity, 0.0).ravel()
    l_ref = l_prev.copy()

    cols = [np.empty(0, dtype) for dtype in (np.uint64, np.uint16, np.uint16, np.int8)]
    records = [np.empty(0, dtype) for dtype in (np.int64, np.int64) + (np.float64,) * 6]
    count = n = 0
    t_prev = 0.0
    for step in range(1, n_steps + 1):
        t_next = min(step * timestep, scene.duration)
        l_new = _render(tiled, scene.velocity, t_next).ravel()
        step_max = float(np.abs(l_new - l_prev).max())
        if step_max >= 4.0 * c:
            suggested = timestep * (2.0 * c / step_max)
            raise ValueError(
                f"per-step brightness change {step_max:.4f} >= 4C={4 * c:.4f}; "
                f"retry with timestep <= {suggested:.6g}")
        delta = l_new - l_ref
        fired = np.flatnonzero(np.abs(delta) >= c)
        if fired.size:
            delta = delta[fired]
            reps = (np.abs(delta) // c).astype(np.int64)
            sign = np.sign(delta)
            ref = l_ref[fired]
            _grow(records, n + fired.size)
            for col, part in zip(records, (fired, reps, sign, ref, l_prev[fired],
                                           l_new[fired], t_prev, t_next)):
                col[n:n + fired.size] = part
            n += fired.size
            l_ref[fired] = ref + sign * reps * c
        if n and (step % _BLOCK_STEPS == 0 or step == n_steps):
            count = _emit(records, n, cols, count, c, w)
            n = 0
        l_prev = l_new
        t_prev = t_next
    del records

    if not count:
        return empty_stream(scene.geometry)
    for col in cols:
        col.resize(count, refcheck=False)
    t, x, y, p = cols
    order = np.lexsort((x, y, t))
    return EventStream(t[order], x[order], y[order], p[order], scene.geometry)


def ground_truth_flow(scene: SyntheticScene, partition: EventStream) -> FlowField:
    """Constant flow: velocity times the partition's wall-clock span, in the
    partition's frame: u is negated if it was h-flipped, v if v-flipped."""
    dur_s = partition.duration_us / US_PER_SECOND
    h, w = scene.geometry.height, scene.geometry.width
    vx, vy = scene.velocity
    return FlowField(np.full((h, w), (-vx if partition.h_flip else vx) * dur_s),
                     np.full((h, w), (-vy if partition.v_flip else vy) * dur_s))


def ground_truth_frame(scene: SyntheticScene, t_us: int) -> np.ndarray:
    """Log-brightness frame at an absolute microsecond timestamp.

    Event times are rounded to the nearest microsecond, so one up to half a
    microsecond past the end of the scene renders as its final frame.
    """
    check_number("t_us", t_us, integer=True, low=0)
    t = t_us / US_PER_SECOND
    if t_us - 0.5 <= scene.duration * US_PER_SECOND:
        t = min(t, scene.duration)
    return render_scene(scene, t)
