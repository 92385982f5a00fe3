"""Every numeric setting and synthesis argument passes one boundary rule,
`events.check_number`: an integer or real number of the right kind (never a
bool, string, None or complex value), finite and in range. A violation
raises ConfigurationError naming the field and showing the value's repr."""

import dataclasses
import re

import numpy as np
import pytest

from evssl import synth
from evssl.events import (AugmentConfig, ConfigurationError, SensorGeometry, check_number,
                          events_per_pixel_count, make_stream, partition_by_count)
from evssl.geometry import check_bin_count
from evssl.losses import LossWeights
from evssl.training import TrainConfig

GEOM = SensorGeometry(16, 16)
STREAM = make_stream(np.arange(10) * 10, np.zeros(10, int), np.zeros(10, int), np.ones(10, int),
                     GEOM)


def _scene(**kw):
    kw = {"velocity": (1.0, 0.0), "duration": 1.0, **kw}
    return synth.SyntheticScene(GEOM, synth.checkerboard(GEOM, 4), **kw)


def _blobs(**kw):
    args = dict(count=3, sigma=2.0, amplitude=1.0, rng=np.random.default_rng(0))
    return synth.gaussian_blobs(GEOM, **{**args, **kw})


def _field(config, name):
    return lambda v: config(**{name: v})


# (the callable, a call of it on the bad value, the field its error names,
# that field's values of the right kind but out of range). Each field also
# meets every BAD_KINDS value.
FIELDS = [
    ("SensorGeometry", lambda v: SensorGeometry(v, 16), "geometry width", [7, 0, -16, 16.0]),
    ("SensorGeometry", lambda v: SensorGeometry(16, v), "geometry height", [np.int64(7), 16.5]),
    ("events_per_pixel_count", lambda v: events_per_pixel_count(GEOM, v), "density", [0.0, -0.3]),
    ("partition_by_count", lambda v: partition_by_count(STREAM, v), "partition size",
     [1, 0, -4, 2.5, np.float64(3.0)]),
    *(("AugmentConfig", _field(AugmentConfig, name), name, [-0.1, 1.5, np.float32(1.01)])
      for name in ("h_flip_prob", "v_flip_prob", "polarity_flip_prob", "pause_prob")),
    ("TrainConfig", _field(TrainConfig, "lr"), "lr", [0.0, -1e-3]),
    *(("TrainConfig", _field(TrainConfig, name), name, [-1, 2.5, 2.0])
      for name in ("epochs", "seed", "unroll_steps")),
    ("TrainConfig", _field(TrainConfig, "tc_start_step"), "S0: tc_start_step", [-1, 21, 2.5]),
    ("TrainConfig", _field(TrainConfig, "bins"), "bins", [1, 0, -3, 2.5, 5.0]),
    ("check_bin_count", check_bin_count, "bins", [1]),
    *(("LossWeights", _field(LossWeights, name), name, [-0.1, -1])
      for name in ("lambda1", "lambda2", "lambda3")),
    *(("LossWeights", _field(LossWeights, name), name, [0.0, -1.0]) for name in ("c_pos", "c_neg")),
    ("SyntheticScene", lambda v: _scene(contrast=v), "contrast", [0.0, -0.25]),
    ("SyntheticScene", lambda v: _scene(duration=v), "duration", [0.0, -1.0]),
    ("SyntheticScene", lambda v: _scene(velocity=(v, 0.0)), "velocity[0]", [(1.0, 2.0)]),
    ("SyntheticScene", lambda v: _scene(velocity=[1.0, v]), "velocity[1]", []),
    ("checkerboard", lambda v: synth.checkerboard(GEOM, v), "period", [0, -2, 2.5]),
    ("checkerboard", lambda v: synth.checkerboard(GEOM, 4, amplitude=v), "amplitude", []),
    ("gaussian_blobs", lambda v: _blobs(count=v), "count", [-1, 2.5]),
    ("gaussian_blobs", lambda v: _blobs(sigma=v), "sigma", [0.0, -1.0]),
    ("gaussian_blobs", lambda v: _blobs(amplitude=v), "amplitude", []),
    ("render_scene", lambda v: synth.render_scene(_scene(), v), "t", [-0.1, 1.5, 1.0 + 1e-9]),
    ("generate_events", lambda v: synth.generate_events(_scene(), v), "timestep", [0.0, -1e-2]),
]
BAD_KINDS = [True, False, np.True_, "1", None, 1j, np.nan, np.inf, -np.inf]
ROWS = [pytest.param(call, field, value, id=f"{label}-{field}-{value!r}")
        for label, call, field, out_of_range in FIELDS for value in (*BAD_KINDS, *out_of_range)]


# Among these rows, before the shared rule: `AugmentConfig(h_flip_prob=True)`
# was accepted and `pause_prob="0.5"` failed with a bare TypeError;
# `events_per_pixel_count(geometry, True)` returned 64 on 8x8 and "1" failed
# with a bare TypeError; `amplitude=True` was accepted by `checkerboard` and
# `gaussian_blobs`, and `checkerboard(..., amplitude=nan)` returned an all-NaN
# pattern; `render_scene(scene, True)` rendered at t = 1 s.
@pytest.mark.parametrize("call,field,value", ROWS)
def test_numeric_setting_rejects_wrong_kind_non_finite_or_out_of_range(call, field, value):
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(field)} must be .*, got {re.escape(repr(value))}$"):
        call(value)


# Every int- or float-annotated field of a config, so that a numeric field
# added later cannot go unchecked.
CONFIGS = {TrainConfig: {}, LossWeights: {}, AugmentConfig: {},
           SensorGeometry: dict(width=16, height=16)}
NUMERIC_FIELDS = [(cls, f.name) for cls in CONFIGS for f in dataclasses.fields(cls)
                  if f.type in (int, float, "int", "float")]


def test_every_config_has_numeric_fields_to_walk():
    assert {cls for cls, _ in NUMERIC_FIELDS} == set(CONFIGS)


@pytest.mark.parametrize("value", [True, "1", np.nan])
@pytest.mark.parametrize("cls,name", NUMERIC_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in NUMERIC_FIELDS])
def test_every_numeric_config_field_rejects_a_bool_a_string_and_nan(cls, name, value):
    with pytest.raises(ConfigurationError, match=name):
        cls(**{**CONFIGS[cls], name: value})


def test_values_on_a_closed_bound_and_numpy_numbers_are_accepted():
    SensorGeometry(8, np.uint16(8))
    assert len(partition_by_count(STREAM, np.int32(2))) == 5
    AugmentConfig(0, 1, np.float32(0.0), 1.0)
    TrainConfig(unroll_steps=3, tc_start_step=3, epochs=0, seed=np.int64(0), bins=2)
    TrainConfig(unroll_steps=0, tc_start_step=0)
    LossWeights(lambda1=0, lambda2=0.0, lambda3=np.float32(0.0), c_pos=1e-9)
    scene = _scene(velocity=np.array([-2.5, 0]))
    synth.render_scene(scene, 0)
    synth.render_scene(scene, scene.duration)
    synth.checkerboard(GEOM, 1, amplitude=-2)
    _blobs(count=0, amplitude=0.0)


@pytest.mark.parametrize("kw,message", [
    (dict(), "x must be a real number, got"),
    (dict(integer=True), "x must be an integer, got"),
    (dict(low=0), "x must be a real number >= 0, got"),
    (dict(low=0, open_low=True), "x must be a real number > 0, got"),
    (dict(integer=True, low=2, high=5), "x must be an integer in [2, 5], got"),
    (dict(low=0, high=1, open_low=True), "x must be a real number in (0, 1], got"),
])
def test_check_number_states_kind_and_bounds(kw, message):
    with pytest.raises(ConfigurationError) as raised:
        check_number("x", "7", **kw)
    assert str(raised.value) == f"{message} '7'"
