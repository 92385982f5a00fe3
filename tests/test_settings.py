"""Every setting and synthesis argument is checked at its boundary, and this
table is the one place that tests the rejections. A numeric value passes one
rule, `events.check_number`: an integer or real number of the right kind
(never a bool, string, None or complex value), finite and in range. Every
violation, numeric or not, raises ConfigurationError with the message
`<field> must be <rule>, got <repr>`."""

import dataclasses

import numpy as np
import pytest

from evssl import synth
from evssl.events import (AugmentConfig, ConfigurationError, SensorGeometry, check_number,
                          events_per_pixel_count, make_stream, normalize_timestamps,
                          partition_by_count)
from evssl.geometry import build_voxel_grid, check_bin_count
from evssl.losses import LossWeights
from evssl.networks import FireFlowNet, ReconNet
from evssl.training import Adam, TrainConfig

GEOM = SensorGeometry(16, 16)
STREAM = make_stream(np.arange(10) * 10, np.zeros(10, int), np.zeros(10, int), np.ones(10, int),
                     GEOM)
BASE = synth.checkerboard(GEOM, 4)


def _scene(**kw):
    kw = {"geometry": GEOM, "base": BASE, "velocity": (1.0, 0.0), "duration": 1.0, **kw}
    return synth.SyntheticScene(**kw)


def _base_with(row, col, value):
    base = BASE.copy()
    base[row, col] = value
    return base


def _blobs(**kw):
    args = dict(count=3, sigma=2.0, amplitude=1.0, rng=np.random.default_rng(0))
    return synth.gaussian_blobs(GEOM, **{**args, **kw})


def _field(config, name):
    return lambda v: config(**{name: v})


# Every numeric field meets each of these.
NOT_NUMBERS = [True, False, np.True_, "1", None, 1j, np.nan, np.inf, -np.inf]
# (the callable, a call of it on a value, the field its error names, the rule
# its error states, values the rule rejects, values on or just inside each
# bound and of each numpy kind that the rule accepts). A value's id is the
# first 30 characters of its repr, unless it is a `pytest.param` with its own.
FIELDS = [
    ("SensorGeometry", lambda v: SensorGeometry(v, 16), "geometry width",
     "an integer in [8, 65536]", [*NOT_NUMBERS, 7, 2, 0, -16, 16.0, 16.5, np.float64(16), 65537],
     [8, 9, np.int64(8), np.uint16(640), 65536]),
    ("SensorGeometry", lambda v: SensorGeometry(16, v), "geometry height",
     "an integer in [8, 65536]", [*NOT_NUMBERS, np.int64(7), 16.5, 16.0, 65537],
     [8, 9, np.uint16(8), np.int32(480), 65536]),
    ("events_per_pixel_count", lambda v: events_per_pixel_count(GEOM, v), "density",
     "a real number > 0", [*NOT_NUMBERS, 0.0, -0.3], [0.01, 1, np.float32(0.5), np.int64(2)]),
    ("partition_by_count", lambda v: partition_by_count(STREAM, v), "partition size",
     "an integer >= 2", [*NOT_NUMBERS, 1, 0, -4, 2.5, 4.0, np.float64(3.0)],
     [2, 3, 11, np.int32(2)]),
    *(("AugmentConfig", _field(AugmentConfig, name), name, "a real number in [0, 1]",
       [*NOT_NUMBERS, -0.1, 1.5, np.float32(1.01)],
       [0, 1, 0.0, 1.0, np.float32(0.5), np.int64(1)])
      for name in ("h_flip_prob", "v_flip_prob", "polarity_flip_prob", "pause_prob")),
    ("TrainConfig", _field(TrainConfig, "lr"), "lr", "a real number > 0",
     [*NOT_NUMBERS, 0.0, -1e-3], [1e-9, 1, np.float32(1e-3), np.int64(1)]),
    *(("TrainConfig", call, name, "an integer >= 0", [*NOT_NUMBERS, -1, 2.5, 2.0],
       [0, 1, np.int64(0), np.uint8(3)])
      for name, call in [("epochs", _field(TrainConfig, "epochs")),
                         ("seed", _field(TrainConfig, "seed")),
                         ("unroll_steps", lambda v: TrainConfig(unroll_steps=v, tc_start_step=0))]),
    ("TrainConfig", _field(TrainConfig, "tc_start_step"), "S0: tc_start_step",
     "an integer in [0, 20]", [*NOT_NUMBERS, -1, 21, 2.5, 2.0], [0, 20, 5, np.int32(20)]),
    *((label, call, "bins", "an integer >= 2", [*NOT_NUMBERS, 1, 0, -3, 2.0, 2.5, 5.0],
       [2, 3, np.int64(2)])
      for label, call in [("TrainConfig", _field(TrainConfig, "bins")),
                          ("check_bin_count", check_bin_count),
                          ("build_voxel_grid",
                           lambda v: build_voxel_grid(normalize_timestamps(STREAM), v)),
                          ("FireFlowNet", _field(FireFlowNet, "bins")),
                          ("ReconNet", _field(ReconNet, "bins"))]),
    ("TrainConfig", _field(TrainConfig, "weights"), "weights", "a LossWeights",
     [None, True, {"lambda1": 1.0}, AugmentConfig()], [LossWeights(), LossWeights(lambda1=0)]),
    ("TrainConfig", _field(TrainConfig, "augment"), "augment", "an AugmentConfig",
     [None, 0.5, {"h_flip_prob": 0.5}, LossWeights()],
     [AugmentConfig(), AugmentConfig(1, 1, 1, 1)]),
    *(("LossWeights", _field(LossWeights, name), name, "a real number >= 0",
       [*NOT_NUMBERS, -0.1, -1], [0, 0.0, 1, np.float32(0.0)])
      for name in ("lambda1", "lambda2", "lambda3")),
    *(("LossWeights", _field(LossWeights, name), name, "a real number > 0",
       [*NOT_NUMBERS, 0.0, -1.0], [1e-9, 1, np.int64(2)])
      for name in ("c_pos", "c_neg")),
    ("LossWeights", _field(LossWeights, "deblur_enabled"), "deblur_enabled", "a bool",
     ["no", 1, 0.0, None], [True, False, np.True_, np.False_]),
    ("SyntheticScene", lambda v: _scene(geometry=v), "geometry", "a SensorGeometry",
     [None, (16, 16), 16], [GEOM]),
    ("SyntheticScene", lambda v: _scene(base=v), "base",
     "a finite real numpy array of shape (16, 16)",
     [None, BASE.tolist(), BASE * (1 + 1j), BASE > 0, np.zeros((16, 17)), np.ones((17, 16)),
      np.zeros((2, 16, 16)), np.zeros(256), np.full((16, 16), np.nan),
      np.full((16, 16), np.inf), _base_with(3, 5, np.nan), _base_with(0, 0, -np.inf)],
     [pytest.param(BASE, id="BASE"),
      pytest.param(BASE.astype(np.float32), id="BASE.astype(np.float32)"),
      BASE.astype(np.uint8), np.zeros((16, 16), dtype=np.int64)]),
    ("SyntheticScene", lambda v: _scene(contrast=v), "contrast", "a real number > 0",
     [*NOT_NUMBERS, 0.0, -0.25], [1e-3, 1, np.float32(0.25)]),
    ("SyntheticScene", lambda v: _scene(duration=v), "duration", "a real number > 0",
     [*NOT_NUMBERS, 0.0, -1.0], [1e-3, 1, np.float32(2.0)]),
    ("SyntheticScene", lambda v: _scene(velocity=v), "velocity", "a pair (vx, vy)",
     [None, 5.0, "12", (1.0,), (1.0, 2.0, 3.0), np.array(5.0), np.zeros((2, 1))],
     [(1.0, 0.0), [1, 0], np.array([-2.5, 0]), np.zeros(2, dtype=np.float32)]),
    ("SyntheticScene", lambda v: _scene(velocity=(v, 3.0)), "velocity[0]", "a real number",
     [*NOT_NUMBERS, (1.0, 2.0)], [0, -2.5, np.float32(1.0), np.int64(-3)]),
    ("SyntheticScene", lambda v: _scene(velocity=[1.0, v]), "velocity[1]", "a real number",
     NOT_NUMBERS, [0, -2.5, np.float32(1.0), np.int64(-3)]),
    ("checkerboard", lambda v: synth.checkerboard(GEOM, v), "period", "an integer >= 1",
     [*NOT_NUMBERS, 0, -2, 2.5], [1, 2, np.int64(16)]),
    ("gaussian_blobs", lambda v: _blobs(count=v), "count", "an integer >= 0",
     [*NOT_NUMBERS, -1, 2.5], [0, 1, np.int64(3)]),
    ("gaussian_blobs", lambda v: _blobs(sigma=v), "sigma", "a real number > 0",
     [*NOT_NUMBERS, 0.0, -1.0], [1e-3, 2, np.float32(0.5)]),
    ("gaussian_blobs", lambda v: _blobs(amplitude=v), "amplitude", "a real number",
     NOT_NUMBERS, [0.0, -1, np.float64(2)]),
    ("render_scene", lambda v: synth.render_scene(_scene(), v), "t", "a real number in [0, 1.0]",
     [*NOT_NUMBERS, -0.1, 1.5, 1.0 + 1e-9], [0, 1.0, 0.5, np.float32(1.0)]),
    ("generate_events", lambda v: synth.generate_events(_scene(), v), "timestep",
     "a real number > 0", [*NOT_NUMBERS, 0.0, -1e-2], [0.5, 0.1, np.float32(0.25)]),
    ("ground_truth_frame", lambda v: synth.ground_truth_frame(_scene(), v), "t_us",
     "an integer >= 0", [*NOT_NUMBERS, -5, 7.0, 2.5, np.float64(7)],
     [0, 7, np.int64(500_000), np.uint64(1_000_000), 1_000_000]),
    ("Adam", lambda v: Adam([], v), "lr", "a real number > 0",
     [*NOT_NUMBERS, 0.0, -1.0], [1e-9, 1, np.float32(1e-3), np.int64(1)]),
]


def _value_and_id(value):
    if isinstance(value, type(pytest.param(None))):
        return value.values[0], value.id
    return value, f"{value!r:.30}"


ROWS = [pytest.param(call, f"{field} must be {rule}, got {value!r}", value,
                     id=f"{label}-{field}-{value!r:.30}")
        for label, call, field, rule, values, _ in FIELDS for value in values]
ACCEPTED = [pytest.param(call, value, id=f"{label}-{field}-{value_id}")
            for label, call, field, _, _, values in FIELDS
            for value, value_id in map(_value_and_id, values)]


# Among these rows, before the shared rule:
# `AugmentConfig(h_flip_prob=True)` was accepted and `pause_prob="0.5"`
# failed with a bare TypeError; `events_per_pixel_count(geometry, True)`
# returned 64 on 8x8 and "1" failed with a bare TypeError; `amplitude=True`
# was accepted by `gaussian_blobs`; `render_scene(scene, True)` rendered at
# t = 1 s. `Adam` accepted a NaN, a negative or a bool `lr`, so a NaN rate
# showed only one update later, as a non-finite loss;
# `ground_truth_frame(scene, True)` rendered at 1 us, "7" failed with a bare
# TypeError and -5 was refused as a `t` of -5e-06. Unchecked, a float
# geometry side would give a float `pixels`, a float partition size or bin
# count would fail late with a bare TypeError, a float `unroll_steps` would
# train nothing (`k == window` never holds) and a `seed` of None would train
# unseeded. Before the non-numeric checks: `TrainConfig(weights=None)` and a
# dict `augment` were accepted and failed at the first training step with a
# bare AttributeError; a list `base` failed with a bare AttributeError and a
# complex one simulated events; `velocity=np.array(5.0)` failed with a bare
# TypeError from `len`. A `geometry` of None or (16, 16) failed with a bare
# AttributeError, and a `base` of another shape or with a non-finite value
# raised a plain ValueError; unchecked, a non-finite one would fail late,
# inside `generate_events`, with an invalid-value warning. A geometry side
# of 100000 was accepted, and an x of 70000 passed the bounds check and was
# stored as 4464 in the stream's uint16 column.
@pytest.mark.parametrize("call,message,value", ROWS)
def test_numeric_setting_rejects_wrong_kind_non_finite_or_out_of_range(call, message, value):
    with pytest.raises(ConfigurationError) as raised:
        call(value)
    assert str(raised.value) == message


# The configs, with their required arguments. A field added to one later
# must get a row in FIELDS, and cannot be changed after the checks ran.
CONFIGS = {TrainConfig: {}, LossWeights: {}, AugmentConfig: {},
           SensorGeometry: dict(width=16, height=16),
           synth.SyntheticScene: dict(geometry=GEOM, base=BASE, velocity=(1.0, 0.0))}


def test_every_config_field_has_a_row_and_no_field_can_be_assigned():
    rows = {(label, field.split()[-1]) for label, _, field, *_ in FIELDS}
    for cls, required in CONFIGS.items():
        config = cls(**required)
        for f in dataclasses.fields(cls):
            assert (cls.__name__, f.name) in rows
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, f.name, getattr(config, f.name))


# Rejecting 7 and accepting 8 pins where a closed bound lies; an open bound
# gets a value just above it.
@pytest.mark.parametrize("call,value", ACCEPTED)
def test_setting_accepts_values_on_or_inside_each_bound(call, value):
    call(value)


def test_values_on_a_closed_bound_and_numpy_numbers_are_accepted():
    assert len(partition_by_count(STREAM, np.int32(2))) == 5
    TrainConfig(unroll_steps=3, tc_start_step=3, epochs=0, seed=np.int64(0), bins=2)
    assert TrainConfig(lr=np.float32(1e-3)).lr == np.float32(1e-3)
    assert TrainConfig(lr=1).lr == 1
    weights = LossWeights(lambda1=np.float64(0.5), c_pos=np.int64(2), deblur_enabled=np.False_)
    assert not weights.deblur_enabled
    scene = _scene(velocity=np.array([-2.5, 0]))
    synth.render_scene(scene, scene.duration)


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
