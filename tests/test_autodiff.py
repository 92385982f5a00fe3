import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from evssl import autodiff as ad
from evssl import networks as nets
from evssl import training
from evssl.autodiff import Parameter, Tensor
from evssl.events import AugmentConfig, SensorGeometry

from conftest import random_partition
from gradcheck import check_gradients, trainable

N_INSTANCES = 20


def leaf(rng, shape, lo=-2.0, hi=2.0, name="p"):
    return trainable(name, rng.uniform(lo, hi, size=shape))


# ---------------------------------------------------------------------------
# forward semantics


def test_tanh_zero_has_unit_gradient():
    x = trainable("x", np.zeros((1, 1, 1)))
    out = ad.tsum(ad.conv2d(x, Tensor(np.ones((1, 1, 1, 1))), activation="tanh"))
    assert out.item() == 0.0
    out.backward()
    assert x.grad[0, 0, 0] == pytest.approx(1.0)


# A 0-d operand broadcasts only if it needs no gradient, on either side: one
# that needs a gradient against an array raises like any other mismatch.
@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div], ids=lambda op: op.__name__)
@pytest.mark.parametrize("operands,shapes", [
    (lambda: (Tensor([1.0, 2.0]), Tensor([3.0])), r"\(2,\) vs \(1,\)"),
    (lambda: (trainable("s", 2.0), Tensor(np.ones((3, 3)))), r"\(\) vs \(3, 3\)"),
    (lambda: (Tensor(np.ones((3, 3))), trainable("s", 2.0)), r"\(3, 3\) vs \(\)"),
], ids=["nonscalar", "grad_scalar_first", "grad_scalar_second"])
def test_add_rejects_mismatched_nonscalar_shapes(op, operands, shapes):
    with pytest.raises(ValueError, match=shapes):
        op(*operands())


def test_scalar_broadcast_allowed():
    out = ad.mul(Tensor([1.0, 2.0]), 3.0)
    assert np.array_equal(out.data, [3.0, 6.0])


def test_no_operation_mutates_inputs():
    # The fused nodes apply bias, skip and activation in place on their own
    # output; none of that may reach an operand, forward or backward.
    rng = np.random.default_rng(1)
    x, h = leaf(rng, (2, 4, 4), name="x"), leaf(rng, (3, 4, 4), name="h")
    w, b = leaf(rng, (3, 2, 3, 3), name="w"), leaf(rng, (3,), name="b")
    skip = leaf(rng, (3, 4, 4), name="skip")
    gru = gru_parameters(rng, 3, 2)  # six distinct arrays
    operands = (x, skip, h, w, b, *gru)
    before = [t.data.copy() for t in operands]
    for activation in (None, "relu", "sigmoid", "tanh"):
        ad.tsum(ad.conv2d(x, w, b, activation, skip=skip)).backward()
    ad.tsum(ad.add(x, x)).backward()
    ad.tsum(ad.conv_gru(x, h, *gru)).backward()
    for t, data in zip(operands, before):
        assert np.array_equal(t.data, data), t.name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name,reference", [
    ("relu", lambda v: np.maximum(v, 0.0)),
    ("sigmoid", lambda v: 1.0 / (1.0 + np.exp(-v))),
    ("tanh", np.tanh),
], ids=["relu", "sigmoid", "tanh"])
def test_activation_overwrites_its_argument_with_the_out_of_place_value(name, reference, dtype):
    v = np.random.default_rng(8).uniform(-20.0, 20.0, size=(5, 33, 65)).astype(dtype)
    expected = reference(v)
    out = ad._ACTIVATIONS[name][0](v)
    assert np.shares_memory(out, v)
    assert out.dtype == dtype
    assert np.array_equal(out, expected)


def test_item_reads_any_size_one_tensor():
    assert Tensor(1.5).item() == 1.5
    assert Tensor([1.5]).item() == 1.5
    assert Tensor([[[2.0]]]).item() == 2.0
    with pytest.raises(ValueError, match=r"\(2, 1\)"):
        Tensor([[1.0], [2.0]]).item()


def test_evaluation_is_deterministic():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(2, 6, 6))
    w = rng.normal(size=(3, 2, 3, 3))

    def run():
        x = trainable("x", data)
        out = ad.tsum(ad.conv2d(x, Tensor(w), activation="tanh"))
        out.backward()
        return out.data.copy(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_linear_gradient():
    x = np.array([1.0, -2.0, 3.0])
    w = trainable("w", [0.5, 0.5, 0.5])
    loss = ad.tsum(ad.mul(w, x))
    loss.backward()
    assert np.array_equal(w.grad, x)


def test_backward_accumulates_over_reuse():
    w = trainable("w", [1.0, 2.0])
    loss = ad.add(ad.tsum(w), ad.tsum(w))
    loss.backward()
    assert np.array_equal(w.grad, [2.0, 2.0])


def test_backward_hands_gradients_over_without_copying():
    # Both inputs of add receive the node's gradient itself; a later
    # contribution makes a new array instead of writing into the shared one.
    a, b = trainable("a", [1.0, 2.0]), trainable("b", [3.0, 4.0])
    ad.tsum(ad.add(a, b)).backward()
    assert a.grad is b.grad
    ad.add(ad.tsum(a), ad.tsum(ad.mul(a, 2.0))).backward()
    assert np.array_equal(a.grad, [4.0, 4.0])
    assert np.array_equal(b.grad, [1.0, 1.0])


def test_backward_requires_scalar_root():
    w = trainable("w", [1.0, 2.0])
    with pytest.raises(ValueError):
        ad.mul(w, 2.0).backward()


def test_repeated_backward_errors():
    w = trainable("w", [1.0])
    loss = ad.tsum(w)
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()


def test_deep_graph_backward_no_recursion_limit():
    x = trainable("x", 1.0)
    out = x
    for _ in range(5000):
        out = ad.add(out, 1.0)
    loss = ad.tsum(out)
    loss.backward()
    assert x.grad == pytest.approx(1.0)


# One ReconNet feature map at 32x32: 16 channels of float32.
FEATURE_MAP_BYTES = 16 * 32 * 32 * 4


def test_backward_keeps_only_leaf_gradients_and_bounded_memory():
    # A 5-step ReconNet unroll at 32x32. Each fused node keeps only what its
    # backward reads, so one call builds few graph nodes and the graph holds
    # at most 16 feature maps per step; backward frees each value once the
    # closures that read it have run, so it peaks at 24 maps per step; and
    # only leaves keep a gradient afterwards.
    steps = 5
    net = nets.ReconNet(bins=5)
    nets.init_parameters(net, np.random.default_rng(3))
    training.Adam(net.parameters(), 1e-3)  # holding them turns their gradients on

    def unroll():
        rng = np.random.default_rng(4)
        state, loss = None, Tensor(0.0)
        for _ in range(steps):
            image, state = net(rng.normal(size=(5, 32, 32)), state)
            loss = ad.add(loss, ad.sum_of_squares(image))
        return loss

    image, _ = net(np.zeros((5, 32, 32)), None)
    built = [node for node in ad._toposort(image) if node.backward is not None]
    assert len(built) <= 10, f"one ReconNet call builds {len(built)} graph nodes"

    tracemalloc.start()
    try:
        loss = unroll()
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held, top = (b / (steps * FEATURE_MAP_BYTES) for b in (start, peak))
    assert held <= 16.0, f"graph holds {held:.1f} feature maps per step"
    assert top <= 24.0, f"backward peaks at {top:.1f} feature maps per step"
    assert all(p.grad is not None for p in net.parameters())
    loss = unroll()
    inner = [node for node in ad._toposort(loss) if node.backward is not None]
    loss.backward()
    assert all(node.grad is None for node in inner)


def test_a_training_window_graph_holds_at_most_17_feature_maps_per_step(monkeypatch):
    # A whole train_recon window at 32x32 and S=4, losses and the loop's own
    # state included: the memory held when backward() starts, per step of
    # the window. Measured at 16.3 feature maps (1.07 MB) per step; the
    # bound adds 4.6%. A graph whose nodes held their values held 18.5.
    held = []
    backward = Tensor.backward

    def measured(root):
        held.append(tracemalloc.get_traced_memory()[0])
        backward(root)

    monkeypatch.setattr(Tensor, "backward", measured)
    geom, steps = SensorGeometry(32, 32), 5
    rng = np.random.default_rng(0)
    sequences = [[random_partition(rng, geom, 300) for _ in range(steps)]]
    config = training.TrainConfig(epochs=1, seed=3, lr=1e-3, unroll_steps=steps - 1,
                                  tc_start_step=2, augment=AugmentConfig(pause_prob=0.0))
    net = nets.ReconNet(bins=5)
    nets.init_parameters(net, np.random.default_rng(0))
    tracemalloc.start()
    try:
        training.train_recon(sequences, config, lambda p, v, m: np.full((2, 32, 32), 0.5), net)
    finally:
        tracemalloc.stop()
    assert len(held) == 1
    per_step = held[0] / (steps * FEATURE_MAP_BYTES)
    assert per_step <= 17.0, f"a window's graph holds {per_step:.2f} feature maps per step"


def test_detach_blocks_gradient_and_keeps_values():
    w = trainable("w", [1.0, 2.0])
    inner = ad.mul(w, 3.0)
    cut = inner.detach()
    assert np.array_equal(cut.data, inner.data)
    loss = ad.tsum(ad.square(cut))
    loss.backward()
    assert w.grad is None
    assert not cut.requires_grad
    assert not cut.detach().requires_grad  # idempotent


def test_requires_grad_is_turned_on_only():
    # Dropping or replacing a node would orphan the graphs that link it.
    x = Tensor([1.0, 2.0])
    x.requires_grad = True
    node = x._node
    out = ad.mul(x, 2.0)
    for t in (x, out):
        t.requires_grad = True
        with pytest.raises(ValueError, match="turned on, not off"):
            t.requires_grad = False
    assert x._node is node and out._node.parents == (node, None)
    ad.tsum(out).backward()
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_only_a_tensor_that_requires_a_gradient_holds_one():
    x = Tensor([1.0, 2.0])
    x.grad = None  # nothing to reset
    with pytest.raises(AttributeError, match="requires no gradient"):
        x.grad = np.ones(2)
    assert x.grad is None


def _constant(*shape):
    return Tensor(np.linspace(0.5, 1.5, int(np.prod(shape))).reshape(shape))


# Every public op, and Tensor[...], applied to constant inputs only.
CONSTANT_OPS = {
    "add": lambda: ad.add(_constant(3, 4), _constant(3, 4)),
    "sub": lambda: ad.sub(_constant(3, 4), 2.0),
    "mul": lambda: ad.mul(_constant(3, 4), _constant(3, 4)),
    "div": lambda: ad.div(_constant(3, 4), _constant(3, 4)),
    "absolute": lambda: ad.absolute(_constant(3, 4)),
    "square": lambda: ad.square(_constant(3, 4)),
    "sqrt": lambda: ad.sqrt(_constant(3, 4)),
    "getitem": lambda: _constant(3, 4)[1:, 2],
    "conv2d": lambda: ad.conv2d(_constant(2, 4, 4), _constant(3, 2, 3, 3), _constant(3),
                                "relu", skip=_constant(3, 4, 4)),
    "conv_gru": lambda: ad.conv_gru(_constant(1, 4, 4), _constant(2, 4, 4),
                                    *[_constant(2, 3, 3, 3), _constant(2)] * 3),
    "bilinear_sample": lambda: ad.bilinear_sample(_constant(2, 4, 4), np.ones((2, 3, 3))),
    "bilinear_splat": lambda: ad.bilinear_splat(np.ones((2, 5)), _constant(2, 5), (4, 4)),
    "gather_pixels": lambda: ad.gather_pixels(_constant(2, 4, 4), np.array([0, 3]),
                                              np.array([1, 1])),
    "tsum": lambda: ad.tsum(_constant(3, 4)),
    "sum_of_squares": lambda: ad.sum_of_squares(_constant(3, 4)),
}


def test_constant_op_cases_cover_every_public_op():
    assert set(CONSTANT_OPS) - {"getitem"} == set(ad.__all__) - {"Tensor", "Parameter"}


@pytest.mark.parametrize("name", sorted(CONSTANT_OPS))
def test_op_on_constants_returns_a_leaf(name):
    out = CONSTANT_OPS[name]()
    assert not out.requires_grad
    assert out._backward is None


def test_node_keeps_only_parents_that_require_gradients():
    p = trainable("p", [1.0, 2.0])
    out = ad.mul(p, Tensor([3.0, 4.0]))
    assert out._node.parents == (p._node, None)


def test_rebinding_backward_replaces_the_closure_that_backward_runs():
    # The benchmark's tracer (perfbench/tracing.py) times each op's backward
    # by rebinding `_backward` on the tensor the op returns.
    p = trainable("p", [1.0, 2.0])
    out = ad.mul(p, Tensor([3.0, 4.0]))
    closure, ran = out._backward, []
    out._backward = lambda g: ran.append(g) or closure(g)
    assert out._backward is not closure
    ad.tsum(out).backward()
    assert len(ran) == 1 and np.array_equal(p.grad, [3.0, 4.0])


def _intermediate():
    """A value that needs a gradient and that only its caller holds."""
    return ad.mul(trainable("p", np.linspace(0.5, 1.5, 32).reshape(2, 4, 4)), 2.0)


def _output(out):
    return out, ad.tsum(out)  # tsum keeps only a shape


# Given an intermediate t, (a tensor, a graph over it): the graph must free
# the tensor's value once the caller drops the tensor, because no backward
# reads it...
FREED_VALUES = {
    "add-output": lambda t: _output(ad.add(t, t)),
    "sub-output": lambda t: _output(ad.sub(t, 1.0)),
    "tsum-output": lambda t: _output(ad.tsum(t)),
    "getitem-output": lambda t: _output(t[0]),
    "gather_pixels-output": lambda t: _output(ad.gather_pixels(t, np.array([0, 3]),
                                                                np.array([1, 2]))),
    "bilinear_sample-image": lambda t: (t, ad.tsum(ad.bilinear_sample(t, np.full((2, 3, 3), 1.5)))),
    "conv2d-input-constant-weight": lambda t: (t, ad.tsum(ad.conv2d(t, np.ones((1, 2, 3, 3))))),
}

# ...or keep it until its backward has run, because it does.
KEPT_VALUES = {
    "mul-other-operand": lambda t: (t, ad.tsum(ad.mul(trainable("q", np.ones((2, 4, 4))), t))),
    "absolute-input": lambda t: (t, ad.tsum(ad.absolute(t))),
    "square-input": lambda t: (t, ad.tsum(ad.square(t))),
    "sum_of_squares-input": lambda t: (t, ad.sum_of_squares(t)),
    "sqrt-output": lambda t: _output(ad.sqrt(t)),
    "conv2d-input-trainable-weight":
        lambda t: (t, ad.tsum(ad.conv2d(t, trainable("w", np.ones((1, 2, 3, 3)))))),
}


def _watch(case):
    """A weak reference to the value of the case's tensor, dropped, and the root."""
    tensor, root = case(_intermediate())
    value = weakref.ref(tensor.data)
    del tensor
    gc.collect()
    return value, root


@pytest.mark.parametrize("name", sorted(FREED_VALUES))
def test_graph_frees_a_value_that_no_backward_reads(name):
    value, root = _watch(FREED_VALUES[name])
    assert value() is None
    root.backward()


@pytest.mark.parametrize("name", sorted(KEPT_VALUES))
def test_graph_keeps_a_value_that_a_backward_reads_until_it_has_run(name):
    value, root = _watch(KEPT_VALUES[name])
    assert value() is not None
    root.backward()
    gc.collect()
    assert value() is None


ADVANCED_KEYS = {
    "int-array": np.array([0, 0, 1]),
    "list": [0, 0, 1],
    "bool-array": np.array([True, False, True, False]),
    "bool": True,
    "numpy-bool": np.bool_(False),
    "tuple-with-array": (slice(None), np.array([0])),
}


@pytest.mark.parametrize("key", ADVANCED_KEYS.values(), ids=ADVANCED_KEYS.keys())
def test_getitem_rejects_advanced_keys(key):
    # tsum(p[[0, 0, 1]]) would get gradient [1, 1, 0, 0] for p[0], not [2, 1, 0, 0].
    p = trainable("p", [[1.0, 2.0, 3.0, 4.0]] * 4)
    with pytest.raises(TypeError, match="int, slice, None or Ellipsis"):
        p[key]


def test_getitem_accepts_basic_keys():
    p = trainable("p", np.arange(24.0).reshape(2, 3, 4))
    for key in (1, np.int64(-1), slice(None, None, -1), (Ellipsis, 2), (None, 0, slice(1, 3))):
        assert np.array_equal(p[key].data, p.data[key])
    ad.tsum(p[0, ::2, None, -1]).backward()
    expected = np.zeros((2, 3, 4))
    expected[0, ::2, -1] = 1.0
    assert np.array_equal(p.grad, expected)


# ---------------------------------------------------------------------------
# gradient suite: elementwise ops

UNARY_CASES = [
    ("abs", ad.absolute, (0.1, 2.0)),      # away from the kink at 0
    ("square", ad.square, (-2.0, 2.0)),
    ("sqrt", ad.sqrt, (0.2, 3.0)),
]


@pytest.mark.parametrize("name,op,box", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_gradients(name, op, box):
    for seed in range(N_INSTANCES):
        rng = np.random.default_rng(seed)
        x = leaf(rng, (3, 4), *box)
        check_gradients(lambda: ad.tsum(op(x)), [x])


BINARY_CASES = [
    ("add", ad.add, (-2.0, 2.0)),
    ("sub", ad.sub, (-2.0, 2.0)),
    ("mul", ad.mul, (-2.0, 2.0)),
    ("div", ad.div, (0.5, 2.0)),
]


@pytest.mark.parametrize("name,op,box", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
def test_binary_gradients(name, op, box):
    for seed in range(N_INSTANCES):
        rng = np.random.default_rng(100 + seed)
        a = leaf(rng, (3, 4), *box, name="a")
        b = leaf(rng, (3, 4), *box, name="b")
        # Squaring makes the loss depend nonlinearly on both operands.
        check_gradients(lambda: ad.tsum(ad.square(op(a, b))), [a, b])


def test_scalar_broadcast_gradients():
    # A constant 0-d scalar on either side of each op; only the array operand
    # needs a gradient. Both lie away from 0, so either may divide.
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        x = leaf(rng, (3, 3), 0.5, 2.0, name="x")
        s = Tensor(rng.uniform(0.5, 1.5))
        for _, op, _ in BINARY_CASES:
            check_gradients(lambda: ad.tsum(ad.square(op(x, s))), [x])
            check_gradients(lambda: ad.tsum(ad.square(op(s, x))), [x])


# ---------------------------------------------------------------------------
# structural ops


def test_getitem_slice_gradient():
    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        x = leaf(rng, (4, 5))
        check_gradients(lambda: ad.tsum(ad.square(x[1:, 2:])), [x])


def test_gather_pixels_gradient():
    for seed in range(5):
        rng = np.random.default_rng(700 + seed)
        field = leaf(rng, (2, 5, 6), name="field")
        iy = rng.integers(0, 5, size=12)
        ix = rng.integers(0, 6, size=12)
        probe = rng.normal(size=(2, 12))
        check_gradients(
            lambda: ad.tsum(ad.mul(ad.square(ad.gather_pixels(field, iy, ix)), probe)), [field])


def test_gather_pixels_reads_each_channel_at_the_indices():
    field = np.arange(24.0).reshape(2, 3, 4)
    iy, ix = np.array([2, 0, 2]), np.array([1, 3, 1])
    out = ad.gather_pixels(field, iy, ix)
    assert np.array_equal(out.data, field[:, iy, ix])


@pytest.mark.parametrize("channels", [1, 2])
def test_gather_pixels_keeps_the_shape_of_2d_indices(channels):
    field = np.arange(channels * 12.0).reshape(channels, 3, 4)
    iy, ix = np.array([[2, 0, 2], [1, 1, 0]]), np.array([[1, 3, 1], [0, 2, 3]])
    out = ad.gather_pixels(field, iy, ix)
    assert out.shape == (channels, 2, 3)
    assert np.array_equal(out.data, field[:, iy, ix])


# A flat index would alias (on a 3x4 frame, ix=4 reads pixel (1,0) and ix=-1
# the last pixel), numpy would broadcast [0, 1, 2] against [1] to three reads,
# and a float index would fail inside numpy.
@pytest.mark.parametrize("iy,ix,message", [
    ([0], [4], "outside the 3x4 frame"), ([0], [-1], "outside the 3x4 frame"),
    ([3], [0], "outside the 3x4 frame"), ([-1], [0], "outside the 3x4 frame"),
    ([0, 2], [3, 4], "outside the 3x4 frame"),
    ([0, 1, 2], [1], "differ in shape"),
    ([0.0], [1], "must be integers"), ([0], [1.5], "must be integers"),
    ([True], [1], "must be integers")])
def test_gather_pixels_rejects_indices_that_are_not_pixels_of_the_frame(iy, ix, message):
    with pytest.raises(ValueError, match=message):
        ad.gather_pixels(np.zeros((1, 3, 4)), np.array(iy), np.array(ix))


def test_gather_pixels_of_no_indices_reads_nothing():
    empty = np.zeros(0, dtype=np.int64)
    assert ad.gather_pixels(np.zeros((2, 3, 4)), empty, empty).shape == (2, 0)


@pytest.mark.parametrize("channels", [1, 2])
def test_gather_pixels_gradient_of_2d_indices(channels):
    # Repeated indices, as at a replicated border, sum their gradients.
    for seed in range(5):
        rng = np.random.default_rng(750 + seed)
        field = leaf(rng, (channels, 5, 6), name="field")
        iy = rng.integers(0, 5, size=(4, 7))
        ix = rng.integers(0, 6, size=(4, 7))
        probe = rng.normal(size=(channels, 4, 7))
        check_gradients(
            lambda: ad.tsum(ad.mul(ad.square(ad.gather_pixels(field, iy, ix)), probe)), [field])


# ---------------------------------------------------------------------------
# reductions


def test_sum_value():
    assert ad.tsum(Tensor([1.0, 2.0, 3.0])).item() == 6.0


def test_sum_of_squares_value():
    assert ad.sum_of_squares(Tensor([1.0, 2.0])).item() == 5.0


def test_reduction_gradients():
    for seed in range(N_INSTANCES):
        rng = np.random.default_rng(800 + seed)
        x = leaf(rng, (4, 4))
        check_gradients(lambda: ad.tsum(x), [x])
        check_gradients(lambda: ad.sum_of_squares(x), [x])


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_1x1():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 5, 5)))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = ad.conv2d(x, Tensor(w))
    assert np.allclose(out.data, x.data)


def test_conv2d_ones_kernel_center():
    x = Tensor(np.ones((1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = ad.conv2d(x, w)
    assert out.data[0, 1, 1] == 9.0
    assert out.data[0, 0, 0] == 4.0  # zero padding at the corner


def test_conv2d_channel_mismatch():
    with pytest.raises(ValueError):
        ad.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))


def test_conv2d_rejects_even_kernels():
    with pytest.raises(ValueError):
        ad.conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))


def test_conv2d_rejects_unknown_activation():
    with pytest.raises(ValueError, match="activation"):
        ad.conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), activation="elu")


# The input gradient is a transposed convolution, which swaps the channel
# roles, so one case has more input than output channels.
CONV_SHAPES = [(1, 2, 3), (3, 2, 3), (5, 2, 3), (3, 4, 2)]
CONV_CASES = [pytest.param(act, *shape, id="-".join(([act] if act else []) + list(map(str, shape))))
              for act in (None, "relu", "sigmoid", "tanh") for shape in CONV_SHAPES]


@pytest.mark.parametrize("activation,kernel,c_in,c_out", CONV_CASES)
def test_conv2d_gradients(activation, kernel, c_in, c_out):
    for seed in range(N_INSTANCES):
        rng = np.random.default_rng(900 + seed)
        x = leaf(rng, (c_in, 6, 7), name="x")
        w = leaf(rng, (c_out, c_in, kernel, kernel), -1.0, 1.0, name="w")
        b = leaf(rng, (c_out,), -0.5, 0.5, name="b")
        if activation == "relu":
            # Central differences need every pre-activation off the kink.
            assert np.abs(ad.conv2d(x, w, b).data).min() > 1e-4
        check_gradients(lambda: ad.tsum(ad.square(ad.conv2d(x, w, b, activation))), [x, w, b])


UNFUSED = {
    "relu": (lambda v: np.maximum(v, 0.0), lambda g, out: g * (out > 0.0)),
    "sigmoid": (lambda v: 1.0 / (1.0 + np.exp(-v)), lambda g, out: g * out * (1.0 - out)),
    "tanh": (np.tanh, lambda g, out: g * (1.0 - out * out)),
}


@pytest.mark.parametrize("activation", sorted(UNFUSED))
def test_conv2d_activation_matches_unfused(activation):
    # The fused node must give the same bits as the activation applied to
    # the plain conv output and its gradient fed back into the plain conv.
    fwd, grad = UNFUSED[activation]
    rng = np.random.default_rng(950)
    x = leaf(rng, (3, 6, 7), name="x")
    w = leaf(rng, (4, 3, 3, 3), -1.0, 1.0, name="w")
    b = leaf(rng, (4,), -0.5, 0.5, name="b")
    probe = rng.normal(size=(4, 6, 7))

    fused = ad.conv2d(x, w, b, activation)
    ad.tsum(ad.mul(fused, probe)).backward()
    fused_grads = [p.grad for p in (x, w, b)]
    for p in (x, w, b):
        p.grad = None

    plain = ad.conv2d(x, w, b)
    out = fwd(plain.data)
    ad.tsum(ad.mul(plain, grad(probe, out))).backward()
    assert np.array_equal(fused.data, out)
    for p, g in zip((x, w, b), fused_grads):
        assert np.array_equal(p.grad, g), p.name


def test_conv2d_same_padding_preserves_size():
    x = Tensor(np.zeros((1, 8, 9)))
    for k in (1, 3, 5):
        out = ad.conv2d(x, Tensor(np.zeros((2, 1, k, k))))
        assert out.shape == (2, 8, 9)


@pytest.mark.parametrize("activation", [None, "relu"])
def test_conv2d_skip_gradients(activation):
    for seed in range(N_INSTANCES):
        rng = np.random.default_rng(960 + seed)
        x = leaf(rng, (3, 6, 7), name="x")
        w = leaf(rng, (2, 3, 3, 3), -1.0, 1.0, name="w")
        b = leaf(rng, (2,), -0.5, 0.5, name="b")
        s = leaf(rng, (2, 6, 7), name="skip")
        if activation == "relu":
            assert np.abs(ad.conv2d(x, w, b, skip=s).data).min() > 1e-4
        check_gradients(lambda: ad.tsum(ad.square(ad.conv2d(x, w, b, activation, skip=s))),
                        [x, w, b, s])


@pytest.mark.parametrize("activation", [None, "relu"])
def test_conv2d_skip_matches_unfused(activation):
    # The skip is added before the activation, in the same order as an add
    # node between a plain conv and the activation.
    fwd, grad = UNFUSED.get(activation, (lambda v: v, lambda g, out: g))
    rng = np.random.default_rng(970)
    x = leaf(rng, (3, 6, 7), name="x")
    w = leaf(rng, (3, 3, 3, 3), -1.0, 1.0, name="w")
    b = leaf(rng, (3,), -0.5, 0.5, name="b")
    s = leaf(rng, (3, 6, 7), name="skip")
    probe = rng.normal(size=(3, 6, 7))
    params = (x, w, b, s)

    fused = ad.conv2d(x, w, b, activation, skip=s)
    ad.tsum(ad.mul(fused, probe)).backward()
    fused_grads = [p.grad for p in params]
    for p in params:
        p.grad = None

    plain = ad.add(ad.conv2d(x, w, b), s)
    out = fwd(plain.data)
    ad.tsum(ad.mul(plain, grad(probe, out))).backward()
    assert np.array_equal(fused.data, out)
    for p, g in zip(params, fused_grads):
        assert np.array_equal(p.grad, g), p.name


def test_conv2d_rejects_skip_of_another_shape():
    x, w = Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((2, 1, 3, 3)))
    for shape in ((1, 4, 4), (2, 4, 5), (2, 16)):
        with pytest.raises(ValueError, match="skip"):
            ad.conv2d(x, w, skip=Tensor(np.zeros(shape)))


@pytest.mark.parametrize("shape", [(3,), (1,), (2, 1), ()])
def test_conv2d_rejects_bias_of_another_shape(shape):
    x, w = Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((2, 1, 3, 3)))
    with pytest.raises(ValueError, match="bias shape"):
        ad.conv2d(x, w, Tensor(np.zeros(shape)))


# The correlation helpers against tap-by-tap references that never see the
# flat layout. Images narrower or shorter than the kernel make every run
# wrap through the padding, and k=1 has no padding and no junk columns.
# 37 rows make the forward run two full bands and a short last one.
CORRELATION_CASES = [pytest.param(k, shape, id=f"k{k}-{shape[0]}x{shape[1]}")
                     for k in (1, 3, 5)
                     for shape in ((1, 1), (1, 2), (2, 3), (6, 7), (3, 11), (37, 23), (64, 64))]


def padded_taps(x, k):
    """Every (dy, dx) of k*k with the (C,H,W) window of x zero-padded by k//2."""
    p, (h, w) = k // 2, x.shape[1:]
    xp = np.zeros((len(x), h + 2 * p, w + 2 * p))
    xp[:, p:p + h, p:p + w] = x
    return [(dy, dx, xp[:, dy:dy + h, dx:dx + w]) for dy in range(k) for dx in range(k)]


@pytest.mark.parametrize("k,shape", CORRELATION_CASES)
def test_correlation_helpers_match_tap_loop_references(k, shape):
    rng = np.random.default_rng(990)
    c_in, c_out, p = 3, 2, k // 2
    x, g = rng.normal(size=(c_in, *shape)), rng.normal(size=(c_out, *shape))
    w = rng.normal(size=(c_out, c_in, k, k))

    out = sum(np.einsum("oc,chw->ohw", w[:, :, dy, dx], tap) for dy, dx, tap in padded_taps(x, k))
    w_grad = np.zeros_like(w)
    for dy, dx, tap in padded_taps(x, k):
        w_grad[:, :, dy, dx] = np.einsum("ohw,chw->oc", g, tap)
    # The input gradient scatters each tap's share back to where it was read.
    x_grad = np.zeros((c_in, shape[0] + 2 * p, shape[1] + 2 * p))
    for dy in range(k):
        for dx in range(k):
            x_grad[:, dy:dy + shape[0], dx:dx + shape[1]] += np.einsum("oc,ohw->chw", w[:, :, dy, dx], g)
    x_grad = x_grad[:, p:p + shape[0], p:p + shape[1]]

    # The input split into two channel blocks must read as their stack.
    blocks = [x[:1], x[1:]]
    for got, want in ((ad._correlate(blocks, w), out),
                      *zip(ad._correlate_grads(blocks, w, g), (w_grad, x_grad)),
                      (ad._correlate_weight_grad(x, g, k), w_grad)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_runs_stack_channel_blocks_with_zero_junk_columns():
    rng = np.random.default_rng(991)
    a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(1, 3, 4))
    runs = ad._runs([a, b], 3, np.float64)
    assert runs.shape == (3, 3, 3, 3 * 6)
    center = runs[:, 1, 1].reshape(3, 3, 6)
    assert np.array_equal(center[:, :, :4], np.concatenate([a, b]))
    assert not center[:, :, 4:].any()


def test_weight_gradient_builds_no_im2col():
    # A 32->32 3x3 conv at 64x64 whose input needs no gradient: both flat
    # buffers and the gradient together must stay below a third of the
    # im2col (C_in*9*H*W doubles) that the weight gradient does without.
    rng = np.random.default_rng(992)
    x, g = rng.normal(size=(32, 64, 64)), rng.normal(size=(32, 64, 64))
    tracemalloc.start()
    try:
        ad._correlate_weight_grad(x, g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    im2col = 32 * 9 * 64 * 64 * 8
    assert peak < im2col / 3, f"weight gradient peaks at {peak / im2col:.2f} im2cols"


def test_forward_builds_no_whole_frame_im2col():
    # A 32->32 3x3 conv at 64x64: the forward's banded im2cols, its flat
    # buffer and its output together must stay below 0.6 of the im2col
    # over the whole frame (C_in*9*H*(W+2) doubles). Measured at 0.53; a
    # single whole-frame im2col peaked at 1.11.
    rng = np.random.default_rng(994)
    x, w = rng.normal(size=(32, 64, 64)), rng.normal(size=(32, 32, 3, 3))
    tracemalloc.start()
    try:
        ad._correlate([x], w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    im2col = 32 * 9 * 64 * 66 * 8
    assert peak < 0.6 * im2col, f"forward peaks at {peak / im2col:.2f} im2cols"


@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_conv2d_gradients_of_a_constant_input(kernel):
    # With no input gradient there is no im2col of g to share, so the
    # weight gradient takes its own path.
    for seed in range(5):
        rng = np.random.default_rng(993 + seed)
        x = Tensor(rng.normal(size=(3, 6, 7)))
        w = leaf(rng, (2, 3, kernel, kernel), -1.0, 1.0, name="w")
        b = leaf(rng, (2,), -0.5, 0.5, name="b")
        check_gradients(lambda: ad.tsum(ad.square(ad.conv2d(x, w, b, "tanh"))), [w, b])


@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_conv2d_under_a_constant_weight_computes_only_the_input_gradient(kernel, monkeypatch):
    # Such as warp_previous's gradient stack: backward builds the runs of g
    # for the input gradient, and none of the input for a weight gradient.
    # The input gradient is the one a trainable copy of the weight gives.
    rng = np.random.default_rng(996)
    x = trainable("x", rng.normal(size=(3, 6, 7)))
    w, probe = rng.normal(size=(2, 3, kernel, kernel)), rng.normal(size=(2, 6, 7))
    ad.tsum(ad.mul(ad.conv2d(x, trainable("w", w), activation="tanh"), probe)).backward()
    expected, x.grad = x.grad, None
    out = ad.conv2d(x, w, activation="tanh")
    runs, real_runs = [], ad._runs

    def counted(blocks, k, dtype):
        runs.append(blocks)
        return real_runs(blocks, k, dtype)

    def weight_grad(*args):
        raise AssertionError("a constant weight got a weight gradient")

    monkeypatch.setattr(ad, "_runs", counted)
    monkeypatch.setattr(ad, "_correlate_weight_grad", weight_grad)
    ad.tsum(ad.mul(out, probe)).backward()
    assert len(runs) == 1
    assert np.array_equal(x.grad, expected)


# ---------------------------------------------------------------------------
# conv_gru


def gru_parameters(rng, c, c_x):
    """Update, reset and candidate weight and bias of a 3x3 cell."""
    return [leaf(rng, shape, lo, -lo, name=f"{part}.{kind}")
            for part in ("update", "reset", "candidate")
            for kind, shape, lo in (("weight", (c, c + c_x, 3, 3), -0.5), ("bias", (c,), -0.3))]


def composite_gru(x, h, wz, bz, wr, br, wc, bc):
    """The cell built from plain ops, one node per operation. A correlation
    over [h, x] is one over x plus one over h, the kernel split by input channel."""
    c = h.shape[0]
    z = ad.conv2d(x, wz[:, c:], bz, "sigmoid", skip=ad.conv2d(h, wz[:, :c]))
    r = ad.conv2d(x, wr[:, c:], br, "sigmoid", skip=ad.conv2d(h, wr[:, :c]))
    cand = ad.conv2d(x, wc[:, c:], bc, "tanh", skip=ad.conv2d(ad.mul(r, h), wc[:, :c]))
    return ad.add(ad.mul(ad.sub(1.0, z), h), ad.mul(z, cand))


# (state, input): a trainable leaf, or a constant zero state (the first step) or
# constant input that gets no gradient.
GRU_CASES = ["both", "zero_state", "constant_input"]


@pytest.mark.parametrize("case", GRU_CASES)
def test_conv_gru_gradients(case):
    for seed in range(5):
        rng = np.random.default_rng(980 + seed)
        params = gru_parameters(rng, 2, 3)
        x = leaf(rng, (3, 4, 5), name="x")
        h = leaf(rng, (2, 4, 5), -1.0, 1.0, name="h")
        if case == "zero_state":
            h = Tensor(np.zeros((2, 4, 5)))
        elif case == "constant_input":
            x = Tensor(x.data)
        probe = rng.normal(size=(2, 4, 5))
        free = [t for t in (x, h) if t.requires_grad] + params
        check_gradients(lambda: ad.tsum(ad.mul(ad.conv_gru(x, h, *params), probe)), free)


@pytest.mark.parametrize("case", GRU_CASES)
def test_conv_gru_matches_composite(case):
    # Only summation order differs: the composite sums each gate's h and x
    # taps apart, the fused cell in one GEMM (both gates' weight and input
    # gradients too). That moves the output ~2e-14 and the gradients ~2e-12
    # relative; a wrong gate or channel order moves them O(1).
    rng = np.random.default_rng(990)
    params = gru_parameters(rng, 4, 3)
    x = leaf(rng, (3, 6, 7), name="x")
    h = leaf(rng, (4, 6, 7), -1.0, 1.0, name="h")
    if case == "zero_state":
        h = Tensor(np.zeros((4, 6, 7)))
    elif case == "constant_input":
        x = Tensor(x.data)
    probe = rng.normal(size=(4, 6, 7))
    free = [t for t in (x, h) if t.requires_grad] + params

    fused = ad.conv_gru(x, h, *params)
    ad.tsum(ad.mul(fused, probe)).backward()
    fused_grads = [p.grad for p in free]
    for p in free:
        p.grad = None

    plain = composite_gru(x, h, *params)
    ad.tsum(ad.mul(plain, probe)).backward()
    np.testing.assert_allclose(fused.data, plain.data, rtol=1e-12, atol=0.0)
    for p, g in zip(free, fused_grads):
        np.testing.assert_allclose(g, p.grad, rtol=1e-10, atol=0.0, err_msg=p.name)


def test_conv_gru_rejects_state_or_input_that_does_not_fit():
    params = gru_parameters(np.random.default_rng(0), 2, 3)
    fits = (Tensor(np.zeros((3, 4, 5))), Tensor(np.zeros((2, 4, 5))))
    ad.conv_gru(*fits, *params)
    for x_shape, h_shape in (((3, 4, 5), (3, 4, 5)), ((3, 4, 5), (2, 4, 4)),
                             ((2, 4, 5), (2, 4, 5)), ((3, 20), (2, 4, 5)),
                             ((3, 4, 5), (2, 20))):
        with pytest.raises(ValueError, match="do not fit"):
            ad.conv_gru(Tensor(np.zeros(x_shape)), Tensor(np.zeros(h_shape)), *params)


# Replaced operand, by its index among (update, reset, candidate) x
# (weight, bias) of a cell with 2 state and 3 input channels.
@pytest.mark.parametrize("index,shape,match", [
    (2, (2, 6, 3, 3), "gate weights"), (4, (3, 5, 3, 3), "gate weights"),
    (4, (2, 5, 1, 1), "gate weights"), (1, (3,), "bias shapes"),
    (3, (2, 1), "bias shapes"), (5, (), "bias shapes")])
def test_conv_gru_rejects_gate_weights_or_biases_that_differ(index, shape, match):
    params = gru_parameters(np.random.default_rng(0), 2, 3)
    params[index] = Tensor(np.zeros(shape))
    with pytest.raises(ValueError, match=match):
        ad.conv_gru(Tensor(np.zeros((3, 4, 5))), Tensor(np.zeros((2, 4, 5))), *params)


# ---------------------------------------------------------------------------
# the dtype rule: a correlation runs in its weights' dtype


def test_tensor_keeps_float32_and_casts_any_other_dtype_to_float64():
    for data in (np.zeros(3, np.float32), np.float32(0.5)):
        assert Tensor(data).data.dtype == np.float32
    for data in (np.zeros(3, np.float16), np.arange(3), [1, 2], 0.5, True, np.zeros(2)):
        assert Tensor(data).data.dtype == np.float64


def test_gradient_check_refuses_float32_parameters():
    # h = 1e-6 is below float32's resolution near 1.
    x = trainable("x", np.ones(3, np.float32))
    with pytest.raises(TypeError, match="x needs float64, got float32"):
        check_gradients(lambda: ad.tsum(ad.square(x)), [x])


def _assert_dtype_and_close(tensors, twins, dtype):
    """Each tensor's gradient is in dtype and within float32 rounding of
    its float64 twin's, relative to the twin's largest entry."""
    for t, twin in zip(tensors, twins):
        if t.requires_grad:
            assert t.grad.dtype == dtype, t.name
            assert np.abs(t.grad - twin.grad).max() <= 1e-5 * np.abs(twin.grad).max(), t.name


def _upcast(t):
    return trainable(t.name, t.data.astype(np.float64)) if t.requires_grad \
        else Tensor(t.data.astype(np.float64))


# (weights, inputs): float64 weights with float32 inputs, and float32
# weights with float64 inputs. The upstream gradient is float64 in both.
DTYPE_PAIRS = [(np.float64, np.float32), (np.float32, np.float64)]


@pytest.mark.parametrize("w_dtype,x_dtype", DTYPE_PAIRS, ids=["f64-weights", "f32-weights"])
@pytest.mark.parametrize("x_needs_grad", [True, False], ids=["x-grad", "x-constant"])
def test_conv2d_runs_in_its_weights_dtype(w_dtype, x_dtype, x_needs_grad):
    rng = np.random.default_rng(995)
    x = rng.uniform(-2.0, 2.0, size=(3, 5, 6)).astype(x_dtype)
    x = trainable("x", x) if x_needs_grad else Tensor(x)
    w = trainable("w", rng.uniform(-2.0, 2.0, size=(2, 3, 3, 3)).astype(w_dtype))
    b = trainable("b", rng.uniform(-2.0, 2.0, size=2).astype(w_dtype))
    skip = trainable("skip", rng.uniform(-2.0, 2.0, size=(2, 5, 6)).astype(x_dtype))
    probe = rng.normal(size=(2, 5, 6))
    tensors = (x, w, b, skip)
    twins = [_upcast(t) for t in tensors]

    out = ad.conv2d(*tensors[:3], "tanh", skip=skip)
    assert out.data.dtype == w_dtype
    ad.tsum(ad.mul(out, probe)).backward()
    ad.tsum(ad.mul(ad.conv2d(*twins[:3], "tanh", skip=twins[3]), probe)).backward()
    _assert_dtype_and_close(tensors, twins, w_dtype)


# The third case's biases are added into the float32 correlation outputs,
# as conv2d adds its own, so they do not promote the state to float64.
@pytest.mark.parametrize("w_dtype,x_dtype,b_dtype",
                         [(w, x, w) for w, x in DTYPE_PAIRS]
                         + [(np.float32, np.float32, np.float64)],
                         ids=["f64-weights", "f32-weights", "f32-weights-f64-biases"])
def test_conv_gru_runs_in_its_weights_dtype(w_dtype, x_dtype, b_dtype):
    rng = np.random.default_rng(996)
    params = [trainable(p.name, p.data.astype(w_dtype if p.name.endswith("weight") else b_dtype))
              for p in gru_parameters(rng, 2, 3)]
    x = trainable("x", rng.uniform(-2.0, 2.0, size=(3, 4, 5)).astype(x_dtype))
    h = trainable("h", rng.uniform(-1.0, 1.0, size=(2, 4, 5)).astype(x_dtype))
    probe = rng.normal(size=(2, 4, 5))
    tensors = (x, h, *params)
    twins = [_upcast(t) for t in tensors]

    out = ad.conv_gru(*tensors)
    assert out.data.dtype == w_dtype
    ad.tsum(ad.mul(out, probe)).backward()
    ad.tsum(ad.mul(ad.conv_gru(*twins), probe)).backward()
    _assert_dtype_and_close(tensors, twins, w_dtype)


# ---------------------------------------------------------------------------
# bilinear sampling


def _identity_grid(h, w):
    gy, gx = np.mgrid[0:h, 0:w].astype(np.float64)
    return np.stack([gx, gy])


def test_bilinear_sample_identity():
    rng = np.random.default_rng(0)
    img = Tensor(rng.normal(size=(2, 4, 5)))
    out = ad.bilinear_sample(img, _identity_grid(4, 5))
    assert np.allclose(out.data, img.data)


def test_bilinear_sample_half_pixel_shift_on_ramp():
    w = 6
    ramp = Tensor(np.arange(w, dtype=np.float64)[None, None, :].repeat(4, axis=1))
    grid = _identity_grid(4, w)
    grid[0] += 0.5
    out = ad.bilinear_sample(ramp, grid)
    assert np.allclose(out.data[0, :, :-1], ramp.data[0, :, :-1] + 0.5)


def test_bilinear_sample_border_replicate():
    img = Tensor(np.arange(4, dtype=np.float64)[None, None, :])
    grid = np.stack([np.array([[-3.0, 10.0]]), np.zeros((1, 2))])
    out = ad.bilinear_sample(img, grid)
    assert np.allclose(out.data[0, 0], [0.0, 3.0])


def test_bilinear_sample_gradients():
    for seed in range(N_INSTANCES):
        rng = np.random.default_rng(1000 + seed)
        img = leaf(rng, (2, 5, 6), name="img")
        # In-range, non-integer coordinates away from the integer lattice.
        gx = rng.uniform(0.1, 4.9, size=(4, 5))
        gx += np.where(np.abs(gx - np.round(gx)) < 0.05, 0.07, 0.0)
        gy = rng.uniform(0.1, 3.9, size=(4, 5))
        gy += np.where(np.abs(gy - np.round(gy)) < 0.05, 0.07, 0.0)
        grid = np.stack([gx, gy])
        check_gradients(lambda: ad.tsum(ad.square(ad.bilinear_sample(img, grid))), [img])


# ---------------------------------------------------------------------------
# bilinear splatting


def test_bilinear_splat_integer_position():
    out = ad.bilinear_splat(np.array([[1.0]]), Tensor([[2.0], [1.0]]), (3, 4))
    expected = np.zeros((1, 3, 4))
    expected[0, 1, 2] = 1.0
    assert np.array_equal(out.data, expected)


def test_bilinear_splat_quarter_split():
    out = ad.bilinear_splat(np.array([[1.0]]), Tensor([[1.25], [0.0]]), (2, 4))
    assert out.data[0, 0, 1] == pytest.approx(0.75)
    assert out.data[0, 0, 2] == pytest.approx(0.25)


def test_bilinear_splat_drops_out_of_frame_corners():
    out = ad.bilinear_splat(np.array([[1.0]]), Tensor([[-0.5], [0.0]]), (2, 3))
    assert out.data[0, 0, 0] == pytest.approx(0.5)
    assert out.data.sum() == pytest.approx(0.5)


def test_bilinear_splat_gradients():
    for seed in range(N_INSTANCES):
        rng = np.random.default_rng(1100 + seed)
        n = 8
        vals = rng.uniform(0.3, 1.5, size=(2, n))
        pos = trainable("pos", np.stack([rng.uniform(0.15, 4.8, size=n),
                                         rng.uniform(0.15, 3.8, size=n)]))
        pos.data += np.where(np.abs(pos.data - np.round(pos.data)) < 0.05, 0.07, 0.0)
        target = Tensor(rng.normal(size=(2, 5, 6)))

        def build():
            img = ad.bilinear_splat(vals, pos, (5, 6))
            return ad.sum_of_squares(ad.sub(img, target))

        check_gradients(build, [pos])


def test_bilinear_splat_rows_match_one_row_splats():
    rng = np.random.default_rng(12)
    vals = rng.uniform(0.3, 1.5, size=(2, 30))
    pos = np.stack([rng.uniform(-1.0, 6.5, size=30), rng.uniform(-1.0, 5.5, size=30)])
    both = ad.bilinear_splat(vals, pos, (5, 6)).data
    for row in range(2):
        one = ad.bilinear_splat(vals[row:row + 1], pos, (5, 6)).data
        assert np.array_equal(both[row], one[0])


def test_sample_and_splat_reject_tensor_constants():
    # A Tensor grid or values would silently get no gradient.
    with pytest.raises(TypeError, match="constant array"):
        ad.bilinear_sample(Tensor(np.zeros((1, 2, 2))), Tensor(_identity_grid(2, 2)))
    with pytest.raises(TypeError, match="constant array"):
        ad.bilinear_splat(Parameter("v", [[1.0]]), Tensor([[0.5], [0.5]]), (2, 2))


@pytest.mark.parametrize("shape", [(2, 4), (3, 2, 2), (1, 2, 2), (2, 2, 2, 1)])
def test_bilinear_sample_rejects_grid_of_another_shape(shape):
    with pytest.raises(ValueError, match=r"grid must be \(2,H,W\)"):
        ad.bilinear_sample(Tensor(np.zeros((1, 2, 2))), np.zeros(shape))


@pytest.mark.parametrize("values_shape,pos_shape", [
    ((3,), (2, 3)), ((1, 1, 3), (2, 3)), ((1, 3), (2, 4)), ((1, 3), (3, 3)), ((1, 3), (6,))])
def test_bilinear_splat_rejects_values_or_positions_of_another_shape(values_shape, pos_shape):
    with pytest.raises(ValueError, match=r"values must be \(C,N\) and pos \(2,N\)"):
        ad.bilinear_splat(np.zeros(values_shape), Tensor(np.zeros(pos_shape)), (4, 4))
