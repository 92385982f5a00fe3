import numpy as np
import pytest

from evssl import autodiff as ad
from evssl.autodiff import Parameter, Tensor

from gradcheck import check_gradients

N_INSTANCES = 20


def leaf(rng, shape, lo=-2.0, hi=2.0, name="p"):
    return Parameter(name, rng.uniform(lo, hi, size=shape))


# ---------------------------------------------------------------------------
# forward semantics


def test_relu_values():
    out = ad.relu(Tensor([-1.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 2.0])


def test_tanh_zero_has_unit_gradient():
    x = Parameter("x", 0.0)
    out = ad.tanh(x)
    assert out.item() == 0.0
    out.backward()
    assert x.grad == pytest.approx(1.0)


def test_add_rejects_mismatched_nonscalar_shapes():
    with pytest.raises(ValueError):
        ad.add(Tensor([1.0, 2.0]), Tensor([3.0]))


def test_scalar_broadcast_allowed():
    out = ad.mul(Tensor([1.0, 2.0]), 3.0)
    assert np.array_equal(out.data, [3.0, 6.0])


def test_no_operation_mutates_inputs():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(4, 4)))
    before = x.data.copy()
    ad.relu(x)
    ad.sigmoid(x)
    ad.add(x, x)
    ad.conv2d(ad.reshape(x, (1, 4, 4)), Tensor(np.ones((1, 1, 3, 3))))
    assert np.array_equal(x.data, before)


def test_evaluation_is_deterministic():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(2, 6, 6))
    w = rng.normal(size=(3, 2, 3, 3))

    def run():
        x = Parameter("x", data)
        out = ad.tsum(ad.tanh(ad.conv2d(x, Tensor(w))))
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
    w = Parameter("w", [0.5, 0.5, 0.5])
    loss = ad.tsum(ad.mul(w, x))
    loss.backward()
    assert np.array_equal(w.grad, x)


def test_backward_accumulates_over_reuse():
    w = Parameter("w", [1.0, 2.0])
    loss = ad.add(ad.tsum(w), ad.tsum(w))
    loss.backward()
    assert np.array_equal(w.grad, [2.0, 2.0])


def test_backward_requires_scalar_root():
    w = Parameter("w", [1.0, 2.0])
    with pytest.raises(ValueError):
        ad.mul(w, 2.0).backward()


def test_repeated_backward_errors():
    w = Parameter("w", [1.0])
    loss = ad.tsum(w)
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()


def test_deep_graph_backward_no_recursion_limit():
    x = Parameter("x", 1.0)
    out = x
    for _ in range(5000):
        out = ad.add(out, 1.0)
    loss = ad.tsum(out)
    loss.backward()
    assert x.grad == pytest.approx(1.0)


def test_detach_blocks_gradient_and_keeps_values():
    w = Parameter("w", [1.0, 2.0])
    inner = ad.mul(w, 3.0)
    cut = inner.detach()
    assert np.array_equal(cut.data, inner.data)
    loss = ad.tsum(ad.square(cut))
    loss.backward()
    assert w.grad is None
    assert not cut.requires_grad
    assert not cut.detach().requires_grad  # idempotent


# ---------------------------------------------------------------------------
# gradient suite: elementwise ops

UNARY_CASES = [
    ("abs", ad.absolute, (0.1, 2.0)),      # away from the kink at 0
    ("square", ad.square, (-2.0, 2.0)),
    ("sqrt", ad.sqrt, (0.2, 3.0)),
    ("relu_pos", ad.relu, (0.1, 2.0)),
    ("relu_neg", ad.relu, (-2.0, -0.1)),
    ("tanh", ad.tanh, (-2.0, 2.0)),
    ("sigmoid", ad.sigmoid, (-3.0, 3.0)),
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
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        x = leaf(rng, (3, 3), name="x")
        s = Parameter("s", rng.uniform(0.5, 1.5))
        check_gradients(lambda: ad.tsum(ad.square(ad.mul(x, s))), [x, s])
        check_gradients(lambda: ad.tsum(ad.square(ad.div(x, s))), [x, s])


# ---------------------------------------------------------------------------
# structural ops


def test_getitem_slice_gradient():
    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        x = leaf(rng, (4, 5))
        check_gradients(lambda: ad.tsum(ad.square(x[1:, 2:])), [x])


def test_concat_gradient():
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        a = leaf(rng, (2, 3), name="a")
        b = leaf(rng, (3, 3), name="b")
        check_gradients(lambda: ad.tsum(ad.square(ad.concat([a, b], axis=0))), [a, b])


def test_reshape_gradient():
    rng = np.random.default_rng(600)
    x = leaf(rng, (2, 6))
    check_gradients(lambda: ad.tsum(ad.square(ad.reshape(x, (3, 4)))), [x])


def test_gather_pixels_gradient():
    for seed in range(5):
        rng = np.random.default_rng(700 + seed)
        field = leaf(rng, (5, 6), name="field")
        iy = rng.integers(0, 5, size=12)
        ix = rng.integers(0, 6, size=12)
        check_gradients(lambda: ad.tsum(ad.square(ad.gather_pixels(field, iy, ix))), [field])


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


# The input gradient is a transposed convolution, which swaps the channel
# roles, so one case has more input than output channels.
@pytest.mark.parametrize("kernel,c_in,c_out", [(1, 2, 3), (3, 2, 3), (5, 2, 3), (3, 4, 2)])
def test_conv2d_gradients(kernel, c_in, c_out):
    for seed in range(N_INSTANCES):
        rng = np.random.default_rng(900 + seed)
        x = leaf(rng, (c_in, 6, 7), name="x")
        w = leaf(rng, (c_out, c_in, kernel, kernel), -1.0, 1.0, name="w")
        b = leaf(rng, (c_out,), -0.5, 0.5, name="b")
        check_gradients(lambda: ad.tsum(ad.square(ad.conv2d(x, w, b))), [x, w, b])


def test_conv2d_same_padding_preserves_size():
    x = Tensor(np.zeros((1, 8, 9)))
    for k in (1, 3, 5):
        out = ad.conv2d(x, Tensor(np.zeros((2, 1, k, k))))
        assert out.shape == (2, 8, 9)


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
    out = ad.bilinear_splat(np.array([1.0]), Tensor([2.0]), Tensor([1.0]), (3, 4))
    expected = np.zeros((3, 4))
    expected[1, 2] = 1.0
    assert np.array_equal(out.data, expected)


def test_bilinear_splat_quarter_split():
    out = ad.bilinear_splat(np.array([1.0]), Tensor([1.25]), Tensor([0.0]), (2, 4))
    assert out.data[0, 1] == pytest.approx(0.75)
    assert out.data[0, 2] == pytest.approx(0.25)


def test_bilinear_splat_drops_out_of_frame_corners():
    out = ad.bilinear_splat(np.array([1.0]), Tensor([-0.5]), Tensor([0.0]), (2, 3))
    assert out.data[0, 0] == pytest.approx(0.5)
    assert out.data.sum() == pytest.approx(0.5)


def test_bilinear_splat_gradients():
    for seed in range(N_INSTANCES):
        rng = np.random.default_rng(1100 + seed)
        n = 8
        vals = rng.uniform(0.3, 1.5, size=n)
        xs = Parameter("xs", rng.uniform(0.15, 4.8, size=n))
        ys = Parameter("ys", rng.uniform(0.15, 3.8, size=n))
        for p in (xs, ys):
            p.data += np.where(np.abs(p.data - np.round(p.data)) < 0.05, 0.07, 0.0)
        target = Tensor(rng.normal(size=(5, 6)))

        def build():
            img = ad.bilinear_splat(vals, xs, ys, (5, 6))
            return ad.sum_of_squares(ad.sub(img, target))

        check_gradients(build, [xs, ys])


def test_sample_and_splat_reject_tensor_constants():
    # A Tensor grid or values would silently get no gradient.
    with pytest.raises(TypeError, match="constant array"):
        ad.bilinear_sample(Tensor(np.zeros((1, 2, 2))), Tensor(_identity_grid(2, 2)))
    with pytest.raises(TypeError, match="constant array"):
        ad.bilinear_splat(Parameter("v", [1.0]), Tensor([0.5]), Tensor([0.5]), (2, 2))
