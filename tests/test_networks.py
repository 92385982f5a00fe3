import numpy as np
import pytest

from evssl import autodiff as ad
from evssl import networks as nets
from evssl.autodiff import Parameter, Tensor

from gradcheck import check_gradients


# ---------------------------------------------------------------------------
# parameter budgets


def test_fireflownet_parameter_count():
    net = nets.FireFlowNet(bins=5)
    assert sum(p.data.size for p in net.parameters()) == 57_026


def test_reconnet_parameter_count():
    net = nets.ReconNet(bins=5)
    assert sum(p.data.size for p in net.parameters()) == 37_777


def test_parameter_names_unique():
    for net in (nets.FireFlowNet(bins=5), nets.ReconNet(bins=5)):
        names = [p.name for p in net.parameters()]
        assert len(names) == len(set(names))


# ---------------------------------------------------------------------------
# FireFlowNet behaviour


def _init_flow_net(seed=0, bins=5):
    net = nets.FireFlowNet(bins=bins)
    nets.init_parameters(net, np.random.default_rng(seed))
    return net


def test_fireflownet_zero_voxel_gives_zero_flow():
    net = _init_flow_net()
    voxel = np.zeros((5, 16, 16))
    mask = np.zeros((16, 16), dtype=bool)
    flow = net(voxel, mask)
    assert np.all(flow.data == 0.0)


def test_fireflownet_masked_pixels_exactly_zero():
    rng = np.random.default_rng(1)
    net = _init_flow_net(seed=3)
    voxel = rng.normal(size=(5, 16, 16))
    mask = rng.random((16, 16)) > 0.5
    flow = net(voxel, mask)
    assert np.all(flow.data[:, ~mask] == 0.0)
    assert np.any(flow.data[:, mask] != 0.0)


def test_fireflownet_output_bounded_by_flow_scale():
    rng = np.random.default_rng(2)
    net = _init_flow_net(seed=4)
    voxel = 5.0 * rng.normal(size=(5, 12, 12))
    flow = net(voxel, np.ones((12, 12), dtype=bool))
    assert np.all(np.abs(flow.data) <= nets.FLOW_SCALE)
    # A saturated tanh reaches the bound, so the head is scaled by it.
    assert np.abs(flow.data).max() > 0.99 * nets.FLOW_SCALE


def test_fireflownet_channel_mismatch():
    # e1's conv2d checks the bin count against its weight.
    net = _init_flow_net()
    with pytest.raises(ValueError, match="channel mismatch"):
        net(np.zeros((3, 8, 8)), np.ones((8, 8), dtype=bool))


def test_fireflownet_spatial_size_preserved():
    net = _init_flow_net()
    flow = net(np.zeros((5, 9, 13)), np.ones((9, 13), dtype=bool))
    assert flow.shape == (2, 9, 13)


# ---------------------------------------------------------------------------
# ReconNet behaviour


def _init_recon_net(seed=0, bins=5):
    net = nets.ReconNet(bins=bins)
    nets.init_parameters(net, np.random.default_rng(seed))
    return net


def test_reconnet_zero_input_zero_state_is_bias_constant():
    net = _init_recon_net(seed=5)
    out, state = net(np.zeros((5, 10, 10)), None)
    assert out.shape == (10, 10)
    # Biases are zero after init, so the whole cascade stays at zero.
    assert np.allclose(out.data, out.data[0, 0])
    # With a nonzero prediction bias the constant moves with it.
    net.pred.bias.data = np.array([0.25])
    out2, _ = net(np.zeros((5, 10, 10)), None)
    assert np.allclose(out2.data, 0.25)


def test_reconnet_deterministic_forward():
    rng = np.random.default_rng(6)
    net = _init_recon_net(seed=7)
    voxel = rng.normal(size=(5, 12, 12))
    out1, s1 = net(voxel, None)
    out2, s2 = net(voxel, None)
    assert np.array_equal(out1.data, out2.data)
    assert np.array_equal(s1[0].data, s2[0].data)
    assert np.array_equal(s1[1].data, s2[1].data)


def test_reconnet_channel_mismatch():
    # The head's conv2d checks the bin count against its weight.
    with pytest.raises(ValueError, match="channel mismatch"):
        _init_recon_net()(np.zeros((4, 8, 8)), None)


def test_reconnet_state_shape_mismatch():
    net = _init_recon_net()
    bad = (Tensor(np.zeros((16, 8, 8))), Tensor(np.zeros((16, 8, 8))))
    with pytest.raises(ValueError):
        net(np.zeros((5, 10, 10)), bad)


def test_reconnet_state_evolves_and_feeds_back():
    rng = np.random.default_rng(8)
    net = _init_recon_net(seed=9)
    voxel = rng.normal(size=(5, 10, 10))
    out1, state1 = net(voxel, None)
    out2, state2 = net(voxel, state1)
    assert not np.array_equal(out1.data, out2.data)
    assert not np.array_equal(state1[0].data, state2[0].data)


def test_convgru_state_stays_bounded():
    rng = np.random.default_rng(10)
    cell = nets.ConvGRUCell("g", 4)
    nets.init_parameters(cell, rng)
    h = None
    for _ in range(50):
        x = Tensor(3.0 * rng.normal(size=(4, 8, 8)))
        h = cell(x, h)
    # (1-z)h + z*tanh(...) is a convex blend, bounded by max(|h0|, 1).
    assert np.all(np.abs(h.data) <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# initialization


def test_init_reproducible_from_seed():
    a = _init_flow_net(seed=11)
    b = _init_flow_net(seed=11)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)
    c = _init_flow_net(seed=12)
    assert any(not np.array_equal(pa.data, pc.data)
               for pa, pc in zip(a.parameters(), c.parameters()))


def test_init_biases_zero():
    net = _init_recon_net(seed=13)
    for p in net.parameters():
        if p.name.endswith(".bias"):
            assert np.all(p.data == 0.0)


def test_init_weight_sample_mean_within_three_sigma():
    # Uniform(-a, a) has variance a^2/3; the mean of n draws has standard
    # deviation a/sqrt(3n).
    rng = np.random.default_rng(14)
    layer = nets.ConvLayer("probe", 12, 96, kernel=3)
    nets.init_parameters(layer, rng)
    w = layer.weight.data
    assert w.size >= 10_000
    bound = np.sqrt(6.0 / (12 * 9 + 96 * 9))
    assert np.all(np.abs(w) <= bound)
    three_sigma = 3.0 * bound / np.sqrt(3.0 * w.size)
    assert abs(w.mean()) < three_sigma


# ---------------------------------------------------------------------------
# gradients through the cells


def test_convgru_cell_gradients():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        cell = nets.ConvGRUCell("g", 2)
        nets.init_parameters(cell, rng)
        x = Parameter("x", rng.normal(size=(2, 4, 4)))
        h = Parameter("h", 0.5 * rng.normal(size=(2, 4, 4)))
        probe = rng.normal(size=(2, 4, 4))
        params = [x, h] + cell.parameters()

        def build():
            return ad.tsum(ad.mul(cell(x, h), probe))

        check_gradients(build, params)


def test_residual_block_gradients():
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        block = nets.ResidualBlock("r", 2)
        nets.init_parameters(block, rng)
        x = Parameter("x", rng.normal(size=(2, 4, 4)))
        check_gradients(lambda: ad.sum_of_squares(block(x)), [x] + block.parameters())


def test_fireflownet_backward_reaches_all_parameters():
    rng = np.random.default_rng(15)
    net = _init_flow_net(seed=16)
    voxel = rng.normal(size=(5, 8, 8))
    mask = np.ones((8, 8), dtype=bool)
    loss = ad.sum_of_squares(net(voxel, mask))
    loss.backward()
    for p in net.parameters():
        assert p.grad is not None, p.name
        assert np.all(np.isfinite(p.grad))
        p.grad = None
