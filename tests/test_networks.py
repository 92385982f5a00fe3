import tracemalloc

import numpy as np
import pytest

from evssl import autodiff as ad
from evssl import networks as nets
from evssl import training
from evssl.autodiff import Tensor
from evssl.geometry import build_voxel_grid, event_mask
from evssl.losses import LossWeights, flow_total_loss

from conftest import random_partition
from gradcheck import check_gradients, trainable


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
        training.Adam(cell.parameters(), 1e-3)
        x = trainable("x", rng.normal(size=(2, 4, 4)))
        h = trainable("h", 0.5 * rng.normal(size=(2, 4, 4)))
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
        training.Adam(block.parameters(), 1e-3)
        x = trainable("x", rng.normal(size=(2, 4, 4)))
        check_gradients(lambda: ad.sum_of_squares(block(x)), [x] + block.parameters())


def test_fireflownet_backward_reaches_all_parameters():
    rng = np.random.default_rng(15)
    net = _init_flow_net(seed=16)
    training.Adam(net.parameters(), 1e-3)
    voxel = rng.normal(size=(5, 8, 8))
    mask = np.ones((8, 8), dtype=bool)
    loss = ad.sum_of_squares(net(voxel, mask))
    loss.backward()
    for p in net.parameters():
        assert p.grad is not None, p.name
        assert np.all(np.isfinite(p.grad))
        p.grad = None


# ---------------------------------------------------------------------------
# a graph only once an optimizer holds the parameters


def _counted_nodes(monkeypatch) -> list:
    """A list that grows by one for every graph node made from now on."""
    made = []

    class Counted(ad._Node):
        __slots__ = ()

        def __init__(self, *args):
            made.append(None)
            super().__init__(*args)

    monkeypatch.setattr(ad, "_Node", Counted)
    return made


def _forward(net, voxel):
    """The network's output for voxel: flow on an all-ones mask, or a frame."""
    if isinstance(net, nets.FireFlowNet):
        return net(voxel, np.ones(voxel.shape[1:], dtype=bool))
    return net(voxel, None)[0]


@pytest.mark.parametrize("build", [_init_flow_net, _init_recon_net], ids=["flow", "recon"])
def test_a_network_no_optimizer_holds_records_no_graph(build, monkeypatch):
    net = build()
    made = _counted_nodes(monkeypatch)
    out = _forward(net, np.random.default_rng(17).normal(size=(5, 12, 12)))
    assert made == [] and not out.requires_grad
    assert not any(p.requires_grad for p in net.parameters())


@pytest.mark.parametrize("build,nodes", [(_init_flow_net, 25), (_init_recon_net, 33)],
                         ids=["flow", "recon"])
def test_an_optimizer_turns_the_graph_on(build, nodes):
    # The forward's leaves (every parameter) and ops: 25 nodes for
    # FireFlowNet's, 33 for ReconNet's. The whole flow loss walks 72.
    net = build()
    voxel = np.random.default_rng(18).normal(size=(5, 12, 12))
    frozen = _forward(net, voxel)
    training.Adam(net.parameters(), 1e-3)
    out = _forward(net, voxel)
    assert not frozen.requires_grad and out.requires_grad
    assert np.array_equal(out.data, frozen.data)
    assert len(ad._toposort(out)) == nodes
    if isinstance(net, nets.FireFlowNet):
        part = random_partition(np.random.default_rng(0), n_events=300)
        voxel = build_voxel_grid(part, 5)
        loss, _ = flow_total_loss(part, net(voxel, event_mask(voxel)), LossWeights())
        assert len(ad._toposort(loss)) == 72


def test_init_and_load_work_on_a_network_no_optimizer_holds():
    net = nets.FireFlowNet(bins=5)
    nets.init_parameters(net, np.random.default_rng(19))
    state = training.network_state(_init_flow_net(seed=20))
    training.load_network_state(net, state)
    assert all(np.array_equal(p.data, state[p.name]) for p in net.parameters())
    assert not any(p.requires_grad or p.grad is not None for p in net.parameters())


def _carried_pass(net, steps: int) -> tuple[list[np.ndarray], int]:
    """The frames of a 64x64 pass that carries its state over random voxels,
    and the bytes it retains at its end beyond those frames."""
    rng = np.random.default_rng(21)
    frames, state = [], None
    tracemalloc.start()
    try:
        for _ in range(steps):
            image, state = net(rng.normal(size=(5, 64, 64)), state)
            frames.append(image.data)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return frames, held - sum(f.nbytes for f in frames)


def test_a_carried_reconnet_pass_retains_constant_memory():
    # With its parameters requiring gradients, each step's graph stays
    # alive through the state: 29.5 MiB retained after 12 steps and
    # 113.5 MiB after 48. Without, only the state and one step's values.
    net = _init_recon_net(seed=22)
    frames, short = _carried_pass(net, 12)
    _, long = _carried_pass(net, 48)
    assert long <= short + 2**20, f"48 steps retain {long / 2**20:.1f} MiB, 12 {short / 2**20:.1f}"
    training.Adam(net.parameters(), 1e-3)
    held_frames, _ = _carried_pass(net, 12)
    assert all(np.array_equal(a, b) for a, b in zip(frames, held_frames))
