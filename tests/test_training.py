import numpy as np
import pytest

from evssl import training
from evssl.events import AugmentConfig, SensorGeometry
from evssl.networks import FireFlowNet, ReconNet, init_parameters
from evssl.training import CheckpointError, TrainConfig

from conftest import random_partition


GEOM = SensorGeometry(16, 16)


def _sequences(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [[random_partition(rng, GEOM) for _ in range(n)] for n in lengths]


def _config(**kw):
    base = dict(epochs=2, seed=3, lr=1e-3, unroll_steps=2, tc_start_step=1,
                augment=AugmentConfig(pause_prob=0.5))
    base.update(kw)
    return TrainConfig(**base)


def _params(net):
    return {p.name: p.data for p in net.parameters()}


def _assert_same_run(curve_a, curve_b, net_a, net_b):
    assert [(s, r.terms, r.total) for s, r in curve_a] == \
        [(s, r.terms, r.total) for s, r in curve_b]
    pa, pb = _params(net_a), _params(net_b)
    assert pa.keys() == pb.keys()
    assert all(np.array_equal(pa[k], pb[k]) for k in pa)


def _constant_flow(partition, voxel, mask):
    return np.full((2, *mask.shape), 0.5)


# ---------------------------------------------------------------------------
# determinism and the shared loop skeleton


def test_train_flow_same_seed_same_run():
    seqs = _sequences([3, 2])
    net_a, curve_a = training.train_flow(seqs, _config())
    net_b, curve_b = training.train_flow(seqs, _config())
    assert curve_a
    _assert_same_run(curve_a, curve_b, net_a, net_b)


def test_train_recon_same_seed_same_run():
    seqs = _sequences([4, 3])
    a = training.train_recon(seqs, _config(), flow_provider=_constant_flow)
    b = training.train_recon(seqs, _config(), flow_provider=_constant_flow)
    assert a.curve
    _assert_same_run(a.curve, b.curve, a.recon_net, b.recon_net)


def test_pause_adds_one_flow_update_per_sequence():
    seqs = _sequences([3, 2, 4])
    no_pause = AugmentConfig(0.0, 0.0, 0.0, pause_prob=0.0)
    always = AugmentConfig(0.0, 0.0, 0.0, pause_prob=1.0)
    _, plain = training.train_flow(seqs, _config(augment=no_pause))
    _, paused = training.train_flow(seqs, _config(augment=always))
    assert len(plain) == 2 * 9
    assert len(paused) == len(plain) + 2 * len(seqs)


def test_recon_skips_short_sequence_with_warning():
    seqs = _sequences([2, 3])  # S+1 = 3 partitions per window
    config = _config(epochs=1, augment=AugmentConfig(pause_prob=0.0))
    with pytest.warns(UserWarning, match="2 partitions"):
        result = training.train_recon(seqs, config, flow_provider=_constant_flow)
    assert len(result.curve) == 1


def test_non_finite_loss_raises():
    net = FireFlowNet(bins=5)
    for p in net.parameters():
        p.data = np.full_like(p.data, np.nan)
    with pytest.raises(FloatingPointError, match="non-finite flow at flow step 0"):
        training.train_flow(_sequences([1]), _config(), net)


def test_joint_recon_builds_and_trains_its_own_flow_net():
    seqs = _sequences([3])
    result = training.train_recon(seqs, _config(epochs=1), joint=True)
    assert isinstance(result.flow_net, FireFlowNet)
    assert result.flow_curve
    assert result.curve


def test_recon_needs_a_flow_source():
    with pytest.raises(ValueError, match="flow"):
        training.train_recon(_sequences([3]), _config())


def test_recon_rejects_provider_with_another_flow_source():
    net = FireFlowNet(bins=5)
    init_parameters(net, np.random.default_rng(0))
    for kw, other in ((dict(flow_net=net), "flow_net"), (dict(joint=True), "joint=True")):
        with pytest.raises(ValueError, match=f"flow_provider cannot be combined with {other}"):
            training.train_recon(_sequences([3]), _config(), flow_provider=_constant_flow, **kw)


# ---------------------------------------------------------------------------
# CKP1 checkpoints


def _recon_net(seed=0):
    net = ReconNet(bins=5)
    init_parameters(net, np.random.default_rng(seed))
    return net


def test_checkpoint_round_trip(tmp_path):
    net = _recon_net()
    path = tmp_path / "net.ckp1"
    training.save_checkpoint(path, training.network_state(net), "lr = 0.001\n")
    tensors, text = training.load_checkpoint(path)
    assert text == "lr = 0.001\n"
    restored = _recon_net(seed=1)
    training.load_network_state(restored, tensors)
    pa, pb = _params(net), _params(restored)
    assert all(np.array_equal(pa[k], pb[k]) for k in pa)


def _saved(tmp_path, tensors):
    path = tmp_path / "net.ckp1"
    training.save_checkpoint(path, tensors, "cfg")
    return path


def test_checkpoint_truncated(tmp_path):
    path = _saved(tmp_path, training.network_state(_recon_net()))
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(CheckpointError, match="truncated"):
        training.load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    path = _saved(tmp_path, training.network_state(_recon_net()))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        training.load_checkpoint(path)


def test_load_network_state_unknown_name():
    net = _recon_net()
    tensors = dict(training.network_state(net), extra=np.zeros(1))
    with pytest.raises(CheckpointError, match="unknown"):
        training.load_network_state(net, tensors)


def test_load_network_state_missing_name():
    net = _recon_net()
    tensors = dict(training.network_state(net))
    tensors.pop(next(iter(tensors)))
    with pytest.raises(CheckpointError, match="missing"):
        training.load_network_state(net, tensors)


def test_load_network_state_shape_mismatch():
    net = _recon_net()
    tensors = dict(training.network_state(net))
    name = next(iter(tensors))
    tensors[name] = np.zeros(tensors[name].size + 1)
    with pytest.raises(CheckpointError, match="shape mismatch"):
        training.load_network_state(net, tensors)
