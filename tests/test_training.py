import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evssl import autodiff as ad
from evssl import training
from evssl.events import AugmentConfig, SensorGeometry, empty_stream
from evssl.geometry import build_voxel_grid, event_mask
from evssl.losses import LossReport, LossWeights, contrast_loss, reference_increment
from evssl.networks import FireFlowNet, ReconNet, init_parameters
from evssl.training import CheckpointError, TrainConfig

from conftest import corrupted, random_partition


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


@pytest.mark.parametrize("config,kw", [
    (TrainConfig, dict(lr=np.nan)), (TrainConfig, dict(lr=np.inf)),
    (TrainConfig, dict(flow_scale=0.0)), (TrainConfig, dict(flow_scale=-1.0)),
    (TrainConfig, dict(flow_scale=np.nan)), (TrainConfig, dict(flow_scale=np.inf)),
    (LossWeights, dict(lambda1=np.nan)), (LossWeights, dict(lambda2=np.inf)),
    (LossWeights, dict(lambda3=np.nan)), (LossWeights, dict(c_pos=np.nan)),
    (LossWeights, dict(c_neg=np.inf))])
def test_config_rejects_non_finite_or_non_positive_values(config, kw):
    # NaN passes `x < 0` and `x <= 0` alike, so each check must reject it.
    with pytest.raises(ValueError):
        config(**kw)


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


def test_non_finite_provider_flow_raises():
    def nan_flow(partition, voxel, mask):
        return np.full((2, *mask.shape), np.nan)

    with pytest.raises(FloatingPointError, match="non-finite flow at recon step 0"):
        training.train_recon(_sequences([3]), _config(), flow_provider=nan_flow)


def test_non_finite_gradient_raises():
    # sqrt(sum(p^2)) at p = 0: the loss is 0, its gradient is not finite.
    p = ad.Parameter("p", np.zeros(3))
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = ad.sqrt(ad.tsum(ad.square(p)))
        with pytest.raises(FloatingPointError,
                           match="non-finite gradient of 'p' at flow step 0"):
            training._optimize(loss, LossReport(), [p], training.Adam([p], 1e-3),
                               _config(), [], "flow")


# ---------------------------------------------------------------------------
# gradient clipping


def _with_grads(*grads):
    params = [ad.Parameter(f"p{i}", np.zeros_like(g)) for i, g in enumerate(grads)]
    for p, g in zip(params, grads):
        p.grad = np.array(g, dtype=np.float64)
    return params


def test_clip_gradients_scales_the_norm_to_the_maximum():
    params = _with_grads([3.0, 0.0], [[4.0]])
    assert training.clip_gradients(params, 1.0) == 5.0
    assert training.global_gradient_norm(params) == pytest.approx(1.0, rel=1e-15)
    assert np.allclose(params[0].grad, [0.6, 0.0]) and np.allclose(params[1].grad, [[0.8]])


def test_clip_gradients_below_the_maximum_changes_nothing():
    params = _with_grads([3.0, 0.0], [[4.0]])
    assert training.clip_gradients(params, 5.5) == 5.0
    assert np.array_equal(params[0].grad, [3.0, 0.0]) and np.array_equal(params[1].grad, [[4.0]])


def test_train_flow_clips_every_update(monkeypatch):
    clip = training.clip_gradients
    norms = []

    def recording(params, max_norm):
        norms.append((clip(params, max_norm), training.global_gradient_norm(params)))
        return norms[-1][0]

    monkeypatch.setattr(training, "clip_gradients", recording)
    seqs = _sequences([3])
    config = _config(epochs=1, grad_clip_enabled=True, augment=AugmentConfig(pause_prob=0.0))
    net, curve = training.train_flow(seqs, config)
    assert len(norms) == len(curve) == 3
    for before, after in norms:
        assert before > training.GRAD_CLIP_NORM
        assert after == pytest.approx(training.GRAD_CLIP_NORM, rel=1e-12)
    unclipped, _ = training.train_flow(seqs, _config(epochs=1, augment=config.augment))
    pa, pb = _params(net), _params(unclipped)
    assert any(not np.array_equal(pa[k], pb[k]) for k in pa)


def test_joint_recon_builds_and_trains_its_own_flow_net():
    seqs = _sequences([3])
    result = training.train_recon(seqs, _config(epochs=1))
    assert isinstance(result.flow_net, FireFlowNet)
    assert result.flow_curve
    assert result.curve


def test_frozen_net_as_provider_is_not_trained():
    net = FireFlowNet(bins=5)
    init_parameters(net, np.random.default_rng(0))
    before = {k: v.copy() for k, v in _params(net).items()}
    result = training.train_recon(_sequences([3, 4]), _config(),
                                  flow_provider=lambda p, v, m: net(v, m))
    assert result.curve
    assert result.flow_net is None and result.flow_curve == []
    after = _params(net)
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_pause_is_an_ordinary_empty_partition():
    pause = empty_stream(GEOM)
    voxel = build_voxel_grid(pause, 5)
    assert voxel.shape == (5, 16, 16) and not voxel.any() and not event_mask(voxel).any()
    flow = ad.Parameter("flow", np.full((2, 16, 16), 0.5))
    assert not reference_increment(pause, flow.data, LossWeights()).data.any()
    contrast = contrast_loss(pause, flow)
    assert contrast.item() == 0.0
    contrast.backward()
    assert not flow.grad.any()


def test_provider_is_never_asked_about_a_pause():
    calls = []

    def recording(partition, voxel, mask):
        calls.append(len(partition))
        return _constant_flow(partition, voxel, mask)

    config = _config(epochs=1, augment=AugmentConfig(0.0, 0.0, 0.0, pause_prob=1.0))
    result = training.train_recon(_sequences([3, 3]), config, flow_provider=recording)
    # Each sequence gains a pause: 4 steps, one window of S+1 = 3 updated.
    assert len(result.curve) == 2
    assert len(calls) == 6 and all(n > 0 for n in calls)


def test_temporal_term_covers_steps_s0_to_s(monkeypatch):
    values = []

    def recording(l_k, warped):
        out = temporal(l_k, warped)
        values.append(out.item())
        return out

    temporal = training.temporal_loss
    monkeypatch.setattr(training, "temporal_loss", recording)
    config = _config(epochs=1, unroll_steps=4, tc_start_step=2,
                     augment=AugmentConfig(pause_prob=0.0))
    result = training.train_recon(_sequences([5, 5]), config, flow_provider=_constant_flow)
    per_window = config.unroll_steps - config.tc_start_step + 1
    assert len(result.curve) == 2 and len(values) == 2 * per_window
    for i, (_, report) in enumerate(result.curve):
        assert report.terms["temporal"] == sum(values[i * per_window:(i + 1) * per_window])


# Curve entries of short runs recorded from an earlier implementation of
# the training loops, whose reconstruction terms each warped the previous
# frame on their own; a rewrite of the loops must reproduce them.
RECORDED = {
    "flow": [({"contrast": 84.23061335078688, "smoothness": 0.7022911162076213},
              84.9329044669945),
             ({"contrast": 119.03554240549907, "smoothness": 0.410771766220607},
              119.44631417171968)],
    "recon": [({"photometric": 420.6133365965425, "temporal": 8.426202831658074,
                "tv": 41.04140633549052}, 423.5080271964829),
              ({"photometric": 537.8609974834246, "temporal": 7.509075356201723,
                "tv": 31.1954510760497}, 540.1716775728473)],
    "joint": [({"photometric": 496.35340371989247, "temporal": 8.854007407729037,
                "tv": 43.872343494163616}, 499.43242163537354),
              ({"photometric": 313.63302355063036, "temporal": 6.483543982791847,
                "tv": 36.19910836042854}, 316.09133336693094)],
    "joint_flow": [({"contrast": 87.75310215579059, "smoothness": 0.4782628550227139},
                    88.2313650108133),
                   ({"contrast": 108.20724279667806, "smoothness": 1.0618849450121741},
                    109.26912774169023)],
}


def test_first_updates_reproduce_recorded_values():
    seqs = _sequences([5, 6])
    config = _config(epochs=1, unroll_steps=4, tc_start_step=2)
    _, flow_curve = training.train_flow(seqs, config)
    recon = training.train_recon(seqs, config, flow_provider=_constant_flow)
    joint = training.train_recon(seqs, config)
    runs = {"flow": flow_curve, "recon": recon.curve, "joint": joint.curve,
            "joint_flow": joint.flow_curve}
    for name, expected in RECORDED.items():
        got = [(report.terms, report.total) for _, report in runs[name][:len(expected)]]
        assert len(got) == len(expected), name
        for (terms, total), (want_terms, want_total) in zip(got, expected):
            assert terms == pytest.approx(want_terms, rel=1e-9), name
            assert total == pytest.approx(want_total, rel=1e-9), name


def test_recon_rejects_provider_with_another_flow_source():
    net = FireFlowNet(bins=5)
    init_parameters(net, np.random.default_rng(0))
    with pytest.raises(ValueError, match="flow_provider cannot be combined with flow_net"):
        training.train_recon(_sequences([3]), _config(), flow_provider=_constant_flow,
                             flow_net=net)


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


# A name over 65,535 UTF-8 bytes, a dimension of 2**32 (on an empty array,
# so that nothing is allocated), and text UTF-8 cannot encode.
@pytest.mark.parametrize("tensors,text,what", [
    ({"w" * 65536: np.zeros(1)}, "cfg", "tensor 'www"),
    ({"w": np.zeros((0, 2 ** 32))}, "cfg", "tensor 'w'"),
    ({"\ud800": np.zeros(1)}, "cfg", "tensor '\\ud800'"),
    ({"w": np.zeros(1)}, "\ud800", "config blob")])
def test_failed_save_leaves_the_existing_file(tmp_path, tensors, text, what):
    path = _saved(tmp_path, {"kept": np.ones(3)})
    kept = path.read_bytes()
    with pytest.raises(CheckpointError, match=f"{re.escape(what)}.* does not fit CKP1"):
        training.save_checkpoint(path, tensors, text)
    assert path.read_bytes() == kept


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


@pytest.mark.parametrize("offset,what", [(10, "tensor name"), (-1, "config blob")])
def test_checkpoint_rejects_non_utf8_text(tmp_path, offset, what):
    # The first tensor name starts after magic, count and name length; the
    # config blob "cfg" ends the file.
    path = _saved(tmp_path, {"w": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[offset] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=f"{what} is not UTF-8"):
        training.load_checkpoint(path)


def test_checkpoint_rejects_duplicate_tensor_names(tmp_path):
    # Rewrite the tensor count of a one-tensor file to two and repeat the
    # tensor record: name length, name, rank, dims and data.
    path = _saved(tmp_path, {"w": np.zeros(2)})
    raw = path.read_bytes()
    record = raw[8:-7]
    path.write_bytes(raw[:4] + (2).to_bytes(4, "little") + record + record + raw[-7:])
    with pytest.raises(CheckpointError, match="duplicate tensor name 'w'"):
        training.load_checkpoint(path)


def test_checkpoint_rejects_empty_shape_numpy_cannot_represent(tmp_path):
    # Rank 3 with dims (0, 2**31, 2**31): zero bytes of data, but 2**65
    # bytes by the non-zero dims.
    path = tmp_path / "net.ckp1"
    dims = (0, 2 ** 31, 2 ** 31)
    path.write_bytes(b"CKP1" + (1).to_bytes(4, "little") + (1).to_bytes(2, "little") + b"w"
                     + bytes([3]) + b"".join(d.to_bytes(4, "little") for d in dims)
                     + (0).to_bytes(4, "little"))
    with pytest.raises(CheckpointError, match="impossible shape"):
        training.load_checkpoint(path)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_checkpoint_corrupt_bytes_raise_only_checkpoint_errors(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckp") / "net.ckp1"
    training.save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2)},
                             "lr = 0.001\n")
    path.write_bytes(corrupted(path.read_bytes(), data))
    try:
        training.load_checkpoint(path)
    except CheckpointError:
        pass


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
