import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evssl import autodiff as ad
from evssl import losses, metrics, synth, training
from evssl.events import (AugmentConfig, SensorGeometry, apply_augmentation, empty_stream,
                          events_per_pixel_count, normalize_timestamps, partition_by_count)
from evssl.geometry import build_voxel_grid, event_mask, fwl
from evssl.losses import (LossReport, LossWeights, contrast_loss, flow_total_loss,
                          reference_increment)
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


def _zero_flow(partition, voxel, mask):
    return np.zeros((2, *mask.shape))


def _flow_net(seed=0):
    net = FireFlowNet(bins=5)
    init_parameters(net, np.random.default_rng(seed))
    return net


def _recon_net(seed=0):
    net = ReconNet(bins=5)
    init_parameters(net, np.random.default_rng(seed))
    return net


def _joint(seqs, config):
    """A joint run: ReconNet trained on the flow of a FireFlowNet that
    `flow_updates` trains, both initialized from one rng; the reconstruction
    result, the flow network and its curve."""
    rng = np.random.default_rng(config.seed)
    recon_net, flow_net = ReconNet(bins=5), FireFlowNet(bins=5)
    init_parameters(recon_net, rng)
    init_parameters(flow_net, rng)
    flow_curve = []
    result = training.train_recon(seqs, config,
                                  training.flow_updates(flow_net, config, flow_curve), recon_net)
    return result, flow_net, flow_curve


def _frozen(net):
    return lambda partition, voxel, mask: net(voxel, mask)


def test_train_config_defaults():
    # Every test sets S and S0 itself, so only this pins the defaults:
    # S = 20 steps per reconstruction update, the temporal term from S0 = 10.
    config = TrainConfig()
    assert (config.lr, config.epochs, config.unroll_steps, config.tc_start_step,
            config.bins, config.seed) == (1e-4, 120, 20, 10, 5, 0)
    assert config.weights == LossWeights() and config.augment == AugmentConfig()


def test_flow_scale_is_not_a_setting():
    with pytest.raises(TypeError):
        TrainConfig(flow_scale=2.0)
    with pytest.raises(TypeError):
        FireFlowNet(bins=5, flow_scale=2.0)


# ---------------------------------------------------------------------------
# determinism and the shared loop skeleton


def test_train_flow_same_seed_same_run():
    seqs, config = _sequences([3, 2]), _config()
    net_a, curve_a = training.train_flow(seqs, config, _flow_net(config.seed))
    net_b, curve_b = training.train_flow(seqs, config, _flow_net(config.seed))
    assert curve_a
    _assert_same_run(curve_a, curve_b, net_a, net_b)


def test_train_recon_same_seed_same_run():
    seqs, config = _sequences([4, 3]), _config()
    a = training.train_recon(seqs, config, _constant_flow, _recon_net(config.seed))
    b = training.train_recon(seqs, config, _constant_flow, _recon_net(config.seed))
    assert a.curve
    _assert_same_run(a.curve, b.curve, a.recon_net, b.recon_net)


def test_joint_recon_same_seed_same_run():
    seqs = _sequences([4, 3])
    a, flow_net_a, flow_curve_a = _joint(seqs, _config())
    b, flow_net_b, flow_curve_b = _joint(seqs, _config())
    assert a.curve and flow_curve_a
    _assert_same_run(a.curve, b.curve, a.recon_net, b.recon_net)
    _assert_same_run(flow_curve_a, flow_curve_b, flow_net_a, flow_net_b)


def test_recon_with_frozen_network_same_seed_same_run():
    seqs, config = _sequences([4, 3]), _config()
    a = training.train_recon(seqs, config, _frozen(_flow_net()), _recon_net(config.seed))
    b = training.train_recon(seqs, config, _frozen(_flow_net()), _recon_net(config.seed))
    assert a.curve
    _assert_same_run(a.curve, b.curve, a.recon_net, b.recon_net)


@pytest.mark.parametrize("pause_prob", [0.0, 0.5])
def test_train_flow_and_joint_recon_make_the_same_flow_updates(pause_prob):
    # Both loops draw the same augmentations, and the joint loop asks for
    # flow on every partition with events, trailing steps of a sequence
    # included, as train_flow updates on each.
    seqs = _sequences([4, 5, 5])
    config = _config(augment=AugmentConfig(pause_prob=pause_prob))
    net, curve = training.train_flow(seqs, config, _flow_net(seed=1))
    joint_net, joint_curve = _flow_net(seed=1), []
    training.train_recon(seqs, config, training.flow_updates(joint_net, config, joint_curve),
                         _recon_net())
    assert len(curve) == 2 * 14
    _assert_same_run(curve, joint_curve, net, joint_net)


def test_pause_gets_no_flow_update():
    # A pause has zero loss and gradient; an Adam step on it would still
    # move every parameter by the momentum of earlier steps.
    seqs = _sequences([3, 2, 4])
    no_pause = AugmentConfig(0.0, 0.0, 0.0, pause_prob=0.0)
    always = AugmentConfig(0.0, 0.0, 0.0, pause_prob=1.0)
    net_a, plain = training.train_flow(seqs, _config(augment=no_pause), _flow_net())
    net_b, paused = training.train_flow(seqs, _config(augment=always), _flow_net())
    assert len(plain) == 2 * 9
    _assert_same_run(plain, paused, net_a, net_b)


def test_recon_skips_short_sequence_with_warning():
    seqs = _sequences([2, 3])  # S+1 = 3 partitions per window
    config = _config(epochs=1, augment=AugmentConfig(pause_prob=0.0))
    with pytest.warns(UserWarning, match="2 partitions"):
        result = training.train_recon(seqs, config, _constant_flow, _recon_net(config.seed))
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
        training.train_recon(_sequences([3]), _config(), nan_flow, _recon_net())


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_loss_value_raises_before_backward(value):
    p = ad.Parameter("p", np.full(3, value))
    opt = training.Adam([p], 1e-3)  # before the loss, so the loss has a graph
    curve = []
    with pytest.raises(FloatingPointError, match="non-finite loss at recon step 0"):
        training._optimize(ad.tsum(p), LossReport(), opt, curve, "recon")
    assert curve == [] and p.grad is None


@pytest.mark.parametrize("train", [
    lambda: training.train_flow([], _config(), _flow_net()),
    lambda: training.train_recon([], _config(), _constant_flow, _recon_net())],
    ids=["train_flow", "train_recon"])
def test_training_loops_reject_an_empty_dataset(train):
    with pytest.raises(ValueError, match="empty dataset"):
        train()


def test_non_finite_gradient_raises():
    # sqrt(sum(p^2)) at p = 0: the loss is 0, its gradient is not finite.
    p = ad.Parameter("p", np.zeros(3))
    opt = training.Adam([p], 1e-3)
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = ad.sqrt(ad.tsum(ad.square(p)))
        with pytest.raises(FloatingPointError,
                           match="non-finite gradient of 'p' at flow step 0"):
            training._optimize(loss, LossReport(), opt, [], "flow")


# ---------------------------------------------------------------------------
# augmentation draws


def _drawn_augmentations(seqs, augment):
    """Per sequence of each of 2 epochs, what `_epoch_steps` applied to it:
    (h_flip, v_flip, polarity_flip, index of the pause or None)."""
    config = _config(augment=augment)
    drawn = []
    for i, (length, steps) in enumerate(training._epoch_steps(
            seqs, config, np.random.default_rng(config.seed), 1)):
        seq, parts = seqs[i % len(seqs)], [p for p, _, _ in steps]
        assert length == len(parts)
        pauses = [k for k, p in enumerate(parts) if not len(p)]
        assert len(pauses) <= 1 and len(parts) == len(seq) + len(pauses)
        flips = set()
        for part, orig in zip([p for p in parts if len(p)], seq):
            h, v, pol = part.h_flip, part.v_flip, bool(part.p[0] != orig.p[0])
            assert np.array_equal(part.x, GEOM.width - 1 - orig.x if h else orig.x)
            assert np.array_equal(part.y, GEOM.height - 1 - orig.y if v else orig.y)
            assert np.array_equal(part.p, -orig.p if pol else orig.p)
            assert part.t is orig.t
            flips.add((h, v, pol))
        (flip,) = flips  # the sequence's partitions share one draw
        drawn.append((*flip, pauses[0] if pauses else None))
    return drawn


def test_zero_probabilities_are_identity():
    drawn = _drawn_augmentations(_sequences([3, 2]), AugmentConfig(0.0, 0.0, 0.0, 0.0))
    assert drawn == [(False, False, False, None)] * 4


def test_probability_one_always_fires():
    drawn = _drawn_augmentations(_sequences([3, 2]), AugmentConfig(1.0, 1.0, 1.0, 1.0))
    assert [d[:3] for d in drawn] == [(True, True, True)] * 4
    assert all(d[3] is not None for d in drawn)


def test_augmentation_draws_keep_their_order():
    # One draw each for h-flip, v-flip, polarity flip and pause, even at
    # probability 0, then the pause position only if a pause was drawn:
    # reordering or skipping a draw would change every training run.
    seqs = _sequences([3, 3, 3])
    assert _drawn_augmentations(seqs, AugmentConfig(0.5, 0.5, 0.5, 0.5)) == [
        (True, True, False, None), (True, True, True, 2), (True, True, False, 2),
        (False, False, False, 1), (False, True, True, None), (True, True, False, None)]
    assert _drawn_augmentations(seqs, AugmentConfig(0.0, 0.5, 0.0, 0.5)) == [
        (False, True, False, None), (False, True, False, 2), (False, True, False, 2),
        (False, False, False, 1), (False, True, False, None), (False, True, False, None)]


# ---------------------------------------------------------------------------
# Adam


def test_adam_rejects_missing_gradient():
    p, q = ad.Parameter("p", np.zeros(2)), ad.Parameter("q", np.zeros(1))
    opt = training.Adam([p, q], 1e-3)
    p.grad = np.ones(2)
    with pytest.raises(ValueError, match="missing gradient for parameter 'q'"):
        opt.step()


def test_adam_rebinds_gradients_and_never_writes_into_them():
    # Backward hands gradients over uncopied, so leaves may share an array;
    # Adam must rebind a gradient rather than write into it.
    net = _flow_net()
    params = net.parameters()
    opt = training.Adam(params, 1e-3)
    part = _sequences([1])[0][0]
    voxel = build_voxel_grid(part, 5)
    loss, _ = flow_total_loss(part, net(voxel, event_mask(voxel)), LossWeights())
    loss.backward()
    for p in params:
        p.grad.flags.writeable = False
    before = [p.data for p in params]
    opt.step()
    assert any(not np.array_equal(b, p.data) for b, p in zip(before, params))


def test_frozen_net_as_provider_is_not_trained():
    net = _flow_net()
    before = {k: v.copy() for k, v in _params(net).items()}
    result = training.train_recon(_sequences([3, 4]), _config(), _frozen(net), _recon_net())
    assert result.curve
    after = _params(net)
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_pause_is_an_ordinary_empty_partition():
    pause = empty_stream(GEOM)
    voxel = build_voxel_grid(pause, 5)
    assert voxel.shape == (5, 16, 16) and not voxel.any() and not event_mask(voxel).any()
    flow = ad.Tensor(np.full((2, 16, 16), 0.5))
    flow.requires_grad = True
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
    result = training.train_recon(_sequences([3, 3]), config, recording,
                                  _recon_net(config.seed))
    # Each sequence gains a pause: 4 steps, one window of S+1 = 3 updated.
    assert len(result.curve) == 2
    assert len(calls) == 6 and all(n > 0 for n in calls)


def test_trailing_steps_ask_the_provider_but_run_no_reconnet_forward(monkeypatch):
    # Sequences of 4, 5 and 5 partitions, 6 at most with a pause, leave
    # trailing steps past their last window of S+1 = 3: a ReconNet forward
    # there would feed no update, but a joint provider still trains on them.
    forwards, asked = [], []
    forward = ReconNet.__call__

    def counting(self, *args):
        forwards.append(args)
        return forward(self, *args)

    def recording(partition, voxel, mask):
        asked.append(len(partition))
        return _constant_flow(partition, voxel, mask)

    monkeypatch.setattr(ReconNet, "__call__", counting)
    config = _config()
    result = training.train_recon(_sequences([4, 5, 5]), config, recording,
                                  _recon_net(config.seed))
    window = config.unroll_steps + 1
    assert len(result.curve) * window < 2 * 14  # some steps trail every window
    assert len(forwards) == len(result.curve) * window
    assert len(asked) == 2 * 14 and all(asked)


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
    result = training.train_recon(_sequences([5, 5]), config, _constant_flow,
                                  _recon_net(config.seed))
    per_window = config.unroll_steps - config.tc_start_step + 1
    assert len(result.curve) == 2 and len(values) == 2 * per_window
    for i, (_, report) in enumerate(result.curve):
        assert report.terms["temporal"] == sum(values[i * per_window:(i + 1) * per_window])


def test_each_window_reports_only_its_own_terms(monkeypatch):
    # One sequence of two windows: the terms restart at zero after each
    # update, so the second report sums only the second window's steps.
    values = {"photometric": [], "temporal": [], "tv": []}

    def recording(term, loss):
        def wrapped(*args):
            out = loss(*args)
            values[term].append(out.item())
            return out
        return wrapped

    for term in values:
        name = f"{term}_loss"
        monkeypatch.setattr(training, name, recording(term, getattr(training, name)))
    config = _config(epochs=1, augment=AugmentConfig(0.0, 0.0, 0.0, pause_prob=0.0))
    result = training.train_recon(_sequences([6]), config, _constant_flow,
                                  _recon_net(config.seed))
    window = config.unroll_steps + 1
    steps = {"photometric": window, "temporal": window - config.tc_start_step, "tv": window}
    assert len(result.curve) == 2
    assert {term: len(v) for term, v in values.items()} == {t: 2 * n for t, n in steps.items()}
    for i, (_, report) in enumerate(result.curve):
        assert report.terms == {term: sum(v[i * steps[term]:(i + 1) * steps[term]])
                                for term, v in values.items()}


def test_reconstruction_window_graph_size(monkeypatch):
    # Counted as a benchmark trace counts it: the nodes `backward()` walks,
    # the 24 ReconNet parameters included. Each of the 4 steps after the
    # first warps a frame that needs a gradient, in 5 nodes.
    sizes = []

    def counting(root):
        topo = toposort(root)
        sizes.append(len(topo))
        return topo

    toposort = ad._toposort
    monkeypatch.setattr(ad, "_toposort", counting)
    config = _config(epochs=1, unroll_steps=4, tc_start_step=2,
                     augment=AugmentConfig(pause_prob=0.0))
    training.train_recon(_sequences([5]), config, _constant_flow, _recon_net(config.seed))
    assert sizes == [204]


def test_a_bench_window_walks_804_nodes_each_once(monkeypatch):
    # The benchmark's window (S=20, S0=10): a trace of it reports the length
    # of `_toposort(root)` as its graph size, 804 nodes.
    walks = []

    def walked(root):
        topo = toposort(root)
        walks.append((len(topo), len({id(node) for node in topo})))
        return topo

    toposort = ad._toposort
    monkeypatch.setattr(ad, "_toposort", walked)
    config = _config(epochs=1, unroll_steps=20, tc_start_step=10,
                     augment=AugmentConfig(pause_prob=0.0))
    training.train_recon(_sequences([21]), config, _constant_flow, _recon_net(config.seed))
    assert walks == [(804, 804)]


# Curve entries of short runs recorded from an earlier implementation of
# the training loops, whose reconstruction terms each warped the previous
# frame on their own; a rewrite of the loops must reproduce them. They were
# recorded again when ReconNet moved to float32 (the "recon" and "joint"
# entries moved by float32 rounding, at most 3.5e-5 relative), and when the
# loops stopped building their own networks, which moved every entry: the
# loop's rng no longer drew an initialization before the augmentations.
# The new values were recorded by this test's body run against the loops
# that still built networks, with the networks passed in.
RECORDED = {
    "flow": [({"contrast": 85.9523217964103, "smoothness": 0.7026139595752018},
              86.6549357559855),
             ({"contrast": 91.3328347146907, "smoothness": 1.453849597429543},
              92.78668431212024)],
    "recon": [({"photometric": 517.5455459504122, "temporal": 10.484527812375745,
                "tv": 43.54900121688843}, 520.7714487924942),
              ({"photometric": 437.71666136635275, "temporal": 7.029130237046047,
                "tv": 33.07190990447998}, 440.07316988528135)],
    "joint": [({"photometric": 523.3001013964081, "temporal": 9.278678098127997,
                "tv": 43.54900121688843}, 526.4054192670653),
              ({"photometric": 389.7278787713973, "temporal": 6.366807776906784,
                "tv": 35.699344635009766}, 392.14952678083847)],
    "joint_flow": [({"contrast": 94.54722886632194, "smoothness": 0.469869330530159},
                    95.0170981968521),
                   ({"contrast": 113.85672572686133, "smoothness": 0.5056296538380491},
                    114.36235538069937)],
}


def test_first_updates_reproduce_recorded_values():
    seqs = _sequences([5, 6])
    config = _config(epochs=1, unroll_steps=4, tc_start_step=2)
    _, flow_curve = training.train_flow(seqs, config, _flow_net(config.seed))
    recon = training.train_recon(seqs, config, _constant_flow, _recon_net(config.seed))
    joint, _, joint_flow_curve = _joint(seqs, config)
    runs = {"flow": flow_curve, "recon": recon.curve, "joint": joint.curve,
            "joint_flow": joint_flow_curve}
    for name, expected in RECORDED.items():
        got = [(report.terms, report.total) for _, report in runs[name][:len(expected)]]
        assert len(got) == len(expected), name
        for (terms, total), (want_terms, want_total) in zip(got, expected):
            assert terms == pytest.approx(want_terms, rel=1e-9), name
            assert total == pytest.approx(want_total, rel=1e-9), name


# ---------------------------------------------------------------------------
# dtypes: ReconNet trains in float32, FireFlowNet in float64


def _recording_adams(monkeypatch):
    """Every Adam the loops build from now on, in order."""
    built = []

    class Recorded(training.Adam):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(self)

    monkeypatch.setattr(training, "Adam", Recorded)
    return built


def _assert_trained_in(net, opt, dtype):
    # Under numpy's silent promotion, nothing else notices a float64 value
    # creeping back into a float32 network.
    for p in net.parameters():
        assert p.data.dtype == dtype, p.name
        assert p.grad.dtype == dtype, p.name
        assert opt.m[p.name].dtype == dtype and opt.v[p.name].dtype == dtype, p.name


def test_reconnet_trains_in_float32_and_fireflownet_in_float64(monkeypatch):
    seqs = _sequences([5, 6])
    # A numpy float64 learning rate would promote a float32 update.
    config = _config(epochs=1, unroll_steps=4, tc_start_step=2, lr=np.float64(1e-3))
    adams = _recording_adams(monkeypatch)
    recon = training.train_recon(seqs, config, _constant_flow, _recon_net(config.seed))
    flow_net, _ = training.train_flow(seqs, config, _flow_net(config.seed))
    joint, joint_flow_net, joint_flow_curve = _joint(seqs, config)
    assert len(adams) == 4 and recon.curve and joint.curve and joint_flow_curve
    _assert_trained_in(recon.recon_net, adams[0], np.float32)
    _assert_trained_in(flow_net, adams[1], np.float64)
    # `flow_updates` builds the flow network's Adam before the joint loop runs.
    _assert_trained_in(joint_flow_net, adams[2], np.float64)
    _assert_trained_in(joint.recon_net, adams[3], np.float32)

    voxel = build_voxel_grid(seqs[0][0], 5)
    image, state = recon.recon_net(voxel, None)
    image, state = recon.recon_net(voxel, state)
    assert image.data.dtype == np.float32
    assert all(h.data.dtype == np.float32 for h in state)
    assert joint_flow_net(voxel, event_mask(voxel)).data.dtype == np.float64


def test_float64_checkpoint_loads_into_reconnet_as_float32(tmp_path):
    net = _recon_net()
    path = tmp_path / "net.ckp1"
    training.save_checkpoint(path, training.network_state(net))
    tensors, _ = training.load_checkpoint(path)
    assert all(t.dtype == np.float64 for t in tensors.values())
    restored = ReconNet(bins=5)
    training.load_network_state(restored, tensors)
    for a, b in zip(net.parameters(), restored.parameters()):
        assert b.data.dtype == np.float32, b.name
        assert np.array_equal(a.data, b.data), b.name  # float64 holds float32 exactly


# Largest |float32 - float64| gradient gap of a window, relative to the
# parameter's largest float64 gradient entry: measured at most 6.6e-7 over
# seeds 0-11 (float32's epsilon is 1.2e-7).
WINDOW_GRAD_RTOL = 5e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_window_gradients_match_a_float64_copy(seed):
    # The dtype rule runs the upcast copy in float64 throughout. pred.bias
    # has an exact gradient of 0 (every loss term reads differences of the
    # reconstruction), so both sides read rounding noise there.
    seqs = _sequences([5], seed=seed)
    config = _config(epochs=1, unroll_steps=4, tc_start_step=2, seed=seed,
                     augment=AugmentConfig(pause_prob=0.0))
    net, twin = _recon_net(seed), ReconNet(bins=5)
    for p, q in zip(twin.parameters(), net.parameters()):
        p.data = q.data.astype(np.float64)
    for n in (net, twin):
        assert len(training.train_recon(seqs, config, _constant_flow, n).curve) == 1
    top = max(np.abs(p.grad).max() for p in twin.parameters())
    for a, b in zip(net.parameters(), twin.parameters()):
        assert a.grad.dtype == np.float32 and b.grad.dtype == np.float64
        scale = top if a.name == "pred.bias" else np.abs(b.grad).max()
        gap = np.abs(a.grad - b.grad).max()
        assert gap <= WINDOW_GRAD_RTOL * scale, f"{a.name}: {gap / scale:.2e}"


def _learning_scene_and_windows(seed, unroll_steps):
    """A 32x32 blob scene; its first 3 windows of S+1 partitions and its last
    12 partitions."""
    rng = np.random.default_rng([seed, 0])
    geom = SensorGeometry(32, 32)
    base = synth.gaussian_blobs(geom, count=20, sigma=4.0, amplitude=2.0, rng=rng)
    angle = rng.uniform(np.pi / 6, np.pi / 3) + np.pi / 2 * int(rng.integers(4))
    scene = synth.SyntheticScene(geom, base, (25.6 * np.cos(angle), 25.6 * np.sin(angle)),
                                 contrast=0.35, duration=3.0)
    stream = synth.generate_events(scene, 1e-3)
    parts = [normalize_timestamps(p)
             for p in partition_by_count(stream, events_per_pixel_count(geom, 0.3))]
    window = unroll_steps + 1
    return scene, [parts[i * window:(i + 1) * window] for i in range(3)], parts[-12:]


def _frame_scores(images, scene, tail, warmup=4):
    """Mean MSE and SSIM of normalized images against the ground-truth frames
    at the ends of the tail's partitions after `warmup`."""
    rows = [metrics.frame_metrics(losses.normalize_intensity(image),
                                  losses.normalize_intensity(
                                      synth.ground_truth_frame(scene, int(p.t[-1]))))
            for image, p in zip(images[warmup:], tail[warmup:])]
    return np.mean(rows, axis=0)


def _recon_scores(net, scene, tail):
    state, images = None, []
    for p in tail:
        image, state = net(build_voxel_grid(p, 5), state)
        images.append(image.data)
    return _frame_scores(images, scene, tail)


def test_ground_truth_flow_teaches_reconstruction_more_than_zero_flow():
    # The photometric term is the paper's mechanism. With zero flow it gives
    # no gradient, and a zero-flow run beats a mid-gray frame on the other
    # terms alone, so mid-gray would not notice a broken photometric term.
    # The temporal term is off because it reads the flow too: with it on,
    # ground truth still beat zero flow with the photometric term zeroed.
    scene, windows, tail = _learning_scene_and_windows(104, unroll_steps=10)
    config = TrainConfig(epochs=1, seed=104, lr=1e-3, unroll_steps=10, tc_start_step=5,
                         weights=LossWeights(lambda2=0.0),
                         augment=AugmentConfig(0.0, 0.0, 0.0, 0.0))
    seqs = [windows[i % 3] for i in range(20)]
    gt_mse, gt_ssim = _recon_scores(training.train_recon(
        seqs, config, training.GroundTruthFlowProvider(scene), _recon_net(104)).recon_net,
        scene, tail)
    zero_mse, zero_ssim = _recon_scores(training.train_recon(
        seqs, config, _zero_flow, _recon_net(104)).recon_net, scene, tail)
    # A constant image normalizes to mid-gray.
    gray_mse, gray_ssim = _frame_scores([np.zeros(scene.base.shape)] * len(tail), scene, tail)
    assert gt_mse < min(zero_mse, gray_mse)
    assert gt_ssim > max(zero_ssim, gray_ssim)


@pytest.mark.parametrize("record,axis", [({"h_flip": True}, 0), ({"v_flip": True}, 1)])
def test_ground_truth_provider_mirrors_a_flipped_partition(checker_scene, checker_partitions,
                                                           record, axis):
    # Flipping x negates the partition's true u, flipping y its v. Before
    # the flips were recorded, the provider's unflipped flow scored FWL 3.56
    # on the h-flipped partition against 5.43 for its u-negation.
    part = apply_augmentation(checker_partitions[0], **record)
    flow = training.GroundTruthFlowProvider(checker_scene)(part, None, None)
    mirrored = flow.copy()
    mirrored[axis] *= -1.0
    assert fwl(part, flow) > fwl(part, mirrored)


# ---------------------------------------------------------------------------
# CKP1 checkpoints


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
    ({"w": np.zeros(1)}, "\ud800", "config blob"),
    # CKP1 holds real numbers: a complex or string tensor must not be cast.
    ({"w": np.array([1 + 2j, 3])}, "cfg", "tensor 'w'"),
    ({"w": np.array(["1.5"])}, "cfg", "tensor 'w'")])
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_network_state_rejects_non_finite_values(tmp_path, value):
    # Loaded silently, a NaN in a weight made every flow inference non-finite.
    saved = dict(training.network_state(_flow_net(seed=1)))
    saved["e1.weight"] = saved["e1.weight"].copy()
    saved["e1.weight"][0, 0, 1, 2] = value
    tensors, _ = training.load_checkpoint(_saved(tmp_path, saved))
    net = _flow_net()
    before = {k: v.copy() for k, v in _params(net).items()}
    with pytest.raises(CheckpointError, match="non-finite values in 'e1.weight'"):
        training.load_network_state(net, tensors)
    after = _params(net)
    assert all(np.array_equal(before[k], after[k]) for k in before)  # nothing loaded


def test_load_network_state_shape_mismatch():
    net = _recon_net()
    tensors = dict(training.network_state(net))
    name = next(iter(tensors))
    tensors[name] = np.zeros(tensors[name].size + 1)
    with pytest.raises(CheckpointError, match="shape mismatch"):
        training.load_network_state(net, tensors)
