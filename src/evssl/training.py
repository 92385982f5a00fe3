"""Adam optimizer, unrolled training loops, and CKP1 checkpoints.

The two networks only share values, never gradients: the reconstruction
loop asks one flow provider per step and detaches the flow it returns,
whether a fixed flow, a frozen network or a jointly trained one made it.
One flow-update provider, `flow_updates`, serves `train_flow` and joint
`train_recon` alike. Each loop trains the networks it is given.
"""

from __future__ import annotations

import math
import reprlib
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter, Tensor, add
from .events import (AugmentConfig, ConfigurationError, EventStream, apply_augmentation,
                     check_number, empty_stream)
from .geometry import as_flow, build_voxel_grid, check_bin_count, event_mask
from .losses import (LossReport, LossWeights, flow_total_loss,
                     photometric_loss, predicted_increment, recon_total_loss,
                     reference_increment, temporal_loss, tv_loss, warp_previous)
from .networks import FireFlowNet, ReconNet
from .synth import ground_truth_flow

Curve = list[tuple[int, LossReport]]
Step = tuple[EventStream, np.ndarray, np.ndarray]  # partition, voxel grid, event mask


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    epochs: int = 120
    unroll_steps: int = 20     # S: recurrent steps per reconstruction update
    tc_start_step: int = 10    # S0: first step the temporal term covers
    bins: int = 5
    seed: int = 0              # seeds the augmentation draws only
    weights: LossWeights = field(default_factory=LossWeights)
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        check_number("lr", self.lr, low=0, open_low=True)
        for name in ("epochs", "seed", "unroll_steps"):
            check_number(name, getattr(self, name), integer=True, low=0)
        check_number("S0: tc_start_step", self.tc_start_step, integer=True, low=0,
                     high=self.unroll_steps)
        check_bin_count(self.bins)
        if not isinstance(self.weights, LossWeights):
            raise ConfigurationError(f"weights must be a LossWeights, got {self.weights!r}")
        if not isinstance(self.augment, AugmentConfig):
            raise ConfigurationError(f"augment must be an AugmentConfig, got {self.augment!r}")


class Adam:
    """Standard Adam with bias correction; moments keyed by parameter name.
    Moments and updates keep each parameter's (and its gradient's) dtype.
    Holding a parameter turns its gradient on: from then on a forward pass
    through it records a graph."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[Parameter], lr: float):
        check_number("lr", lr, low=0, open_low=True)
        self.params = list(params)
        for p in self.params:
            p.requires_grad = True
        self.lr = float(lr)  # a numpy float64 would promote a float32 update
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for p in self.params:
            if p.grad is None:
                raise ValueError(f"missing gradient for parameter {p.name!r}")
            g = p.grad
            m = self.m[p.name] = self.beta1 * self.m[p.name] + (1.0 - self.beta1) * g
            v = self.v[p.name] = self.beta2 * self.v[p.name] + (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _optimize(loss: Tensor, report: LossReport, opt: Adam, curve: Curve, name: str) -> None:
    """One update from `loss`; its report joins `curve` as the next step."""
    step = len(curve)
    value = loss.item()
    if not np.isfinite(value):
        raise FloatingPointError(f"non-finite loss at {name} step {step}: {value}")
    opt.zero_grad()
    loss.backward()
    for p in opt.params:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise FloatingPointError(f"non-finite gradient of {p.name!r} at {name} step {step}")
    opt.step()
    curve.append((step, report))


def _voxel_step(partition: EventStream, bins: int) -> Step:
    voxel = build_voxel_grid(partition, bins)
    return partition, voxel, event_mask(voxel)


def _epoch_steps(sequences, config: TrainConfig, rng: np.random.Generator,
                 min_length: int):
    """For each sequence of each epoch, its number of training steps and an
    iterator over them.

    The sequence's partitions share one augmentation, one draw each for the
    h-flip, v-flip, polarity flip and pause at any probability; a drawn pause
    inserts one `empty_stream`, an ordinary partition, at a drawn position.
    Sequences shorter than `min_length` partitions are skipped with a
    warning before anything is drawn for them.
    """
    a = config.augment
    probs = (a.h_flip_prob, a.v_flip_prob, a.polarity_flip_prob, a.pause_prob)
    for _ in range(config.epochs):
        for seq in sequences:
            if len(seq) < min_length:
                warnings.warn(f"sequence with {len(seq)} partitions is shorter than "
                              f"one training window ({min_length}); skipped")
                continue
            h_flip, v_flip, polarity_flip, pause = (rng.random() < prob for prob in probs)
            parts = [apply_augmentation(p, h_flip=h_flip, v_flip=v_flip,
                                        polarity_flip=polarity_flip) for p in seq]
            if pause:
                parts.insert(int(rng.integers(0, len(parts) + 1)),
                             empty_stream(seq[0].geometry))
            yield len(parts), (_voxel_step(p, config.bins) for p in parts)


def flow_updates(net: FireFlowNet, config: TrainConfig, curve: Curve):
    """The flow provider that trains `net`: each call makes one
    contrast-maximization update on the partition, appends its report to
    `curve` and returns the flow the update was computed from."""
    opt = Adam(net.parameters(), config.lr)

    def update(partition, voxel, mask) -> Tensor:
        flow = net(voxel, mask)
        if not np.isfinite(flow.data).all():
            raise FloatingPointError(f"non-finite flow at flow step {len(curve)}")
        _optimize(*flow_total_loss(partition, flow, config.weights), opt, curve, "flow")
        return flow

    return update


def train_flow(sequences: list[list[EventStream]], config: TrainConfig,
               net: FireFlowNet) -> tuple[FireFlowNet, Curve]:
    """Contrast-maximization training of `net`. A pause (no events) has zero
    loss and gradient and gets no update, as in `train_recon`."""
    if not sequences:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(config.seed)
    curve: Curve = []
    update = flow_updates(net, config, curve)
    for _, steps in _epoch_steps(sequences, config, rng, 1):
        for partition, voxel, mask in steps:
            if len(partition):
                update(partition, voxel, mask)
    return net, curve


@dataclass
class ReconTrainResult:
    recon_net: ReconNet
    curve: Curve = field(default_factory=list)


def train_recon(sequences: list[list[EventStream]], config: TrainConfig,
                flow_provider, recon_net: ReconNet) -> ReconTrainResult:
    """Unrolled photometric-constancy training of `recon_net`.

    Flow comes from `flow_provider(partition, voxel, mask) -> (2,H,W)` and
    is detached; a pause (no events, no motion) gets zero flow without
    asking it. Pass a frozen network as `lambda p, v, m: net(v, m)`, which
    records no graph for a network no optimizer holds (a trained one still
    records it), or `flow_updates(net, config, curve)` to train `net`
    jointly, on each partition just before the reconstruction step
    consumes its flow.
    The reconstruction update fires every S+1 steps; hidden state and the
    previous frame are truncated there and reset at sequence starts.
    Trailing steps that do not fill a window still ask the provider, but
    run no ReconNet forward and make no reconstruction update. Sequences
    shorter than one unroll window are skipped.
    """
    if not sequences:
        raise ValueError("empty dataset")
    window = config.unroll_steps + 1
    rng = np.random.default_rng(config.seed)
    result = ReconTrainResult(recon_net)
    opt_r = Adam(recon_net.parameters(), config.lr)
    weights = config.weights
    for length, steps in _epoch_steps(sequences, config, rng, window):
        windowed = length - length % window
        state = None
        l_prev: Tensor | None = None
        k, pe, tc, tv = 0, 0.0, 0.0, 0.0
        for i, (partition, voxel, mask) in enumerate(steps):
            if l_prev is None:
                l_prev = Tensor(np.zeros(mask.shape))
            flow = (as_flow(flow_provider(partition, voxel, mask)).data if len(partition)
                    else np.zeros((2, *mask.shape)))
            if not np.isfinite(flow).all():
                raise FloatingPointError(f"non-finite flow at recon step {len(result.curve)}")
            if i >= windowed:  # a trailing step: no window for ReconNet to fill
                continue
            reference = reference_increment(partition, flow, weights)
            l_k, state = recon_net(voxel, state)
            warped = warp_previous(l_prev, flow)
            pe = add(pe, photometric_loss(reference, predicted_increment(warped, flow)))
            if k >= config.tc_start_step:
                tc = add(tc, temporal_loss(l_k, warped))
            tv = add(tv, tv_loss(l_k))
            l_prev = l_k
            k += 1
            if k == window:
                _optimize(*recon_total_loss(pe, tc, tv, weights), opt_r, result.curve, "recon")
                state = tuple(s.detach() for s in state)
                l_prev = l_prev.detach()
                k, pe, tc, tv = 0, 0.0, 0.0, 0.0
    return result


class GroundTruthFlowProvider:
    """Frozen provider handing out the scene's analytic flow per partition,
    in the partition's frame: a partition that `apply_augmentation` h-flipped
    gets u negated, and one it v-flipped gets v negated."""

    def __init__(self, scene):
        self._scene = scene

    def __call__(self, partition, voxel, mask):
        return ground_truth_flow(self._scene, partition).as_array()


# ---------------------------------------------------------------------------
# CKP1 checkpoints
#
# Little-endian layout: magic 'CKP1'; u32 tensor count; per tensor
# u16 name length, name bytes, u8 rank, u32 dims, f64 data; then a
# u32-length-prefixed config text blob.

_CKP1_MAGIC = b"CKP1"


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, tensors: dict[str, np.ndarray], config_text: str = "") -> None:
    """Packed in memory first: what the layout cannot hold raises
    CheckpointError before `path` is opened, so a file there keeps its bytes.
    Only real numbers fit: a complex or string tensor is rejected, not cast."""
    chunks = [_CKP1_MAGIC, struct.pack("<I", len(tensors))]
    for name, data in tensors.items():
        kind = np.asarray(data).dtype.kind
        if kind not in "biuf":
            raise CheckpointError(
                f"tensor {reprlib.repr(name)} does not fit CKP1: dtype kind {kind!r} is not real")
        arr = np.ascontiguousarray(data, dtype="<f8")
        try:
            encoded = name.encode("utf-8")
            chunks.append(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I",
                                      len(encoded), encoded, arr.ndim, *arr.shape))
        except (UnicodeEncodeError, struct.error) as e:
            raise CheckpointError(f"tensor {reprlib.repr(name)} does not fit CKP1: {e}") from None
        chunks.append(arr.tobytes())
    try:
        blob = config_text.encode("utf-8")
        chunks += [struct.pack("<I", len(blob)), blob]
    except (UnicodeEncodeError, struct.error) as e:
        raise CheckpointError(f"config blob does not fit CKP1: {e}") from None
    with open(path, "wb") as f:
        f.writelines(chunks)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _CKP1_MAGIC:
        raise CheckpointError(f"bad magic {raw[:4]!r}")
    offset = 4

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(raw):
            raise CheckpointError("truncated checkpoint")
        chunk = raw[offset:offset + n]
        offset += n
        return chunk

    def text(n: int, what: str) -> str:
        try:
            return take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{what} is not UTF-8") from None

    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = text(name_len, "tensor name")
        (rank,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        chunk = take(8 * math.prod(shape))
        try:
            data = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        except ValueError:  # an empty shape too large for numpy to represent
            raise CheckpointError(f"tensor {name!r} has impossible shape {shape}") from None
        if name in tensors:
            raise CheckpointError(f"duplicate tensor name {name!r}")
        tensors[name] = data
    (blob_len,) = struct.unpack("<I", take(4))
    config_text = text(blob_len, "config blob")
    if offset != len(raw):
        raise CheckpointError(f"{len(raw) - offset} trailing bytes after config blob")
    return tensors, config_text


def network_state(net) -> dict[str, np.ndarray]:
    return {p.name: p.data for p in net.parameters()}


def load_network_state(net, tensors: dict[str, np.ndarray]) -> None:
    """Strict load: names must match the network's parameter set exactly and
    every value must be finite. Each parameter keeps its dtype: CKP1's
    float64 holds a float32 exactly."""
    params = {p.name: p for p in net.parameters()}
    unknown = sorted(set(tensors) - set(params))
    if unknown:
        raise CheckpointError(f"unknown parameter names in checkpoint: {unknown}")
    missing = sorted(set(params) - set(tensors))
    if missing:
        raise CheckpointError(f"checkpoint is missing parameters: {missing}")
    for name, p in params.items():
        data = tensors[name]
        if data.shape != p.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {data.shape}, "
                f"network {p.data.shape}")
        if not np.isfinite(data).all():
            raise CheckpointError(f"non-finite values in {name!r}")
    for name, p in params.items():  # only once all passed: a failed load changes nothing
        p.data = np.asarray(tensors[name], p.data.dtype)
        p.grad = None

