"""Adam optimizer, unrolled training loops, and CKP1 checkpoints.

The two networks only share values, never gradients: the reconstruction
loop asks one flow provider per step and detaches the flow it returns,
whether a fixed flow, a frozen network or a jointly trained one made it.
"""

from __future__ import annotations

import math
import reprlib
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter, Tensor, add
from .events import (AugmentConfig, EventStream, apply_augmentation,
                     draw_augmentation, empty_stream)
from .geometry import as_flow, build_voxel_grid, event_mask
from .losses import (LossReport, LossWeights, flow_total_loss,
                     photometric_loss, predicted_increment, recon_total_loss,
                     reference_increment, temporal_loss, tv_loss, warp_previous)
from .networks import (DEFAULT_FLOW_SCALE, FireFlowNet, ReconNet, detach_state,
                       init_parameters)
from .synth import ground_truth_flow

GRAD_CLIP_NORM = 100.0

Curve = list[tuple[int, LossReport]]
Step = tuple[EventStream, np.ndarray, np.ndarray]  # partition, voxel grid, event mask


@dataclass
class TrainConfig:
    lr: float = 1e-4
    epochs: int = 120
    unroll_steps: int = 20     # S: recurrent steps per reconstruction update
    tc_start_step: int = 10    # S0: first step the temporal term covers
    bins: int = 5
    flow_scale: float = DEFAULT_FLOW_SCALE
    seed: int = 0
    grad_clip_enabled: bool = False
    weights: LossWeights = field(default_factory=LossWeights)
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        # Chained comparisons so that NaN and infinity fail too.
        if not 0 < self.lr < math.inf:
            raise ValueError(f"learning rate must be finite and positive, got {self.lr}")
        if not 0 < self.flow_scale < math.inf:
            raise ValueError(f"flow scale must be finite and positive, got {self.flow_scale}")
        if not 0 <= self.tc_start_step <= self.unroll_steps:
            raise ValueError(
                f"need 0 <= S0 <= S, got S0={self.tc_start_step}, S={self.unroll_steps}")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")


class Adam:
    """Standard Adam with bias correction; moments keyed by parameter name."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[Parameter], lr: float = 1e-4):
        self.params = list(params)
        self.lr = lr
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


def global_gradient_norm(params: list[Parameter]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return float(np.sqrt(total))


def clip_gradients(params: list[Parameter], max_norm: float) -> float:
    norm = global_gradient_norm(params)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def _optimize(loss: Tensor, report: LossReport, params: list[Parameter], opt: Adam,
              config: TrainConfig, curve: Curve, name: str) -> None:
    """One update from `loss`; its report joins `curve` as the next step."""
    step = len(curve)
    value = loss.item()
    if not np.isfinite(value):
        raise FloatingPointError(f"non-finite loss at {name} step {step}: {value}")
    opt.zero_grad()
    loss.backward()
    for p in params:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise FloatingPointError(f"non-finite gradient of {p.name!r} at {name} step {step}")
    if config.grad_clip_enabled:
        clip_gradients(params, GRAD_CLIP_NORM)
    opt.step()
    curve.append((step, report))


def _voxel_step(partition: EventStream, bins: int) -> Step:
    voxel = build_voxel_grid(partition, bins)
    return partition, voxel, event_mask(voxel)


def _epoch_steps(sequences, config: TrainConfig, rng: np.random.Generator,
                 min_length: int):
    """For each sequence of each epoch, an iterator over its training steps.

    The sequence's partitions share one drawn augmentation; a drawn pause
    inserts one `empty_stream`, an ordinary partition, at a drawn position.
    Sequences shorter than `min_length` partitions are skipped with a
    warning before anything is drawn for them.
    """
    for _ in range(config.epochs):
        for seq in sequences:
            if len(seq) < min_length:
                warnings.warn(f"sequence with {len(seq)} partitions is shorter than "
                              f"one training window ({min_length}); skipped")
                continue
            record = draw_augmentation(rng, config.augment)
            parts = [apply_augmentation(p, record) for p in seq]
            if record.pause:
                parts.insert(int(rng.integers(0, len(parts) + 1)),
                             empty_stream(seq[0].geometry))
            yield (_voxel_step(p, config.bins) for p in parts)


def _flow_update(net: FireFlowNet, opt: Adam, step: Step, config: TrainConfig,
                 curve: Curve) -> Tensor:
    """One contrast-maximization update; returns the flow it was computed from."""
    partition, voxel, mask = step
    flow = net(voxel, mask)
    if not np.isfinite(flow.data).all():
        raise FloatingPointError(f"non-finite flow at flow step {len(curve)}")
    _optimize(*flow_total_loss(partition, flow, config.weights), net.parameters(), opt,
              config, curve, "flow")
    return flow


def train_flow(sequences: list[list[EventStream]], config: TrainConfig,
               net: FireFlowNet | None = None) -> tuple[FireFlowNet, Curve]:
    """Contrast-maximization training of the flow network."""
    if not sequences:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(config.seed)
    if net is None:
        net = FireFlowNet(bins=config.bins, flow_scale=config.flow_scale)
        init_parameters(net, rng)
    opt = Adam(net.parameters(), config.lr)
    curve: Curve = []
    for steps in _epoch_steps(sequences, config, rng, 1):
        for step in steps:
            _flow_update(net, opt, step, config, curve)
    return net, curve


@dataclass
class ReconTrainResult:
    recon_net: ReconNet
    flow_net: FireFlowNet | None
    curve: Curve = field(default_factory=list)
    flow_curve: Curve = field(default_factory=list)


def train_recon(sequences: list[list[EventStream]], config: TrainConfig,
                flow_provider=None, flow_net: FireFlowNet | None = None,
                recon_net: ReconNet | None = None) -> ReconTrainResult:
    """Unrolled photometric-constancy training of the reconstruction network.

    Flow comes from `flow_provider(partition, voxel, mask) -> (2,H,W)` and
    is detached; a pause (no events, no motion) gets zero flow without
    asking it. Without a provider, `flow_net` (a new FireFlowNet if None)
    is trained jointly on each partition just before the reconstruction
    step consumes its flow; pass a frozen network as
    `flow_provider=lambda p, v, m: net(v, m)`. The reconstruction update
    fires every S+1 steps; hidden state and the previous frame are
    truncated there and reset at sequence starts. Sequences shorter than
    one unroll window are skipped.
    """
    if not sequences:
        raise ValueError("empty dataset")
    if flow_provider is not None and flow_net is not None:
        raise ValueError("flow_provider cannot be combined with flow_net")
    window = config.unroll_steps + 1
    rng = np.random.default_rng(config.seed)
    if recon_net is None:
        recon_net = ReconNet(bins=config.bins)
        init_parameters(recon_net, rng)
    if flow_provider is None and flow_net is None:
        flow_net = FireFlowNet(bins=config.bins, flow_scale=config.flow_scale)
        init_parameters(flow_net, rng)
    result = ReconTrainResult(recon_net, flow_net)
    if flow_provider is None:
        opt_f = Adam(flow_net.parameters(), config.lr)

        def flow_provider(partition, voxel, mask):
            return _flow_update(flow_net, opt_f, (partition, voxel, mask), config,
                                result.flow_curve)
    opt_r = Adam(recon_net.parameters(), config.lr)
    weights = config.weights
    for steps in _epoch_steps(sequences, config, rng, window):
        state = None
        l_prev: Tensor | None = None
        k, pe, tc, tv = 0, 0.0, 0.0, 0.0
        for partition, voxel, mask in steps:
            if l_prev is None:
                l_prev = Tensor(np.zeros(mask.shape))
            flow = (as_flow(flow_provider(partition, voxel, mask)).data if len(partition)
                    else np.zeros((2, *mask.shape)))
            if not np.isfinite(flow).all():
                raise FloatingPointError(f"non-finite flow at recon step {len(result.curve)}")
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
                _optimize(*recon_total_loss(pe, tc, tv, weights),
                          recon_net.parameters(), opt_r, config, result.curve, "recon")
                state = detach_state(state)
                l_prev = l_prev.detach()
                k, pe, tc, tv = 0, 0.0, 0.0, 0.0
        # Trailing steps that do not fill a window are dropped, like the
        # trailing events that do not fill a partition.
    return result


class GroundTruthFlowProvider:
    """Frozen provider handing out the scene's analytic flow per partition."""

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
    CheckpointError before `path` is opened, so a file there keeps its bytes."""
    chunks = [_CKP1_MAGIC, struct.pack("<I", len(tensors))]
    for name, data in tensors.items():
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
    """Strict load: names must match the network's parameter set exactly."""
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
        p.data = data
        p.grad = None

