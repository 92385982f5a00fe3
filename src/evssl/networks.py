"""Lightweight flow and reconstruction networks.

The flow network is a plain single-strided conv stack with residual
blocks and a tanh prediction head scaled to `FLOW_SCALE` pixels;
its output is forced to zero wherever the input partition has no events.
The reconstruction network shares the layout but swaps the second and
third encoders for ConvGRU cells and predicts one unbounded
log-brightness channel. ReconNet's parameters are float32, so its
correlations run in float32 (autodiff's dtype rule); FireFlowNet's are
float64.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .geometry import check_bin_count

FLOW_SCALE = 40.0    # FireFlowNet's largest flow, in pixels per partition
FLOW_CHANNELS = 32   # feature channels of every FireFlowNet layer
RECON_CHANNELS = 16  # feature channels of every ReconNet layer


class ConvLayer:
    """3x3 or 1x1 convolution with bias and an optional activation ("relu",
    "sigmoid" or "tanh"), fused into one conv2d node."""

    def __init__(self, name: str, c_in: int, c_out: int, kernel: int = 3,
                 activation: str | None = "relu"):
        self.weight = Parameter(f"{name}.weight", np.zeros((c_out, c_in, kernel, kernel)))
        self.bias = Parameter(f"{name}.bias", np.zeros(c_out))
        self.activation = activation

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def __call__(self, x: Tensor, skip: Tensor | None = None) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias, self.activation, skip=skip)


class ResidualBlock:
    """Two same-channel 3x3 convolutions, relu(conv2(relu(conv1(x))) + x); the
    skip and the outer relu are fused into conv2's node."""

    def __init__(self, name: str, channels: int):
        self.conv1 = ConvLayer(f"{name}.conv1", channels, channels, activation="relu")
        self.conv2 = ConvLayer(f"{name}.conv2", channels, channels, activation="relu")

    def parameters(self) -> list[Parameter]:
        return self.conv1.parameters() + self.conv2.parameters()

    def __call__(self, x: Tensor) -> Tensor:
        return self.conv2(self.conv1(x), skip=x)


class ConvGRUCell:
    """Convolutional GRU over `channels`-channel input and state; gates see
    [h, x], the candidate sees [r*h, x].

    h' = (1-z)*h + z*tanh(Wc*[r*h, x]); sigmoid gates keep the state
    bounded whenever the candidate is tanh-bounded. The update gate, reset
    gate and candidate each own a 3x3 weight and a bias; the whole step is
    one `conv_gru` node.
    """

    def __init__(self, name: str, channels: int):
        self.channels = channels
        self.params = [Parameter(f"{name}.{part}.{kind}", np.zeros(shape))
                       for part in ("update", "reset", "candidate")
                       for kind, shape in (("weight", (channels, 2 * channels, 3, 3)),
                                           ("bias", (channels,)))]

    def parameters(self) -> list[Parameter]:
        return list(self.params)

    def __call__(self, x: Tensor, h: Tensor | None) -> Tensor:
        if h is None:
            h = Tensor(np.zeros((self.channels, *x.shape[1:]), self.params[0].data.dtype))
        return ad.conv_gru(x, h, *self.params)


class FireFlowNet:
    """Three single-strided encoders, two residual blocks, 1x1 tanh head
    scaled to `FLOW_SCALE` pixels per partition; e1's conv2d checks that a
    voxel has `bins` channels."""

    def __init__(self, bins: int):
        check_bin_count(bins)
        channels = FLOW_CHANNELS
        self.e1 = ConvLayer("e1", bins, channels)
        self.e2 = ConvLayer("e2", channels, channels)
        self.e3 = ConvLayer("e3", channels, channels)
        self.r1 = ResidualBlock("r1", channels)
        self.r2 = ResidualBlock("r2", channels)
        self.pred = ConvLayer("pred", channels, 2, kernel=1, activation="tanh")

    def parameters(self) -> list[Parameter]:
        blocks = (self.e1, self.e2, self.e3, self.r1, self.r2, self.pred)
        return [p for block in blocks for p in block.parameters()]

    def __call__(self, voxel: np.ndarray, mask: np.ndarray) -> Tensor:
        """Flow (2,H,W) in pixels per partition; exactly zero off-mask."""
        h = self.r2(self.r1(self.e3(self.e2(self.e1(Tensor(voxel))))))
        return ad.mul(self.pred(h), FLOW_SCALE * np.broadcast_to(mask, (2, *mask.shape)))


class ReconNet:
    """FireFlowNet layout with ConvGRU second/third encoders and a linear
    single-channel prediction head; the head's conv2d checks that a voxel
    has `bins` channels. Its parameters are float32: this is the one place
    that picks the reconstruction's dtype."""

    def __init__(self, bins: int):
        check_bin_count(bins)
        channels = RECON_CHANNELS
        self.head = ConvLayer("head", bins, channels)
        self.g1 = ConvGRUCell("g1", channels)
        self.g2 = ConvGRUCell("g2", channels)
        self.r1 = ResidualBlock("r1", channels)
        self.r2 = ResidualBlock("r2", channels)
        self.pred = ConvLayer("pred", channels, 1, kernel=1, activation=None)
        for p in self.parameters():
            p.data = p.data.astype(np.float32)

    def parameters(self) -> list[Parameter]:
        blocks = (self.head, self.g1, self.g2, self.r1, self.r2, self.pred)
        return [p for block in blocks for p in block.parameters()]

    def __call__(self, voxel: np.ndarray,
                 state: tuple[Tensor, Tensor] | None) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Unbounded log-brightness image (H,W) plus the new hidden state."""
        s1, s2 = state if state is not None else (None, None)
        a = self.head(Tensor(voxel))
        h1 = self.g1(a, s1)
        h2 = self.g2(h1, s2)
        out = self.pred(self.r2(self.r1(h2)))
        return out[0], (h1, h2)


def init_parameters(net, rng: np.random.Generator) -> None:
    """Glorot-uniform conv weights, zero biases, in each parameter's own
    dtype; reproducible from the rng, which draws float64 either way."""
    for p in net.parameters():
        if p.data.ndim == 4:
            c_out, c_in, k, _ = p.data.shape
            bound = np.sqrt(6.0 / (c_in * k * k + c_out * k * k))
            p.data = rng.uniform(-bound, bound, size=p.data.shape).astype(p.data.dtype)
        else:
            p.data = np.zeros_like(p.data)
        p.grad = None
