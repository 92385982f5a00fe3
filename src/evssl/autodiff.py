"""Reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run: every operation returns a new Tensor and, when any input
requires gradients, records a backward closure. `backward()` on a scalar
root accumulates gradients into every reachable tensor's `.grad`.

Ops are module functions only; Tensor has no arithmetic operators.
Broadcasting is restricted to scalar-with-tensor; all other operands must
have identical shapes. No operation mutates its inputs. The ops cover the
graph the paper builds: conv2d is stride-1 and same-padded, and
bilinear_sample and bilinear_splat take constant grids and values.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "add", "sub", "mul", "div", "absolute", "square", "sqrt",
    "relu", "tanh", "sigmoid", "concat", "reshape", "conv2d",
    "bilinear_sample", "bilinear_splat", "gather_pixels",
    "tsum", "sum_of_squares",
]


class Tensor:
    """A float64 array plus an optional autodiff graph node."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._consumed = False

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = cls(data, requires_grad=True)
        out._parents = parents
        out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Same values, no graph history."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse accumulation from a scalar root.

        A graph can be backpropagated once; rebuild the forward pass to
        differentiate again.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar root, got shape {self.shape}")
        if self._consumed:
            raise RuntimeError("backward() already ran on this graph; rebuild the forward pass")
        self._consumed = True
        if not self.requires_grad:
            return
        topo = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            fn = node._backward
            if fn is not None:
                fn(node.grad)
                node._backward = None
                node._parents = ()

    def __getitem__(self, key):
        data = self.data[key]
        if not self.requires_grad:
            return Tensor(data)
        src = self

        def backward(g):
            full = np.zeros_like(src.data)
            full[key] += g
            _accum(src, full, own=True)

        return Tensor._from_op(data, (src,), backward)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named leaf tensor updated by the optimizer."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative post-order DFS; unrolled recurrent graphs exceed the
    # interpreter's recursion limit.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, int]] = [(root, 0)]
    visited.add(id(root))
    while stack:
        node, i = stack.pop()
        if i < len(node._parents):
            stack.append((node, i + 1))
            parent = node._parents[i]
            if parent.requires_grad and id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, 0))
        else:
            topo.append(node)
    return topo


def _accum(t: Tensor, g: np.ndarray, own: bool = False) -> None:
    if t.grad is None:
        t.grad = g if own else np.array(g)
    else:
        t.grad = t.grad + g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_binary_shapes(a: Tensor, b: Tensor) -> None:
    # Scalar here means 0-d; a shape-(1,) array is a mismatched shape.
    if a.shape == b.shape or a.ndim == 0 or b.ndim == 0:
        return
    raise ValueError(f"shape mismatch: {a.shape} vs {b.shape} (only scalar broadcast allowed)")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return g if g.shape == shape else np.asarray(g.sum()).reshape(shape)


def _binary(a, b, fwd, da, db) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b)
    data = fwd(a.data, b.data)
    if not (a.requires_grad or b.requires_grad):
        return Tensor(data)

    def backward(g):
        if a.requires_grad:
            _accum(a, _reduce_to(da(g, a.data, b.data), a.shape))
        if b.requires_grad:
            _accum(b, _reduce_to(db(g, a.data, b.data), b.shape))

    return Tensor._from_op(data, (a, b), backward)


def _unary(x, fwd, dx) -> Tensor:
    x = _as_tensor(x)
    data = fwd(x.data)

    if not x.requires_grad:
        return Tensor(data)

    def backward(g):
        _accum(x, dx(g, x.data, data))

    return Tensor._from_op(data, (x,), backward)


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y))


def absolute(x) -> Tensor:
    # Subgradient 0 at 0, via sign().
    return _unary(x, np.abs, lambda g, x_, out: g * np.sign(x_))


def square(x) -> Tensor:
    return _unary(x, np.square, lambda g, x_, out: 2.0 * x_ * g)


def sqrt(x) -> Tensor:
    return _unary(x, np.sqrt, lambda g, x_, out: g / (2.0 * out))


def relu(x) -> Tensor:
    # Subgradient 0 at 0.
    return _unary(x, lambda v: np.maximum(v, 0.0), lambda g, x_, out: g * (x_ > 0.0))


def tanh(x) -> Tensor:
    return _unary(x, np.tanh, lambda g, x_, out: g * (1.0 - out * out))


def sigmoid(x) -> Tensor:
    def fwd(v):
        return 1.0 / (1.0 + np.exp(-v))

    return _unary(x, fwd, lambda g, x_, out: g * out * (1.0 - out))


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    data = x.data.reshape(shape)
    if not x.requires_grad:
        return Tensor(data)

    def backward(g):
        _accum(x, g.reshape(x.shape))

    return Tensor._from_op(data, (x,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    if not any(t.requires_grad for t in tensors):
        return Tensor(data)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accum(t, g[tuple(sl)])

    return Tensor._from_op(data, tuple(tensors), backward)


# ---------------------------------------------------------------------------
# Convolution


def _im2col(xp: np.ndarray, k: int) -> np.ndarray:
    c, hp, wp = xp.shape
    ho, wo = hp - k + 1, wp - k + 1
    s0, s1, s2 = xp.strides
    view = np.lib.stride_tricks.as_strided(xp, (c, k, k, ho, wo), (s0, s1, s2, s1, s2))
    return view.reshape(c * k * k, ho * wo)


def conv2d(x, weight, bias=None) -> Tensor:
    """Stride-1 2-D cross-correlation; input C_in*H*W, weight C_out*C_in*k*k.

    Zero padding of (k-1)//2 keeps the spatial size.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    bias = _as_tensor(bias) if bias is not None else None
    c_out, c_in, k, k2 = weight.shape
    if k != k2 or k not in (1, 3, 5):
        raise ValueError(f"kernel must be square with k in {{1,3,5}}, got {k}x{k2}")
    if x.ndim != 3 or x.shape[0] != c_in:
        raise ValueError(f"channel mismatch: input {x.shape} vs weight {weight.shape}")
    if bias is not None and bias.shape != (c_out,):
        raise ValueError(f"bias shape {bias.shape} != ({c_out},)")
    p = (k - 1) // 2
    _, h, w = x.shape

    xp = np.pad(x.data, ((0, 0), (p, p), (p, p)))
    wmat = weight.data.reshape(c_out, -1)
    out = (wmat @ _im2col(xp, k)).reshape(c_out, h, w)
    if bias is not None:
        out = out + bias.data[:, None, None]

    parents = tuple(t for t in (x, weight, bias) if t is not None)
    if not any(t.requires_grad for t in parents):
        return Tensor(out)

    def backward(g):
        g2 = g.reshape(c_out, -1)
        if bias is not None and bias.requires_grad:
            _accum(bias, g2.sum(axis=1), own=True)
        if weight.requires_grad:
            # im2col is recomputed rather than retained: unrolled recurrent
            # graphs would otherwise hold one col matrix per conv per step.
            _accum(weight, (g2 @ _im2col(xp, k).T).reshape(weight.shape), own=True)
        if x.requires_grad:
            # Transposed convolution: the same-padded gradient correlated with
            # the flipped kernel, input and output channels swapped.
            wt = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
            gp = np.pad(g, ((0, 0), (p, p), (p, p)))
            _accum(x, (wt @ _im2col(gp, k)).reshape(c_in, h, w), own=True)

    return Tensor._from_op(out, parents, backward)


# ---------------------------------------------------------------------------
# Bilinear sampling / splatting


def _constant(name: str, a) -> np.ndarray:
    if isinstance(a, Tensor):
        raise TypeError(f"{name} must be a constant array; a Tensor gets no gradient")
    return np.asarray(a, dtype=np.float64)


def bilinear_sample(image, grid) -> Tensor:
    """Sample image (C,H,W) at absolute coordinates grid (2,H',W').

    grid is a constant array: grid[0] holds x (column), grid[1] holds y
    (row) coordinates. Out-of-range coordinates replicate the border.
    Differentiable with respect to the image only.
    """
    image, grid = _as_tensor(image), _constant("grid", grid)
    c, h, w = image.shape
    if grid.ndim != 3 or grid.shape[0] != 2:
        raise ValueError(f"grid must be (2,H,W), got {grid.shape}")
    out_shape = grid.shape[1:]

    gx = np.clip(grid[0], 0.0, w - 1.0).ravel()
    gy = np.clip(grid[1], 0.0, h - 1.0).ravel()
    x0 = np.floor(gx).astype(np.int64)
    y0 = np.floor(gy).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = gx - x0
    fy = gy - y0
    corners = ((y0 * w + x0, (1.0 - fx) * (1.0 - fy)),
               (y0 * w + x1, fx * (1.0 - fy)),
               (y1 * w + x0, (1.0 - fx) * fy),
               (y1 * w + x1, fx * fy))

    flat = image.data.reshape(c, -1)
    out = sum(wt * flat[:, idx] for idx, wt in corners).reshape(c, *out_shape)

    if not image.requires_grad:
        return Tensor(out)

    def backward(g):
        g2 = g.reshape(c, -1)
        gimg = np.zeros(c * h * w)
        ch_off = (np.arange(c) * (h * w))[:, None]
        for idx, wt in corners:
            gimg += np.bincount((ch_off + idx[None, :]).ravel(),
                                weights=(g2 * wt[None, :]).ravel(), minlength=c * h * w)
        _accum(image, gimg.reshape(c, h, w), own=True)

    return Tensor._from_op(out, (image,), backward)


def bilinear_splat(values, xs, ys, shape: tuple[int, int]) -> Tensor:
    """Scatter-add constant values at continuous positions into an (H,W) image.

    Each value is spread over the four neighbouring pixels with bilinear
    corner weights; corners falling outside the frame are dropped.
    Differentiable with respect to the positions only.
    """
    values, xs, ys = _constant("values", values), _as_tensor(xs), _as_tensor(ys)
    if not (values.shape == xs.shape == ys.shape) or values.ndim != 1:
        raise ValueError("values, xs, ys must be equal-length 1-D arrays")
    h, w = shape
    x0 = np.floor(xs.data)
    y0 = np.floor(ys.data)
    fx = xs.data - x0
    fy = ys.data - y0
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)

    # Per corner: the in-frame mask and the flat pixel index, 0 where the
    # corner is out of frame and its weight is zeroed.
    corners = []
    out = np.zeros(h * w)
    for cx, cy, cw in ((x0, y0, (1.0 - fx) * (1.0 - fy)),
                       (x0 + 1, y0, fx * (1.0 - fy)),
                       (x0, y0 + 1, (1.0 - fx) * fy),
                       (x0 + 1, y0 + 1, fx * fy)):
        ok = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
        idx = np.where(ok, cy * w + cx, 0)
        out += np.bincount(idx, weights=np.where(ok, values * cw, 0.0), minlength=h * w)
        corners.append((ok, idx))
    out = out.reshape(h, w)

    if not (xs.requires_grad or ys.requires_grad):
        return Tensor(out)

    def backward(g):
        gf = g.ravel()
        g00, g10, g01, g11 = (np.where(ok, gf[idx], 0.0) for ok, idx in corners)
        if xs.requires_grad:
            _accum(xs, values * ((1.0 - fy) * (g10 - g00) + fy * (g11 - g01)), own=True)
        if ys.requires_grad:
            _accum(ys, values * ((1.0 - fx) * (g01 - g00) + fx * (g11 - g10)), own=True)

    return Tensor._from_op(out, (xs, ys), backward)


def gather_pixels(field, iy: np.ndarray, ix: np.ndarray) -> Tensor:
    """Read field (H,W) at integer pixel indices; differentiable in field."""
    field = _as_tensor(field)
    h, w = field.shape
    data = field.data[iy, ix]
    if not field.requires_grad:
        return Tensor(data)

    def backward(g):
        flat = np.bincount(iy * w + ix, weights=g, minlength=h * w)
        _accum(field, flat.reshape(h, w), own=True)

    return Tensor._from_op(data, (field,), backward)


# ---------------------------------------------------------------------------
# Reductions


def tsum(x) -> Tensor:
    x = _as_tensor(x)
    data = np.asarray(x.data.sum())
    if not x.requires_grad:
        return Tensor(data)

    def backward(g):
        _accum(x, np.full_like(x.data, float(g)), own=True)

    return Tensor._from_op(data, (x,), backward)


def sum_of_squares(x) -> Tensor:
    x = _as_tensor(x)
    data = np.asarray((x.data * x.data).sum())
    if not x.requires_grad:
        return Tensor(data)

    def backward(g):
        _accum(x, 2.0 * x.data * float(g), own=True)

    return Tensor._from_op(data, (x,), backward)
