"""Reverse-mode automatic differentiation over dense float32 or float64 arrays.

Define-by-run: every operation returns a new Tensor through
`Tensor._from_op`, which alone decides, for every op, whether it records
a graph node and which parents that node links: only the inputs that
require gradients. With none left the result is a plain constant Tensor
and the op's backward closure is dropped. `requires_grad` can be turned
on, never off, and a Parameter's is turned on by the optimizer that holds
it (`training.Adam`): a network run only for its output records no graph.

The graph links nodes, not values. A tensor that requires a gradient
owns a node: its `.grad`, its parents' nodes and its closure. Each
closure keeps only the arrays its backward reads, so a value that no
backward reads is freed when its caller drops the tensor. `backward()`
on a scalar root accumulates gradients into the `.grad` of every
reachable leaf (a node without a closure, such as a held Parameter's).
Intermediate gradients, and the closures with what they kept, are freed
as soon as the closure has run. Gradients are handed over, never copied,
and never written in place: code that changes a `.grad` rebinds it. So
two leaves may share one gradient array, as both inputs of `add` do.

Ops are module functions only; Tensor has no arithmetic operators. A
binary op's operands have one shape, or one is a 0-d scalar that needs no
gradient and broadcasts: a scalar that needs one raises against an array,
so no gradient is ever summed back to a scalar. No operation mutates its
inputs. The ops cover the graph the paper builds:

- element-wise: add, sub, mul, div, absolute, square, sqrt;
- structural: basic indexing (`Tensor[...]`) and gather_pixels, which
  reads integer pixel indices of any shape. Its row and column
  indices share one shape and lie inside the frame; any other index
  raises rather than wrapping onto another pixel;
- convolution: conv2d, stride-1 and same-padded, with an optional skip
  operand and activation fused into its node; conv_gru, one ConvGRU step
  over the same correlation. Each correlation reads its input from one
  flat zero-padded buffer in which every kernel tap is a contiguous run.
  The forward multiplies a copy of the runs band by band, so no copy
  spans the whole frame. The input gradient is one GEMM over a copy of
  the whole output gradient's runs, and the weight gradient builds no
  copy of its own; neither is banded, because the weight gradient sums
  over every pixel. Where the process may run on two CPUs, one worker
  thread takes half of the forward's bands, and the weight gradient's
  GEMM beside the input gradient's: every output is bit-identical either
  way;
- resampling: bilinear_sample and bilinear_splat, which take constant
  grids and values. They are adjoint and share one corner kernel: the
  gradient of a sample is a splat of the same corners, recomputed in
  backward from the positions;
- reductions: tsum, sum_of_squares.

A fused node (conv2d with its bias, skip and activation, or a whole
conv_gru step) keeps only the arrays its backward reads, and rebuilds
cheap intermediates such as the flat buffers of its (stacked) inputs
there instead of holding them for the life of the graph. It applies its
bias, skip and activation in place on its own fresh output, so no forward
allocates a second frame for them.

One dtype rule: a correlation runs in its weights' dtype. conv2d and
conv_gru cast their inputs to it while copying them into the flat buffer,
and their incoming gradient at the top of backward, so their outputs and
all their gradients come out in that dtype. Every other op follows
numpy's promotion; a float32 operand meeting a float64 one gives float64.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "add", "sub", "mul", "div", "absolute", "square", "sqrt",
    "conv2d", "conv_gru",
    "bilinear_sample", "bilinear_splat", "gather_pixels",
    "tsum", "sum_of_squares",
]


class _Node:
    """A gradient, the nodes of an op's operands (None for one that needs no
    gradient, or is absent) and `backward(g)`, which returns one gradient
    per operand, None where the node is; a leaf has neither. It holds no
    value."""

    __slots__ = ("grad", "parents", "backward")

    def __init__(self, parents: tuple = (), backward=None):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward = backward


class Tensor:
    """A float32 or float64 array plus, if it requires a gradient, a node.

    float32 data stays float32; any other data is cast to float64.
    """

    __slots__ = ("data", "_node", "_consumed")

    def __init__(self, data):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self._node = None
        self._consumed = False

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor | None", ...], backward) -> "Tensor":
        out = cls(data)
        links = tuple(None if p is None else p._node for p in parents)
        if any(n is not None for n in links):
            out._node = _Node(links, backward)
        return out

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        if not flag:  # dropping the node would orphan the graphs that link it
            raise ValueError("requires_grad can be turned on, not off")
        if self._node is None:
            self._node = _Node()

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if self._node is not None:
            self._node.grad = g
        elif g is not None:
            raise AttributeError("a tensor that requires no gradient holds none")

    @property
    def _backward(self):
        # perfbench/tracing.py times an op's backward by rebinding this.
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn) -> None:
        self._node.backward = fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        """The value of a size-1 tensor as a Python float."""
        if self.data.size != 1:
            raise ValueError(f"item() needs a size-1 tensor, got shape {self.shape}")
        return self.data.item()

    def detach(self) -> "Tensor":
        """Same values, no graph history."""
        return Tensor(self.data)

    def backward(self) -> None:
        """Reverse accumulation from a scalar root into the leaves' `.grad`.

        Every non-leaf node drops its gradient, closure and parents once its
        closure has run, so only leaves keep a gradient, and the arrays that
        closure kept are freed then. A graph can be backpropagated once;
        rebuild the forward pass to differentiate again.
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
        while topo:
            node = topo.pop()
            if node.backward is not None:
                for parent, g in zip(node.parents, node.backward(node.grad)):
                    if parent is not None:
                        parent.grad = g if parent.grad is None else parent.grad + g
                node.grad = node.backward = None
                node.parents = ()

    def __getitem__(self, key):
        """Basic indexing only (int, slice, None, Ellipsis): an array key could
        repeat an element, whose gradients the backward's assignment would not sum."""
        if not all(map(_basic_index, key if isinstance(key, tuple) else (key,))):
            raise TypeError(f"Tensor index must be int, slice, None or Ellipsis, got {key!r}")
        shape, dtype = self.shape, self.data.dtype

        def backward(g):
            full = np.zeros(shape, dtype)
            full[key] = g
            return (full,)

        return Tensor._from_op(self.data[key], (self,), backward)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named leaf tensor updated by the optimizer; it requires no gradient
    until an optimizer holds it."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def _basic_index(k) -> bool:
    return (k is None or k is Ellipsis or isinstance(k, slice)
            or isinstance(k, (int, np.integer)) and not isinstance(k, bool))


def _toposort(root: Tensor) -> list[_Node]:
    # Iterative post-order DFS over root's node and every node it reaches;
    # unrolled recurrent graphs exceed the interpreter's recursion limit.
    topo: list[_Node] = []
    visited: set[_Node] = {root._node}
    stack: list[tuple[_Node, int]] = [(root._node, 0)]
    while stack:
        node, i = stack.pop()
        if i < len(node.parents):
            stack.append((node, i + 1))
            parent = node.parents[i]
            if parent is not None and parent not in visited:
                visited.add(parent)
                stack.append((parent, 0))
        else:
            topo.append(node)
    return topo


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _binary(a, b, fwd, da, db, reads=("", "")) -> Tensor:
    """da(g, x, y) and db(g, x, y) are a's and b's gradients, and `reads` the
    operands ("x" is a, "y" is b) that each reads: the only ones kept."""
    a, b = _as_tensor(a), _as_tensor(b)
    ra, rb = a.requires_grad, b.requires_grad
    # Scalar here means 0-d; a shape-(1,) array is a mismatched shape. A
    # scalar that needs a gradient would need the output's gradient summed.
    if a.shape != b.shape and not (a.ndim == 0 and not ra or b.ndim == 0 and not rb):
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape} "
                         "(only a scalar that needs no gradient broadcasts)")
    read = (reads[0] if ra else "") + (reads[1] if rb else "")
    x = a.data if "x" in read else None
    y = b.data if "y" in read else None

    def backward(g):
        return da(g, x, y) if ra else None, db(g, x, y) if rb else None

    return Tensor._from_op(fwd(a.data, b.data), (a, b), backward)


def _unary(x, fwd, dx, reads_output=False) -> Tensor:
    """dx(g, v) is the gradient, v the input (the output if `reads_output`)."""
    x = _as_tensor(x)
    data = fwd(x.data)
    v = data if reads_output else x.data
    return Tensor._from_op(data, (x,), lambda g: (dx(g, v),))


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x,
                   reads=("y", "x"))


def div(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y),
                   reads=("y", "xy"))


def absolute(x) -> Tensor:
    # Subgradient 0 at 0, via sign().
    return _unary(x, np.abs, lambda g, x_: g * np.sign(x_))


def square(x) -> Tensor:
    return _unary(x, np.square, lambda g, x_: 2.0 * x_ * g)


def sqrt(x) -> Tensor:
    return _unary(x, np.sqrt, lambda g, out: g / (2.0 * out), reads_output=True)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-v)), each step written into v.
    np.negative(v, out=v)
    np.exp(v, out=v)
    v += 1.0
    return np.divide(1.0, v, out=v)


# Activation name (None for none) -> (forward, gradient from the output
# gradient g and the activated output). relu has subgradient 0 at 0.
# Each forward overwrites the array it is given and returns it, so pass it
# only an array the op owns, such as its own fresh correlation output.
_ACTIVATIONS = {
    None: (lambda v: v, lambda g, out: g),
    "relu": (lambda v: np.maximum(v, 0.0, out=v), lambda g, out: g * (out > 0.0)),
    "sigmoid": (_sigmoid, lambda g, out: g * out * (1.0 - out)),
    "tanh": (lambda v: np.tanh(v, out=v), lambda g, out: g * (1.0 - out * out)),
}


# ---------------------------------------------------------------------------
# Convolution


# Every correlation reads its input from one flat zero-padded buffer: for
# (C,H,W) and padding p = (k-1)//2, the rows of the padded (H+2p)x(W+2p)
# image laid end to end, plus 2p trailing zeros so that the last run fits.
# In it, tap (dy, dx) of every output pixel is one contiguous run
# flat[:, o:o+H*(W+2p)] with o = dy*(W+2p)+dx: position y*(W+2p)+x of the
# run holds the tap of output pixel (y, x) for x < W, and the last 2p
# positions of each row are junk columns, dropped from every output. The
# center run (dy = dx = p) is the input itself with zeros in the junk
# columns, which is how a weight gradient masks them.
#
# The forward copies the runs (an im2col) and multiplies them in bands of
# output rows, so its transient is O(W*C) per layer, not O(H*W*C). The
# input gradient is one GEMM over the im2col of the whole output gradient
# g. The weight gradient never builds an im2col of its own: it reuses
# that im2col of g or, where the input needs no gradient, multiplies the
# input's runs in place. The backward is not banded because the weight
# gradient sums over every pixel, and bands would reorder that sum.
#
# Output rows per forward band. At 16, a band's im2col is C*k*k x
# 16*(W+2p), and the banded product matched the one-GEMM product bit for
# bit on every probe (64x64 in float32 and float64, 260x346 float64,
# 17x23 float32 with k=5). BLAS may round a column differently when one
# call gets fewer columns: 4-row bands moved float32 outputs of 16x16
# networks past a relative 1e-9, so the height must not go lower.
#
# The second CPU. Where the process may run on at least two CPUs, one
# worker thread, made once, runs the later half of a forward's bands
# (each its own im2col, GEMM and store into its own rows of the output)
# while the caller runs the earlier half. In a backward it builds the
# input's center run and runs the weight-gradient GEMM into an array the
# caller made, while the caller runs the input gradient's GEMM. Every
# GEMM keeps its operands and shape, so the outputs are bit-identical to
# a one-CPU run, which does the same work on the caller. The worker only
# copies arrays and calls np.matmul, which release the GIL: it never runs
# an op, a traced function or a correlation, so a task it runs cannot
# wait on one queued behind it. Each thread allocates its own band, so a
# forward holds up to two band im2cols at once. A 32->32 correlation at
# 64x64, medians of 200 calls on two shared cores at one BLAS thread:
# float64 forward 2.9 -> 1.7 ms, backward 5.4 -> 3.6 ms; float32 1.6 ->
# 1.0 ms and 2.9 -> 1.9 ms.
_BAND_ROWS = 16


def _new_worker() -> None:
    """Make the worker where the process may run on at least two CPUs, or
    leave none; the pool starts its thread at the first task, not here."""
    global _WORKER
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    _WORKER = ThreadPoolExecutor(1, thread_name_prefix="evssl-correlate") if cpus >= 2 else None


_new_worker()
# A forked child has no thread behind its copy of the pool, so a task
# queued there would never run: the child makes a worker of its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_worker)


def _start(task, *args):
    """Start task(*args) on the worker and return a call that waits for it
    and raises what it raised; with no worker, run it here and now. task may
    only copy and multiply. Callers wait in a `finally`, so no task outlives
    the call that started it."""
    if _WORKER is None:
        task(*args)
        return lambda: None
    return _WORKER.submit(task, *args).result


def _runs(blocks, k: int, dtype) -> np.ndarray:
    """Read-only view (C, k, k, H*(W+2p)) of a new flat buffer of `dtype`
    holding the channel stack of blocks (each (C_i,H,W)), cast as it is
    copied in: [:, dy, dx] is the run of tap (dy, dx)."""
    p, (h, w) = k // 2, blocks[0].shape[1:]
    hp, wp = h + 2 * p, w + 2 * p
    flat = np.zeros((sum(len(b) for b in blocks), hp * wp + 2 * p), dtype)
    np.concatenate(blocks, out=flat[:, :hp * wp].reshape(-1, hp, wp)[:, p:p + h, p:p + w])
    s0, s1 = flat.strides
    return np.lib.stride_tricks.as_strided(flat, (len(flat), k, k, h * wp),
                                           (s0, wp * s1, s1, s1), writeable=False)


def _drop_junk(out: np.ndarray, w: int, k: int) -> np.ndarray:
    """A GEMM output over the runs, (N, H*(W+2p)), as an (N,H,W) view
    without its junk columns."""
    return out.reshape(len(out), -1, w + k - 1)[:, :, :w]


def _correlate(blocks, w: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 correlation of the channel stack of blocks
    (C_in,H,W) with w (C_out,C_in,k,k), in w's dtype: one im2col and one
    GEMM per band of at most _BAND_ROWS output rows."""
    c_out, _, k, _ = w.shape
    h, width = blocks[0].shape[1:]
    wp = width + k - 1
    runs, wm = _runs(blocks, k, w.dtype), w.reshape(c_out, -1)
    out = np.empty((c_out, h, width), w.dtype)

    def bands(starts):
        for y in starts:
            rows = min(_BAND_ROWS, h - y)
            # The reshape copies this band of every run, the band's im2col,
            # which is freed as soon as the GEMM returns.
            band = wm @ runs[..., y * wp:(y + rows) * wp].reshape(-1, rows * wp)
            out[:, y:y + rows] = _drop_junk(band, width, k)

    starts = range(0, h, _BAND_ROWS)
    mine = (len(starts) + 1) // 2
    wait = _start(bands, starts[mine:]) if mine < len(starts) else lambda: None
    try:
        bands(starts[:mine])
    finally:
        wait()
    return out


def _center_product(cols: np.ndarray, blocks, k: int, out: np.ndarray) -> None:
    """cols @ (the center run of blocks).T into out, the weight gradient
    before its taps are flipped back: weight tap (dy, dx) sums g at run
    position i times the input at i + dy*(W+2p) + dx. Shifted by the offset
    of the flipped tap (k-1-dy, k-1-dx), that is g's run of the flipped tap
    (a row block of cols) times the input's center run, whose zeros mask
    the junk columns. The center's buffer is made and freed here, on the
    thread that multiplies it."""
    center = _runs(blocks, k, out.dtype)[:, k // 2, k // 2]
    np.matmul(cols, center.T, out=out)


def _correlate_grads(blocks, w: np.ndarray, g: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Weight and input gradients of `_correlate(blocks, w)` from its output
    gradient g (C_out,H,W), both from one im2col of g, in w's dtype. With
    blocks None the weight needs no gradient: it comes out None, and only
    the input's is computed."""
    c_out, c_in, k, _ = w.shape
    cols = _runs([g], k, w.dtype).reshape(c_out * k * k, -1)  # copied: the im2col of g
    w_grad, wait = None, lambda: None
    if blocks is not None:
        w_grad = np.empty((len(cols), c_in), w.dtype)
        wait = _start(_center_product, cols, blocks, k, w_grad)
    try:
        # Transposed convolution: g correlated with the flipped kernel, input
        # and output channels swapped.
        x_grad = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1) @ cols
        del cols  # dropped once read, before the next buffer is made
    finally:
        wait()
    if w_grad is not None:
        w_grad = w_grad.reshape(c_out, k, k, c_in)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        w_grad = np.ascontiguousarray(w_grad)
    return w_grad, np.ascontiguousarray(_drop_junk(x_grad, g.shape[2], k))


def _correlate_weight_grad(x: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    # The weight gradient of an input that needs no gradient, so that no
    # im2col of g is built: one GEMM per tap of the input's run, in place,
    # against g with zeros in the junk columns. The input channels are the
    # GEMM's rows because two BLAS threads split that orientation better.
    # It comes out in g's dtype.
    runs = _runs([x], k, g.dtype)
    g = _runs([g], k, g.dtype)[:, k // 2, k // 2]
    grad = np.stack([runs[:, dy, dx] @ g.T for dy in range(k) for dx in range(k)], axis=-1)
    return grad.transpose(1, 0, 2).reshape(len(g), len(x), k, k)


def _kernel_shape(weight: Tensor) -> tuple[int, int, int]:
    """(C_out, C_in, k) of a square k*k kernel with k in {1, 3, 5}."""
    c_out, c_in, k, k2 = weight.shape
    if k != k2 or k not in (1, 3, 5):
        raise ValueError(f"kernel must be square with k in {{1,3,5}}, got {k}x{k2}")
    return c_out, c_in, k


def conv2d(x, weight, bias=None, activation: str | None = None, skip=None) -> Tensor:
    """Stride-1 2-D cross-correlation; input C_in*H*W, weight C_out*C_in*k*k.

    Zero padding of (k-1)//2 keeps the spatial size. `skip`, a tensor of the
    output's shape, is added before the activation (a residual connection).
    `activation` ("relu", "sigmoid" or "tanh") is applied in the same node,
    which then stores only the activated output. The output and every
    gradient are in the weight's dtype.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    bias = _as_tensor(bias) if bias is not None else None
    skip = _as_tensor(skip) if skip is not None else None
    c_out, c_in, k = _kernel_shape(weight)
    if x.ndim != 3 or x.shape[0] != c_in:
        raise ValueError(f"channel mismatch: input {x.shape} vs weight {weight.shape}")
    if bias is not None and bias.shape != (c_out,):
        raise ValueError(f"bias shape {bias.shape} != ({c_out},)")
    if skip is not None and skip.shape != (c_out, *x.shape[1:]):
        raise ValueError(f"skip shape {skip.shape} != output shape {(c_out, *x.shape[1:])}")
    if activation not in _ACTIVATIONS:
        raise ValueError(f"activation must be None, relu, sigmoid or tanh, got {activation!r}")

    # Cast as _runs would cast it, so that a float64 input under float32
    # weights is not what the node keeps.
    xd = x.data.astype(weight.data.dtype, copy=False)
    out = _correlate([xd], weight.data)  # a fresh array: bias, skip and activation go in place
    if bias is not None:
        out += bias.data[:, None, None]
    if skip is not None:
        out += skip.data
    act, act_grad = _ACTIVATIONS[activation]
    out = act(out)

    rx, rw = x.requires_grad, weight.requires_grad
    rb, rs = bias is not None and bias.requires_grad, skip is not None and skip.requires_grad
    dtype = out.dtype
    kept_out = out if activation is not None else None  # the identity's gradient reads none
    xd = xd if rw else None                  # read by the weight gradient only
    wd = weight.data if rx else None         # read by the input gradient only

    def backward(g):
        g = act_grad(g.astype(dtype, copy=False), kept_out)
        w_grad = x_grad = None
        if rx:
            w_grad, x_grad = _correlate_grads([xd] if rw else None, wd, g)
        elif rw:
            w_grad = _correlate_weight_grad(xd, g, k)
        return (x_grad, w_grad, g.reshape(c_out, -1).sum(axis=1) if rb else None,
                g if rs else None)

    return Tensor._from_op(out, (x, weight, bias, skip), backward)


def conv_gru(x, h, update_weight, update_bias, reset_weight, reset_bias,
             candidate_weight, candidate_bias) -> Tensor:
    """One convolutional GRU step: h' = (1-z)*h + z*c, where
    z = sigmoid(W_z*[h,x] + b_z), r = sigmoid(W_r*[h,x] + b_r) and
    c = tanh(W_c*[r*h,x] + b_c), each * a same-padded conv2d correlation.

    x is C_x*H*W and h is C*H*W; every weight is C*(C+C_x)*k*k and every
    bias (C,). Both gates come from one correlation over their stacked
    weights. The node keeps only [z; r] and c: backward rebuilds [h,x] and
    [r*h,x] from x and h, stacked straight into their padded buffers. The
    new state and every gradient are in the weights' dtype.
    """
    x, h = _as_tensor(x), _as_tensor(h)
    params = tuple(_as_tensor(t) for t in (update_weight, update_bias, reset_weight,
                                           reset_bias, candidate_weight, candidate_bias))
    wz, bz, wr, br, wc, bc = params
    c, c_in, k = _kernel_shape(wz)
    if wr.shape != wz.shape or wc.shape != wz.shape:
        raise ValueError(f"gate weights {wz.shape}, {wr.shape} and {wc.shape} differ")
    if any(b.shape != (c,) for b in (bz, br, bc)):
        raise ValueError(f"bias shapes {bz.shape}, {br.shape}, {bc.shape} != ({c},)")
    if h.ndim != 3 or h.shape[0] != c or x.shape != (c_in - c, *h.shape[1:]):
        raise ValueError(f"state {h.shape} and input {x.shape} do not fit weights {wz.shape}")

    sigmoid, sigmoid_grad = _ACTIVATIONS["sigmoid"]
    tanh, tanh_grad = _ACTIVATIONS["tanh"]
    hd = h.data.astype(wz.data.dtype, copy=False)  # read outside the buffers too
    # Biases and activations go in place, so the state keeps the weights' dtype.
    zr = _correlate([hd, x.data], np.concatenate([wz.data, wr.data]))
    zr += np.concatenate([bz.data, br.data])[:, None, None]
    zr = sigmoid(zr)
    z, r = zr[:c], zr[c:]
    cand = _correlate([r * hd, x.data], wc.data)
    cand += bc.data[:, None, None]
    cand = tanh(cand)
    out = z * cand
    out += (1.0 - z) * hd

    xd, wzd, wrd, wcd, dtype = x.data, wz.data, wr.data, wc.data, out.dtype

    def backward(g):
        g = g.astype(dtype, copy=False)
        z, r = zr[:c], zr[c:]
        g_cand = tanh_grad(g * z, cand)
        g_wc, g_rhx = _correlate_grads([r * hd, xd], wcd, g_cand)
        g_zr = sigmoid_grad(np.concatenate([g * cand - g * hd, g_rhx[:c] * hd]), zr)
        g_wzr, g_hx = _correlate_grads([hd, xd], np.concatenate([wzd, wrd]), g_zr)
        g_bzr = g_zr.reshape(2 * c, -1).sum(axis=1)
        return (g_rhx[c:] + g_hx[c:],
                g * (1.0 - z) + g_rhx[:c] * r + g_hx[:c],
                g_wzr[:c], g_bzr[:c], g_wzr[c:], g_bzr[c:],
                g_wc,
                g_cand.reshape(c, -1).sum(axis=1))

    return Tensor._from_op(out, (x, h) + params, backward)


# ---------------------------------------------------------------------------
# Bilinear sampling / splatting


def _constant(name: str, a) -> np.ndarray:
    if isinstance(a, Tensor):
        raise TypeError(f"{name} must be a constant array; a Tensor gets no gradient")
    return np.asarray(a, dtype=np.float64)


def _corners(xs: np.ndarray, ys: np.ndarray, h: int, w: int):
    """Per bilinear corner of positions in an (h, w) frame: the in-frame mask,
    the flat pixel index and the weight, both 0 out of frame; plus fx, fy."""
    x0, y0 = np.floor(xs), np.floor(ys)
    fx, fy = xs - x0, ys - y0
    x0, y0 = x0.astype(np.int64), y0.astype(np.int64)
    # In frame per axis, for offsets 0 and 1; the corners' flat indices are
    # base + {0, 1, W, W+1}.
    x_ok = ((x0 >= 0) & (x0 < w), (x0 >= -1) & (x0 < w - 1))
    y_ok = ((y0 >= 0) & (y0 < h), (y0 >= -1) & (y0 < h - 1))
    base = y0 * w + x0
    corners = []
    for dx, dy, cw in ((0, 0, (1.0 - fx) * (1.0 - fy)),
                       (1, 0, fx * (1.0 - fy)),
                       (0, 1, (1.0 - fx) * fy),
                       (1, 1, fx * fy)):
        ok = x_ok[dx] & y_ok[dy]
        corners.append((ok, np.where(ok, base + (dy * w + dx), 0), np.where(ok, cw, 0.0)))
    return corners, fx, fy


def _scatter(idx: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Add each row of values (C,N) at flat pixel indices idx (N,) into its
    own image of `size` pixels: one bincount over row-offset indices."""
    c = values.shape[0]
    flat = ((np.arange(c) * size)[:, None] + idx).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=c * size).reshape(c, size)


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

    # After clamping, a corner past the last pixel has weight 0, so dropping
    # it replicates the border.
    gx = np.clip(grid[0], 0.0, w - 1.0).ravel()
    gy = np.clip(grid[1], 0.0, h - 1.0).ravel()
    corners, _, _ = _corners(gx, gy, h, w)

    flat = image.data.reshape(c, -1)
    out = sum(wt * np.take(flat, idx, axis=1) for _, idx, wt in corners).reshape(c, *out_shape)

    def backward(g):
        gf = g.reshape(c, -1)
        corners, _, _ = _corners(gx, gy, h, w)
        grad = sum(_scatter(idx, gf * wt, h * w) for _, idx, wt in corners)
        return (grad.reshape(c, h, w),)

    return Tensor._from_op(out, (image,), backward)


def bilinear_splat(values, pos, shape: tuple[int, int]) -> Tensor:
    """Scatter-add constant values (C,N) at N continuous positions pos (2,N)
    of (x, y) into a (C,H,W) image, one channel per row.

    Each value is spread over the four neighbouring pixels with bilinear
    corner weights; corners falling outside the frame are dropped.
    Differentiable with respect to the positions only.
    """
    values, pos = _constant("values", values), _as_tensor(pos)
    if values.ndim != 2 or pos.shape != (2, values.shape[1]):
        raise ValueError("values must be (C,N) and pos (2,N)")
    h, w = shape
    xs, ys = pos.data
    corners, _, _ = _corners(xs, ys, h, w)
    out = sum(_scatter(idx, values * wt, h * w) for _, idx, wt in corners).reshape(-1, h, w)

    def backward(g):
        gf = g.reshape(values.shape[0], -1)
        corners, fx, fy = _corners(xs, ys, h, w)
        g00, g10, g01, g11 = (np.where(ok, np.take(gf, idx, axis=1), 0.0)
                              for ok, idx, _ in corners)
        gx = values * ((1.0 - fy) * (g10 - g00) + fy * (g11 - g01))
        gy = values * ((1.0 - fx) * (g01 - g00) + fx * (g11 - g10))
        return (np.stack([gx.sum(axis=0), gy.sum(axis=0)]),)

    return Tensor._from_op(out, (pos,), backward)


def gather_pixels(field, iy: np.ndarray, ix: np.ndarray) -> Tensor:
    """Read field (C,H,W) at integer pixel indices iy, ix of one shape S
    into (C,*S); differentiable in field.

    Every index must lie inside the frame: 0 <= iy < H and 0 <= ix < W.
    A flat index would silently read another pixel for ix = W or -1, and
    numpy would broadcast indices of different shapes, so non-integer,
    mismatched and out-of-frame indices raise ValueError.
    """
    field = _as_tensor(field)
    c, h, w = field.shape
    iy, ix = np.asarray(iy), np.asarray(ix)
    if iy.dtype.kind not in "iu" or ix.dtype.kind not in "iu":
        raise ValueError(f"pixel indices must be integers, got {iy.dtype} and {ix.dtype}")
    if iy.shape != ix.shape:
        raise ValueError(f"pixel indices differ in shape: {iy.shape} and {ix.shape}")
    if iy.size and (iy.min() < 0 or iy.max() >= h or ix.min() < 0 or ix.max() >= w):
        raise ValueError(f"pixel index outside the {h}x{w} frame")
    idx = iy * w + ix
    data = np.take(field.data.reshape(c, -1), idx, axis=1)

    def backward(g):
        return (_scatter(idx.ravel(), g.reshape(c, -1), h * w).reshape(c, h, w),)

    return Tensor._from_op(data, (field,), backward)


# ---------------------------------------------------------------------------
# Reductions


def tsum(x) -> Tensor:
    x = _as_tensor(x)
    shape, dtype = x.shape, x.data.dtype
    return Tensor._from_op(np.asarray(x.data.sum()), (x,),
                           lambda g: (np.full(shape, float(g), dtype),))


def sum_of_squares(x) -> Tensor:
    return _unary(x, lambda v: np.asarray((v * v).sum()), lambda g, x_: 2.0 * x_ * float(g))
