"""Per-layer tracing of evssl from outside the package.

`Tracer.installed()` replaces the public functions of the evssl modules,
a few methods (network forward passes, `Adam.step`, `Tensor.backward`)
and the backward closures on the tensors that the wrapped autodiff ops
return, with wrappers that record one span per call. Nothing in the
package changes; leaving the context restores every original.

Spans are kept in memory as ``[name, start_ns, end_ns, parent]`` where
`parent` is the index of the enclosing span (-1 at top level), and are
written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# Span name -> (module, attribute). A function is replaced in every evssl
# module that holds it, because modules import each other's names.
FUNCTIONS = {
    "events.read_binary": ("events", "read_binary_events"),
    "events.write_binary": ("events", "write_binary_events"),
    "events.partition": ("events", "partition_by_count"),
    "events.normalize": ("events", "normalize_timestamps"),
    "events.augment": ("events", "apply_augmentation"),
    "synth.generate": ("synth", "generate_events"),
    "geometry.voxel": ("geometry", "build_voxel_grid"),
    "geometry.warp": ("geometry", "warp_events"),
    "geometry.splat_images": ("geometry", "accumulate_warped_images"),
    "geometry.fwl": ("geometry", "fwl"),
    "losses.contrast": ("losses", "contrast_loss"),
    "losses.reference_increment": ("losses", "reference_increment"),
    "losses.predicted_increment": ("losses", "predicted_increment"),
    "losses.temporal": ("losses", "temporal_loss"),
    "losses.tv": ("losses", "tv_loss"),
    "metrics.flow_metrics": ("metrics", "flow_metrics"),
    "metrics.frame_metrics": ("metrics", "frame_metrics"),
    "training.checkpoint_save": ("training", "save_checkpoint"),
    "training.checkpoint_load": ("training", "load_checkpoint"),
}

# Span name -> (module, class, method).
METHODS = {
    "networks.fireflownet.fwd": ("networks", "FireFlowNet", "__call__"),
    "networks.reconnet.fwd": ("networks", "ReconNet", "__call__"),
    "networks.convgru.fwd": ("networks", "ConvGRUCell", "__call__"),
    "training.adam_step": ("training", "Adam", "step"),
    "autodiff.backward": ("autodiff", "Tensor", "backward"),
}

# Autodiff ops traced as `<op>.fwd`, with their backward closure as `<op>.bwd`.
AUTODIFF_OPS = ("conv2d", "bilinear_sample", "bilinear_splat", "gather_pixels")

SPAN_NAMES = (tuple(FUNCTIONS) + tuple(METHODS)
              + tuple(f"autodiff.{op}.{d}" for op in AUTODIFF_OPS for d in ("fwd", "bwd")))

GRAPH_NODES = "autodiff.graph.nodes"


def _module(name: str):
    return sys.modules[f"evssl.{name}"]


class Tracer:
    """In-memory span recorder; also keeps the largest autodiff graph seen."""

    def __init__(self):
        self.spans: list[list] = []
        self.max_graph_nodes = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return traced

    def _wrap_op(self, op: str, fn):
        fwd = self.wrap(f"autodiff.{op}.fwd", fn)
        bwd_name = f"autodiff.{op}.bwd"

        def traced(*args, **kwargs):
            out = fwd(*args, **kwargs)
            if out._backward is not None:
                out._backward = self.wrap(bwd_name, out._backward)
            return out

        return traced

    def _count_nodes(self, fn):
        def counted(root):
            topo = fn(root)
            self.max_graph_nodes = max(self.max_graph_nodes, len(topo))
            return topo

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch the evssl package for the duration of the block."""
        patches = []  # (owner, attribute, original)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "evssl" or n.startswith("evssl.")]

        def replace_everywhere(original, replacement):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, replacement)

        try:
            for name, (mod, attr) in FUNCTIONS.items():
                fn = getattr(_module(mod), attr)
                replace_everywhere(fn, self.wrap(name, fn))
            ad = _module("autodiff")
            for op in AUTODIFF_OPS:
                fn = getattr(ad, op)
                replace_everywhere(fn, self._wrap_op(op, fn))
            for name, (mod, cls_name, attr) in METHODS.items():
                cls = getattr(_module(mod), cls_name)
                original = cls.__dict__[attr]
                patches.append((cls, attr, original))
                setattr(cls, attr, self.wrap(name, original))
            # The graph size is read where the engine sorts it, so counting
            # adds no traversal of its own.
            if hasattr(ad, "_toposort"):
                patches.append((ad, "_toposort", ad._toposort))
                ad._toposort = self._count_nodes(ad._toposort)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def summary(self, within: str | None = None) -> dict[str, dict]:
        """Per span name: calls, total and self time in ms.

        With `within`, only spans nested under a span of that name count.
        """
        children_ns = defaultdict(int)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children_ns[parent] += end - start
        inside = None
        if within is not None:
            inside = [False] * len(self.spans)
            for i, (name, _, _, parent) in enumerate(self.spans):
                inside[i] = parent >= 0 and (self.spans[parent][0] == within
                                              or inside[parent])
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if inside is not None and not inside[i]:
                continue
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - children_ns[i]) / 1e6
        return out
