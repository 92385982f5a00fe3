"""The three evssl benchmark workloads.

Each workload builds its inputs from the seed, sets up (scene synthesis,
an EVT1 write and read, partitioning, a network initialized through a
CKP1 write and read), runs a closed loop with one client for at least the
requested seconds, and then scores held-out output. Every output check
counts as one attempted operation in a `Tally`.

- flow_train: the program's own `train_flow` on sparse checkerboard
  partitions. Dominated by conv2d forward and backward.
- recon_unroll: the program's own `train_recon` over S=20 windows with
  the ground-truth flow provider. The only user of ConvGRU,
  `bilinear_sample` and a long unrolled backward; sets peak memory.
- stream_infer: reads a dense EVT1 recording and runs the FireFlowNet
  forward pass, FWL and AEE on every partition. No backward, no Adam, so
  warp and splat are a large share of its time.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import tempfile
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from evssl import events, geometry, losses, metrics, networks, synth, training
from evssl.events import SensorGeometry

BINS = 5
TIMESTEP = 1e-3  # synthetic generation step, seconds
# Scene speeds of the test suite's canonical scenes, |(32, 40)| and
# |(16, 20)| px/s; only the direction comes from the seed.
CHECKER_SPEED = 51.2
BLOB_SPEED = 25.6
# Low contrast threshold: ~4 events per pixel fill a partition spanning
# about as much motion as the sparse flow_train partitions.
STREAM_CONTRAST = 0.125
# Past the budget a run only measures; it stops here even if the
# budget was never reached (for instance because every window was skipped).
OVERTIME_S = 60.0

OFF_MASK = "FireFlowNet output is non-zero off the event mask"


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the workloads; `FULL` is what the benchmark measures."""

    side: int = 64
    setup_repeats: int = 3
    flow_duration: float = 2.0
    flow_density: float = 0.5       # events per pixel in a partition
    flow_heldout: int = 4           # partitions scored after training
    flow_sequence: int = 4          # partitions per augmentation draw
    flow_budget: int = 120          # Adam updates before the quality snapshot
    recon_duration: float = 3.0
    recon_density: float = 0.3
    unroll: int = 20                # S
    tc_start: int = 10              # S0
    recon_windows: int = 3          # distinct training windows, at most
    recon_tail: int = 12            # held-out partitions
    recon_warmup: int = 4           # tail steps before frames are scored
    recon_budget: int = 4           # windows before the quality snapshot
    stream_duration: float = 1.2
    stream_density: float = 4.0


FULL = Sizes()
TINY = Sizes(side=32, setup_repeats=2, flow_duration=0.5, flow_heldout=2,
             flow_budget=3, recon_duration=0.6, unroll=2, tc_start=1,
             recon_windows=2, recon_tail=4, recon_warmup=1, recon_budget=2,
             stream_duration=0.3, stream_density=1.0)


class Tally:
    """Operations attempted and failed; each output check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.add(what, 1, 0 if ok else 1)
        return bool(ok)

    def add(self, what: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failures.extend([what] * failed)


@dataclass
class Result:
    setup_s: float
    step_ms: list[float]
    loop_s: float
    events: int                     # consumed by the timed loop
    events_generated: int           # by synthesis, in all set-ups
    bytes_read: int                 # EVT1 bytes read, whole run
    quality: dict[str, tuple[float, str]] = field(default_factory=dict)
    references: dict[str, tuple[float, str]] = field(default_factory=dict)


def _phase(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _velocity(rng: np.random.Generator, speed: float) -> tuple[float, float]:
    # Diagonal-ish in any quadrant, so both flow components are observable.
    angle = rng.uniform(np.pi / 6, np.pi / 3) + np.pi / 2 * int(rng.integers(4))
    return speed * float(np.cos(angle)), speed * float(np.sin(angle))


def checker_scene(rng, side: int, contrast: float, duration: float) -> synth.SyntheticScene:
    geom = SensorGeometry(side, side)
    period = side // 4
    shift = tuple(int(s) for s in rng.integers(period, size=2))
    base = np.roll(synth.checkerboard(geom, period), shift, axis=(0, 1))
    return synth.SyntheticScene(geom, base, _velocity(rng, CHECKER_SPEED),
                                contrast=contrast, duration=duration)


def blob_scene(rng, side: int, duration: float) -> synth.SyntheticScene:
    geom = SensorGeometry(side, side)
    base = synth.gaussian_blobs(geom, count=20, sigma=4.0, amplitude=2.0, rng=rng)
    return synth.SyntheticScene(geom, base, _velocity(rng, BLOB_SPEED),
                                contrast=0.35, duration=duration)


class _SetUp:
    """Shared set-up steps; every call is repeated `setup_repeats` times."""

    def __init__(self, workdir: str, tally: Tally):
        self.workdir = workdir
        self.tally = tally
        self.events_generated = 0
        self.bytes_read = 0

    def recording(self, scene: synth.SyntheticScene) -> tuple[str, events.EventStream]:
        """Synthesize the scene, write it as EVT1 and read it back."""
        stream = synth.generate_events(scene, TIMESTEP)
        self.events_generated += len(stream)
        path = os.path.join(self.workdir, "events.evt1")
        events.write_binary_events(path, scene.geometry, stream)
        back = self.read(path, scene.geometry)
        self.tally.check(all(np.array_equal(getattr(back, c), getattr(stream, c))
                             for c in "txyp"),
                         "EVT1 columns read back differ from the generated stream")
        return path, back

    def read(self, path: str, geom: SensorGeometry) -> events.EventStream:
        self.bytes_read += os.path.getsize(path)
        return events.read_binary_events(path, geom)

    def partitions(self, stream: events.EventStream, n: int) -> list[events.EventPartition]:
        parts = events.partition_by_count(stream, n)
        self.tally.check(len(parts) == len(stream) // n,
                         "partition count differs from floor(events / N)")
        return [events.normalize_timestamps(p) for p in parts]

    def network(self, make_net, seed: int):
        """Seeded network written as CKP1 and read back into a fresh one."""
        net = make_net()
        networks.init_parameters(net, np.random.default_rng([seed, 1]))
        path = os.path.join(self.workdir, "net.ckp1")
        training.save_checkpoint(path, training.network_state(net))
        tensors, _ = training.load_checkpoint(path)
        loaded = make_net()
        training.load_network_state(loaded, tensors)
        self.tally.check(all(np.array_equal(a.data, b.data)
                             for a, b in zip(net.parameters(), loaded.parameters())),
                         "CKP1 parameters read back differ")
        return loaded


def _repeat_setup(build, repeats: int):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        products = build()
        times.append(time.perf_counter() - t0)
    return products, statistics.median(times)


class StepClock:
    """Timestamps every Adam update of the program's own training loop and
    keeps a copy of the parameters after update `budget`."""

    def __init__(self, budget: int):
        self.budget = budget
        self.marks: list[float] = []
        self.snapshot: dict[str, np.ndarray] | None = None

    @contextlib.contextmanager
    def installed(self):
        clock = self
        base = training.Adam

        class ClockedAdam(base):
            def step(self):
                super().step()
                clock.marks.append(time.perf_counter())
                if self.step_count == clock.budget:
                    clock.snapshot = {p.name: p.data.copy() for p in self.params}

        training.Adam = ClockedAdam
        try:
            yield self
        finally:
            training.Adam = base

    def step_ms(self, start: float) -> list[float]:
        return list(np.diff([start] + self.marks) * 1e3)


class ClosedLoopFeed:
    """Training data handed to the program one sequence at a time.

    The program asks for the next sequence only when it has finished the
    previous one. Sequences cycle until the run has lasted `seconds` and
    the clock has seen its budget of updates.
    """

    def __init__(self, sequences, clock: StepClock, seconds: float):
        self.sequences = sequences
        self.clock = clock
        self.seconds = seconds
        self.fed = 0
        self.events = 0

    def __iter__(self):
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            budget_met = len(self.clock.marks) >= self.clock.budget
            if elapsed >= self.seconds and (budget_met or elapsed >= self.seconds + OVERTIME_S):
                return
            seq = self.sequences[self.fed % len(self.sequences)]
            self.fed += 1
            self.events += sum(len(p) for p in seq)
            yield seq


def _check_losses(curve, tally: Tally) -> None:
    for _, report in curve:
        values = [report.total, *report.terms.values()]
        tally.check(all(np.isfinite(v) for v in values), "non-finite loss")


def _predict_flows(net, parts, tally: Tally) -> tuple[list[np.ndarray], list[np.ndarray]]:
    flows, masks = [], []
    for part in parts:
        voxel = geometry.build_voxel_grid(part, BINS)
        mask = geometry.event_mask(voxel)
        flow = net(voxel, mask).data
        tally.check(not flow[:, ~mask].any(), OFF_MASK)
        flows.append(flow)
        masks.append(mask)
    return flows, masks


def _flow_scores(scene, parts, flows, masks) -> tuple[float, float, float]:
    """Mean AEE (px), outlier % and FWL over the partitions."""
    rows = []
    for part, flow, mask in zip(parts, flows, masks):
        gt = synth.ground_truth_flow(scene, part)
        aee, outliers = metrics.flow_metrics(flow, gt, mask)
        rows.append((aee, outliers, geometry.fwl(part, flow)))
    return tuple(float(v) for v in np.mean(rows, axis=0))


def _flow_references(scene, parts, init_flows, masks) -> dict[str, tuple[float, str]]:
    zero = [np.zeros_like(f) for f in init_flows]
    gt = [synth.ground_truth_flow(scene, p).as_array() for p in parts]
    return {
        "aee_px.zero_flow": (_flow_scores(scene, parts, zero, masks)[0], "px"),
        "aee_px.random_init": (_flow_scores(scene, parts, init_flows, masks)[0], "px"),
        "fwl.ground_truth": (_flow_scores(scene, parts, gt, masks)[2], "1"),
    }


def flow_train(seed: int, seconds: float, sizes: Sizes, tally: Tally, workdir: str,
               tracer=None) -> Result:
    setup = _SetUp(workdir, tally)

    def build():
        scene = checker_scene(np.random.default_rng([seed, 0]), sizes.side, 1.0,
                              sizes.flow_duration)
        _, stream = setup.recording(scene)
        parts = setup.partitions(
            stream, events.events_per_pixel_count(scene.geometry, sizes.flow_density))
        return scene, parts, setup.network(lambda: networks.FireFlowNet(bins=BINS), seed)

    with _phase(tracer, "setup"):
        (scene, parts, net), setup_s = _repeat_setup(build, sizes.setup_repeats)
    train, heldout = parts[:-sizes.flow_heldout], parts[-sizes.flow_heldout:]
    sequences = [train[i:i + sizes.flow_sequence]
                 for i in range(0, len(train), sizes.flow_sequence)]
    init_state = {k: v.copy() for k, v in training.network_state(net).items()}
    config = training.TrainConfig(epochs=1, seed=seed, bins=BINS)
    clock = StepClock(sizes.flow_budget)
    feed = ClosedLoopFeed(sequences, clock, seconds)

    with _phase(tracer, "loop"), clock.installed():
        start = time.perf_counter()
        try:
            _, curve = training.train_flow(feed, config, net)
        except FloatingPointError:
            curve = []
            tally.check(False, "non-finite loss")
        loop_s = time.perf_counter() - start
    _check_losses(curve, tally)

    result = Result(setup_s, clock.step_ms(start), loop_s, feed.events,
                    setup.events_generated, setup.bytes_read)
    with _phase(tracer, "eval"):
        training.load_network_state(net, init_state)
        init_flows, masks = _predict_flows(net, heldout, tally)
        result.references = _flow_references(scene, heldout, init_flows, masks)
        if tally.check(clock.snapshot is not None, "training budget not reached"):
            training.load_network_state(net, clock.snapshot)
            flows, masks = _predict_flows(net, heldout, tally)
            aee, outliers, fwl = _flow_scores(scene, heldout, flows, masks)
            result.quality = {"aee_px": (aee, "px"), "outlier_pct": (outliers, "%"),
                              "fwl": (fwl, "1")}
    return result


def _gt_frames(scene, tail, warmup: int) -> list[np.ndarray]:
    return [losses.normalize_intensity(synth.ground_truth_frame(scene, int(p.t[-1])))
            for p in tail[warmup:]]


def _recon_scores(net, tail, gt_frames) -> tuple[float, float]:
    """Mean MSE and SSIM of the normalized frames against `gt_frames`, which
    cover the last steps of the tail."""
    state = None
    images = []
    for part in tail:
        image, state = net(geometry.build_voxel_grid(part, BINS), state)
        images.append(losses.normalize_intensity(image.data))
    rows = [metrics.frame_metrics(image, gt)
            for image, gt in zip(images[len(tail) - len(gt_frames):], gt_frames)]
    return tuple(float(v) for v in np.mean(rows, axis=0))


def recon_unroll(seed: int, seconds: float, sizes: Sizes, tally: Tally, workdir: str,
                 tracer=None) -> Result:
    setup = _SetUp(workdir, tally)
    window = sizes.unroll + 1

    def build():
        scene = blob_scene(np.random.default_rng([seed, 0]), sizes.side,
                           sizes.recon_duration)
        _, stream = setup.recording(scene)
        parts = setup.partitions(
            stream, events.events_per_pixel_count(scene.geometry, sizes.recon_density))
        return scene, parts, setup.network(lambda: networks.ReconNet(bins=BINS), seed)

    with _phase(tracer, "setup"):
        (scene, parts, net), setup_s = _repeat_setup(build, sizes.setup_repeats)
    n_windows = min(sizes.recon_windows, (len(parts) - sizes.recon_tail) // window)
    if not tally.check(n_windows >= 1, "scene too short for one unroll window"):
        raise RuntimeError("scene too short for one unroll window")
    windows = [parts[i * window:(i + 1) * window] for i in range(n_windows)]
    tail = parts[-sizes.recon_tail:]
    init_state = {k: v.copy() for k, v in training.network_state(net).items()}
    config = training.TrainConfig(epochs=1, seed=seed, bins=BINS,
                                  unroll_steps=sizes.unroll, tc_start_step=sizes.tc_start)
    clock = StepClock(sizes.recon_budget)
    feed = ClosedLoopFeed(windows, clock, seconds)

    with _phase(tracer, "loop"), clock.installed(), warnings.catch_warnings():
        # A skipped sequence is counted below from the update count.
        warnings.simplefilter("ignore")
        start = time.perf_counter()
        try:
            curve = training.train_recon(
                feed, config, flow_provider=training.GroundTruthFlowProvider(scene),
                recon_net=net).curve
        except FloatingPointError:
            curve = []
            tally.check(False, "non-finite loss")
        loop_s = time.perf_counter() - start
    _check_losses(curve, tally)
    # Every window fills exactly one unroll, so each yields one update.
    tally.add("sequence skipped", feed.fed, max(feed.fed - len(curve), 0))

    result = Result(setup_s, clock.step_ms(start), loop_s, feed.events,
                    setup.events_generated, setup.bytes_read)
    with _phase(tracer, "eval"):
        gt_frames = _gt_frames(scene, tail, sizes.recon_warmup)
        gray = np.full(gt_frames[0].shape, 0.5)
        mse_gray, ssim_gray = np.mean([metrics.frame_metrics(gray, gt) for gt in gt_frames],
                                      axis=0)
        training.load_network_state(net, init_state)
        mse_init, ssim_init = _recon_scores(net, tail, gt_frames)
        result.references = {"recon_mse.random_init": (mse_init, "1"),
                             "recon_ssim.random_init": (ssim_init, "1"),
                             "recon_mse.mid_gray": (float(mse_gray), "1"),
                             "recon_ssim.mid_gray": (float(ssim_gray), "1")}
        if tally.check(clock.snapshot is not None, "training budget not reached"):
            training.load_network_state(net, clock.snapshot)
            mse, ssim = _recon_scores(net, tail, gt_frames)
            result.quality = {"recon_mse": (mse, "1"), "recon_ssim": (ssim, "1")}
    return result


def stream_infer(seed: int, seconds: float, sizes: Sizes, tally: Tally, workdir: str,
                 tracer=None) -> Result:
    setup = _SetUp(workdir, tally)

    def build():
        scene = checker_scene(np.random.default_rng([seed, 0]), sizes.side,
                              STREAM_CONTRAST, sizes.stream_duration)
        path, stream = setup.recording(scene)
        n = events.events_per_pixel_count(scene.geometry, sizes.stream_density)
        setup.partitions(stream, n)
        return scene, path, n, setup.network(lambda: networks.FireFlowNet(bins=BINS), seed)

    with _phase(tracer, "setup"):
        (scene, path, n, net), setup_s = _repeat_setup(build, sizes.setup_repeats)
    geom = scene.geometry
    step_ms: list[float] = []
    consumed = 0
    first_pass = None

    with _phase(tracer, "loop"):
        start = time.perf_counter()
        while True:
            # One pass over the recording; its read and partitioning are
            # shared evenly by the partitions it yields.
            t0 = time.perf_counter()
            stream = setup.read(path, geom)
            parts = events.partition_by_count(stream, n)
            if not tally.check(len(parts) == len(stream) // n and parts,
                               "partition count differs from floor(events / N)"):
                break
            shared = (time.perf_counter() - t0) / len(parts)
            scores = []
            for part in parts:
                t0 = time.perf_counter()
                part = events.normalize_timestamps(part)
                voxel = geometry.build_voxel_grid(part, BINS)
                mask = geometry.event_mask(voxel)
                flow = net(voxel, mask).data
                tally.check(not flow[:, ~mask].any(), OFF_MASK)
                aee, outliers = metrics.flow_metrics(
                    flow, synth.ground_truth_flow(scene, part), mask)
                scores.append((aee, outliers, geometry.fwl(part, flow)))
                step_ms.append((time.perf_counter() - t0 + shared) * 1e3)
                consumed += len(part)
            if first_pass is None:
                first_pass = scores
            else:
                tally.check(scores == first_pass,
                            "inference on the same recording gave different metrics")
            if time.perf_counter() - start >= seconds:
                break
        loop_s = time.perf_counter() - start

    result = Result(setup_s, step_ms, loop_s, consumed, setup.events_generated,
                    setup.bytes_read)
    if first_pass:
        aee, outliers, fwl = (float(v) for v in np.mean(first_pass, axis=0))
        result.quality = {"aee_px": (aee, "px"), "outlier_pct": (outliers, "%"),
                          "fwl": (fwl, "1")}
        with _phase(tracer, "eval"):
            parts = setup.partitions(setup.read(path, geom), n)
            gt = [synth.ground_truth_flow(scene, p).as_array() for p in parts]
            masks = [geometry.event_mask(geometry.build_voxel_grid(p, BINS)) for p in parts]
            result.references = {
                "aee_px.zero_flow": (_flow_scores(scene, parts, [np.zeros_like(g) for g in gt],
                                                  masks)[0], "px"),
                "fwl.ground_truth": (_flow_scores(scene, parts, gt, masks)[2], "1"),
            }
    return result


WORKLOADS = {"flow_train": flow_train, "recon_unroll": recon_unroll,
             "stream_infer": stream_infer}


def run(name: str, seed: int, seconds: float, sizes: Sizes, tally: Tally,
        outdir: str, tracer=None) -> Result:
    """Run one workload; its EVT1 and CKP1 files live in a temporary
    directory under `outdir` that is removed afterwards."""
    with tempfile.TemporaryDirectory(dir=outdir) as workdir:
        return WORKLOADS[name](seed, seconds, sizes, tally, workdir, tracer)
