"""evssl benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload flow_train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

A single workload prints its metrics by name and unit, the run metadata
and the output checks, then, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. Results (and
the spans of a traced run) are written to perfbench/out/.

`--workload all` runs every workload, untraced and then traced, each in a
fresh process and one at a time, and reports the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("flow_train", "recon_unroll", "stream_infer")
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
GEOMETRY = ("geometry.", "autodiff.bilinear_splat.", "autodiff.gather_pixels.")
# Idle OpenBLAS threads spin, so with two of them on a small machine any
# other load stalls every GEMM; one thread keeps step times steady.
BLAS_THREADS = "1"
# Layers that run only in set-up or only in scoring; every other layer is
# reported per step of the timed loop.
LAYER_PHASE = {"synth.generate": "setup", "events.write_binary": "setup",
               "training.checkpoint_save": "setup", "training.checkpoint_load": "setup",
               "metrics.frame_metrics": "eval"}


def import_program():
    """Import evssl from this checkout's src/ and nowhere else."""
    if not (SRC / "evssl").is_dir():
        raise SystemExit(f"error: no evssl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from evssl import autodiff
    if not Path(autodiff.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: evssl imported from {autodiff.__file__}, not {SRC}")


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def metadata() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"nproc": os.cpu_count(), "blas": blas, "blas_threads": _blas_threads(),
            "numpy": np.__version__, "python": platform.python_version(),
            "git_commit": commit, "src_lines": src_lines}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def end_to_end(result) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (result.setup_s, "s"),
        "step_ms.p50": (statistics.median(result.step_ms), "ms"),
        "events_per_s": (result.events / result.loop_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(tracer, result, setup_repeats: int) -> dict[str, tuple[float, str]]:
    """Each layer's time and calls within one phase, per unit of that phase.

    Set-up layers are reported per set-up and scoring-only layers per
    scoring pass, both fixed work; every other layer per step of the timed
    loop. So a layer that did not change reads the same however many steps
    a run of `--seconds` fits.
    """
    from tracing import GRAPH_NODES, SPAN_NAMES
    units = {"setup": ("setup", setup_repeats), "loop": ("step", len(result.step_ms)),
             "eval": ("eval", 1)}
    rows = {phase: tracer.summary(within=phase) for phase in units}
    out = {}
    for name in SPAN_NAMES:
        phase = LAYER_PHASE.get(name, "loop")
        per, count = units[phase]
        row = rows[phase].get(name, {"calls": 0, "total_ms": 0.0})
        if name == "synth.generate":
            out["synth.generate.s"] = (row["total_ms"] / 1e3 / count, f"s/{per}")
        else:
            out[name + ("_ms" if name.endswith((".fwd", ".bwd")) else ".ms")] = \
                (row["total_ms"] / count, f"ms/{per}")
        out[name + ".calls"] = (row["calls"] / count, f"calls/{per}")
    whole = tracer.summary()
    read_ms = whole.get("events.read_binary", {}).get("total_ms", 0.0)
    gen_ms = whole.get("synth.generate", {}).get("total_ms", 0.0)
    out["events.read_binary.mb_per_s"] = (
        result.bytes_read / 1e6 / (read_ms / 1e3) if read_ms else 0.0, "MB/s")
    out["synth.generate.events_per_s"] = (
        result.events_generated / (gen_ms / 1e3) if gen_ms else 0.0, "1/s")
    out[GRAPH_NODES] = (tracer.max_graph_nodes, "count")
    out["loop.steps"] = (len(result.step_ms), "count")
    out["trace.step_ms.p50"] = (statistics.median(result.step_ms), "ms")
    return out


def _line(name: str, value, unit: str, note: str = "") -> str:
    return f"  {name:<36} {value:>14.6g} {unit:<6} {note}".rstrip()


def run_one(args) -> int:
    import_program()
    import workloads
    from tracing import Tracer

    OUT.mkdir(parents=True, exist_ok=True)
    tally = workloads.Tally()
    tracer = Tracer() if args.trace else None
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        result = workloads.run(args.workload, args.seed, args.seconds, workloads.FULL, tally,
                               str(OUT), tracer)
    e2e = end_to_end(result)
    layers = per_layer(tracer, result, workloads.FULL.setup_repeats) if tracer is not None else {}
    failed = len(tally.failures)
    meta = metadata()

    steps = result.step_ms
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps(meta))
    print("end-to-end" + (" (traced, not comparable)" if tracer else ""))
    for name, (value, unit) in e2e.items():
        note = f"n={len(steps)}" if name.startswith("step_ms") else ""
        print(_line(name, value, unit, note))
    if len(steps) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(steps, n=10, method="inclusive")[-1]
        print(_line("step_ms.p90", p90, "ms", f"n={len(steps)}"))
    else:
        print(f"  step_ms.p90 not reported: {len(steps)} steps < {P90_MIN_SAMPLES}")
    print(_line("failed_frac", failed / tally.attempted, "1",
                f"{failed} of {tally.attempted} operations"))
    print("quality (held-out, after the fixed budget)")
    for name, (value, unit) in result.quality.items():
        print(_line(name, value, unit))
    print("references (same held-out data)")
    for name, (value, unit) in result.references.items():
        print(_line(name, value, unit))
    for what in sorted(set(tally.failures)):
        print(f"  FAILED {tally.failures.count(what)}x: {what}")
    if tracer is not None:
        print("per-layer (loop layers per step, set-up layers per set-up, "
              "scoring-only layers per scoring pass)")
        for name, (value, unit) in layers.items():
            print(_line(name, value, unit))
        loop = next(s for s in tracer.spans if s[0] == "loop")
        loop_ms = (loop[2] - loop[1]) / 1e6
        print(f"share of timed-loop wall time by self time ({loop_ms:.0f} ms)")
        rows = sorted(tracer.summary(within="loop").items(), key=lambda kv: -kv[1]["self_ms"])
        for name, row in rows[:12]:
            print(f"  {name:<36} {100 * row['self_ms'] / loop_ms:6.1f} %  calls={row['calls']}")
        geometry_ms = sum(row["self_ms"] for name, row in rows if name.startswith(GEOMETRY))
        print(f"  {'geometry, warp and splat together':<36} {100 * geometry_ms / loop_ms:6.1f} %")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "meta": meta, "end_to_end": e2e, "per_layer": layers,
        "step_ms": steps, "quality": result.quality, "references": result.references,
        "attempted": tally.attempted, "failures": tally.failures,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report))

    metrics = layers if tracer is not None else e2e
    print(json.dumps({
        "correct": failed == 0, "attempted": tally.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process, in turn.

    Peak RSS is a maximum over a process's life, and concurrent workloads
    would compete for the same cores, so nothing runs side by side.
    """
    summary = {}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exited with {proc.returncode}")
                ok = False
                continue
            last = json.loads(lines[-1])
            ok = ok and last["correct"]
            summary[(workload, trace)] = last["metrics"]
    print("tracing overhead: traced minus untraced step_ms.p50")
    for workload in WORKLOADS:
        if (workload, 0) in summary and (workload, 1) in summary:
            plain = summary[(workload, 0)]["step_ms.p50"]["value"]
            traced = summary[(workload, 1)]["trace.step_ms.p50"]["value"]
            print(_line(workload, traced - plain, "ms", f"{100 * (traced / plain - 1):+.1f} %"))
    print("all checks passed" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # read when numpy loads its BLAS
    start = time.perf_counter()
    code = run_all(args) if args.workload == "all" else run_one(args)
    print(f"wall {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
