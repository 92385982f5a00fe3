"""Run perfbench/run.py at benchmark size (64x64, --seconds 0) once per case
below, each case as its own child process, and fail unless every case's
output checks pass. Tier-1's benchmark smoke runs are 32x32 with S=2.

Each case prints one line: `correct`, its set-up time (setup_s for an
untraced run, synth.generate.s, the event synthesis inside it, for a traced
one), any call counts it gates on, the child's wall time, and its own CPU
time (user plus system), minor page faults and peak RSS, read from
os.wait4. CPU time above wall time means the correlations' worker thread
ran on a second CPU. Only `correct` and the call counts are gated. Run from
the repository root:

    python3 .github/bench_size_runs.py
"""

import json
import os
import subprocess
import sys
import time

# (workload, seed, trace, metrics that must be non-zero), and why each runs.
CASES = [
    # One traced S=20 reconstruction window: the tracer must see conv2d's
    # and bilinear_sample's backward closures run.
    ("recon_unroll", 0, 1, ("autodiff.conv2d.bwd.calls", "autodiff.bilinear_sample.bwd.calls")),
    # Inference through an untrained FireFlowNet; tests/test_networks.py
    # checks that such a run records no graph. Minor faults differ by seed,
    # so the log shows both.
    ("stream_infer", 0, 0, ()),
    ("stream_infer", 1, 0, ()),
    # FireFlowNet training, where the forward correlations run in four bands
    # and the backward over one whole-frame im2col.
    ("flow_train", 0, 0, ()),
]


def run_case(workload: str, seed: int, trace: int, gated: tuple[str, ...]) -> bool:
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--trace", str(trace)], stdout=subprocess.PIPE, text=True) as child:
        out = child.stdout.read()
        # wait4 reports this child alone; RUSAGE_CHILDREN would sum every
        # child waited for so far.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    result = json.loads(out.splitlines()[-1]) if child.returncode == 0 else {}
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    shown = {name: metrics.get(name) for name in
             ("synth.generate.s" if trace else "setup_s", *gated)}
    ok = result.get("correct") is True and all(shown[name] for name in gated)
    # ru_maxrss is in KiB on Linux; MB as perfbench/run.py reports peak_rss_mb.
    print(f"{workload} seed={seed} trace={trace}: correct: {result.get('correct')} {shown} "
          f"wall: {wall:.2f} s, CPU: {usage.ru_utime + usage.ru_stime:.2f} s, "
          f"minor faults: {usage.ru_minflt}, max RSS: {usage.ru_maxrss * 1024 / 1e6:.2f} MB",
          flush=True)
    if not ok:
        print(out, f"exit status {child.returncode}", sep="\n", flush=True)
    return ok


if __name__ == "__main__":
    sys.exit(0 if all([run_case(*case) for case in CASES]) else 1)
