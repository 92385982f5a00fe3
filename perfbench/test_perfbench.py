"""Smoke tests of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from evssl import autodiff, networks, training  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload, tmp_path, trace):
    tally = workloads.Tally()
    if not trace:
        result = workloads.run(workload, 3, 0.0, workloads.TINY, tally, str(tmp_path))
        return tally, result, run.end_to_end(result)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = workloads.run(workload, 3, 0.0, workloads.TINY, tally, str(tmp_path), tracer)
    return tally, result, run.per_layer(tracer, result, workloads.TINY.setup_repeats)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_reports_every_end_to_end_metric(workload, tmp_path):
    tally, result, metrics = _run(workload, tmp_path, trace=False)
    assert tally.failures == [] and tally.attempted > 0
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    for spec in SPEC["end_to_end"]:
        value, unit = metrics[spec["name"]]
        assert unit == spec["unit"] and value > 0
    assert result.quality and result.references
    assert list(tmp_path.iterdir()) == []  # EVT1 and CKP1 files removed


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_workload_reports_every_layer_and_restores_the_program(workload, tmp_path):
    conv2d, adam_step = autodiff.conv2d, training.Adam.step
    tally, _, metrics = _run(workload, tmp_path, trace=True)
    assert tally.failures == []
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]][1] == spec["unit"]
    assert metrics["autodiff.conv2d.fwd.calls"][0] > 0 and metrics["loop.steps"][0] > 0
    assert autodiff.conv2d is conv2d and training.Adam.step is adam_step


def test_layers_are_reported_per_step_and_per_setup(tmp_path):
    _, _, metrics = _run("flow_train", tmp_path, trace=True)
    assert metrics["loop.steps"][0] > 1
    assert metrics["training.adam_step.calls"] == (1.0, "calls/step")
    assert metrics["networks.fireflownet.fwd.calls"] == (1.0, "calls/step")
    assert metrics["synth.generate.calls"] == (1.0, "calls/setup")


def test_off_mask_output_is_counted_as_failed(tmp_path, monkeypatch):
    forward = networks.FireFlowNet.__call__

    def leaky(self, voxel, mask):
        return autodiff.add(forward(self, voxel, mask), 1e-3)

    monkeypatch.setattr(networks.FireFlowNet, "__call__", leaky)
    tally, _, _ = _run("stream_infer", tmp_path, trace=False)
    assert workloads.OFF_MASK in tally.failures


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0, 10_000_000, -1], ["inner", 2_000_000, 5_000_000, 0],
                    ["inner", 6_000_000, 7_000_000, 0], ["other", 20_000_000, 21_000_000, -1]]
    rows = tracer.summary()
    assert rows["outer"] == {"calls": 1, "total_ms": 10.0, "self_ms": 6.0}
    assert rows["inner"] == {"calls": 2, "total_ms": 4.0, "self_ms": 4.0}
    assert set(tracer.summary(within="outer")) == {"inner"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "flow_train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_all_runs_every_workload_untraced_then_traced_in_turn(monkeypatch, capsys):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        trace = cmd[cmd.index("--trace") + 1]
        name = "step_ms.p50" if trace == "0" else "trace.step_ms.p50"
        value = 100.0 if trace == "0" else 102.0
        last = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {name: {"value": value, "unit": "ms"}}}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(last) + "\n", "")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    assert run.main(["--workload", "all", "--seed", "5", "--seconds", "0"]) == 0
    assert [(c[c.index("--workload") + 1], c[c.index("--trace") + 1]) for c in calls] == \
        [(w, t) for w in run.WORKLOADS for t in "01"]
    out = capsys.readouterr().out
    assert out.count("+2.0 %") == len(run.WORKLOADS) and "all checks passed" in out
