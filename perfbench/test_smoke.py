"""Smoke test of the benchmark: every workload at a tiny length.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run is correct and prints every metric BENCHMARK.json
names, with its unit; that a traced run reports the same bits as an
untraced one; and that the benchmark refuses to run without the package.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BITS = ("uplink_bits_per_round", "downlink_bits_per_round")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", "7", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stdout
    assert out["failed"] == 0 and out["attempted"] >= 1
    return out


def reported_bits(stdout: str) -> dict:
    """The bit counts as printed in the human-readable report."""
    found = {}
    for name in BITS:
        match = re.search(rf"^\s+{name}\s+(\S+) bit", stdout, re.M)
        assert match, f"{name} not printed"
        found[name] = float(match.group(1))
    return found


def test_benchmark_json_matches_the_runner():
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS as DEFINED

    assert WORKLOADS == list(DEFINED)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_traced_bits_agree(workload):
    plain = bench(workload, trace=0)
    traced = bench(workload, trace=1)
    for proc, section in ((plain, "end_to_end"), (traced, "per_layer")):
        metrics = result(proc)["metrics"]
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {name: m["unit"] for name, m in metrics.items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    plain_bits = {name: result(plain)["metrics"][name]["value"] for name in BITS}
    assert plain_bits == reported_bits(plain.stdout) == reported_bits(traced.stdout)
    assert all(v > 0 for v in plain_bits.values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_function_the_tracer_cannot_find_is_reported_absent(monkeypatch):
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import run
    import sparsevote as sv
    from tracer import Tracer
    from workloads import WORKLOADS as DEFINED

    # A stand-in defined outside the package, as after a rename or a move.
    count = sv.simulator.participation_count
    monkeypatch.setattr(sv.simulator, "participation_count", lambda msgs, dim: count(msgs, dim))
    workload = DEFINED["logistic_noniid_wire"]
    calib = run.Calibration(np)
    tracer = Tracer(sv.simulator)
    untraced, traced = run.run_chunks(sv, workload, 0, 0.1, calib, tracer)
    probes = [{"import_s": 1.0, "task_build_s": None}]
    values, absent = run.per_layer_metrics(
        sv, tracer, workload, traced.chunks, untraced.timed(), probes, calib, wrapper_s=1e-6
    )
    assert absent == {"aggregation.count_ms_per_round", "setup.task_build_s"}
    assert set(values) == set(run.PER_LAYER)
    assert values["aggregation.count_ms_per_round"] == 0.0
    assert values["aggregation.vote_ms_per_round"] > 0.0
    assert sv.simulator.majority_vote is sv.aggregation.majority_vote  # uninstalled
