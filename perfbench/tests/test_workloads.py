"""Smoke-scale end-to-end runs of the benchmark command, in fresh processes.

Each run goes through ``perfbench/run.py`` exactly as the benchmark is
invoked, only at ``--scale smoke`` (checked against the committed smoke
digests), so a pass of every workload takes seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def _run(workload: str, *, seed: int = 3, trace: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result_and_record(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


@pytest.fixture(scope="module")
def untraced():
    return {name: _result_and_record(_run(name)) for name in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_is_correct_and_reports_every_metric(untraced, workload):
    result, record = untraced[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["errors"]
    assert result["failed"] == 0
    assert result["attempted"] == record["cells"] * record["passes"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    assert record["host"]["ref_ms"] > 0
    assert record["tail"]["samples"] == record["cells"] * record["passes"]


def test_fused_cells_equal_scalar_cells_bit_for_bit(untraced):
    scalar = untraced["sweep-scalar"][1]["cell_digests"]
    fused = untraced["sweep-fused"][1]["cell_digests"]
    assert scalar and fused == scalar


@pytest.mark.parametrize("workload", ["hc-warm", "sweep-fused", "dm-stochastic"])
def test_traced_counts_repeat_exactly(workload):
    first, first_record = _result_and_record(_run(workload, trace=1))
    second, _ = _result_and_record(_run(workload, trace=1))
    assert first["correct"] and second["correct"], first_record["errors"]
    assert {name: m["unit"] for name, m in first["metrics"].items()} == PER_LAYER
    counts = {
        name: metric["value"]
        for name, metric in first["metrics"].items()
        if metric["unit"] == "count"
    }
    assert counts and any(counts.values())
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    layers = first_record["per_layer"]
    assert layers["trace.self_sum_s"] == pytest.approx(layers["trace.cell_s"], rel=0.05)


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("hc-warm", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
