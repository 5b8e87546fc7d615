"""Tiny runs of every workload through the benchmark's command line.

Run from the repository root (about a minute on two CPUs)::

    python -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_lists_what_run_reports():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics(workload):
    done = _run(workload, 0)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[2]: line.split()[4] for line in lines if line.startswith("metric")}
    assert printed["failed_ratio"] == "ratio"
    assert f"metric {workload} failed_ratio 0 ratio" in lines
    for name, unit in run.END_TO_END.items():
        assert printed[name] == unit
    assert printed["answer_latency_p99_ms"] == "ms"
    assert printed["latency_samples"] == "count"
    assert printed["raw_throughput_eps"] == "events/s"
    if workload == "durable-churn":
        assert printed["recovery_s"] == "s"
        assert printed["post_recovery_throughput_eps"] == "events/s"
        assert printed["post_recovery_latency_p50_ms"] == "ms"


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_rows_add_up_to_wall(workload):
    done = _run(workload, 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    rows = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.per_layer_units()
    spans = sum(value for name, value in rows.items() if name.endswith((".self_s", ".wait_s")))
    assert math.isclose(spans + rows["trace.unattributed_s"], rows["trace.wall_s"],
                        rel_tol=1e-9, abs_tol=1e-9)
    assert rows["trace.wall_s"] > 0 and rows["trace.events"] > 0
    assert rows["trace.overhead_ratio"] > 0
    if workload == "durable-churn":
        assert rows["engine.groups_before_crash"] > 0
        assert rows["engine.groups_after_recovery"] > 0
        assert rows["durability.recovery.replayed_chunks"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("engine-fleet", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
