"""Tests of the benchmark itself: span arithmetic, output checks, smoke runs."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.run import MIN_PASSES, ROOT, check, end_to_end, measure, per_layer
from perfbench.tracing import NO_PARENT, Tracer, self_times
from perfbench.workloads import WORKLOADS, build_workload, first_difference, record_differences

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_only_direct_children():
    spans = [
        ("cell", 0.0, 10.0, NO_PARENT),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 9.0, 0),
        ("b", 6.0, 6.5, 3),
    ]
    assert self_times(spans) == {"cell": 3.0, "a": 5.5, "b": 1.5}


def test_traced_self_times_add_up_to_the_cell():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    tracer.start_cell()
    outer()
    seconds, layers, _ = tracer.finish_cell()
    assert set(layers) == {"cell", "outer", "inner"}
    assert all(value >= 0.0 for value in layers.values())
    assert sum(layers.values()) == pytest.approx(seconds, rel=1e-9)
    assert tracer.spans == []


def test_trace_check_rejects_one_changed_number():
    golden = (ROOT / "tests" / "golden" / "tpcc_steady__met.json").read_text()
    assert first_difference(golden, golden) is None
    changed = golden.replace('"final_nodes": ', '"final_nodes": 1', 1)
    assert changed != golden
    assert "final_nodes" in first_difference(changed, golden)


def test_record_check_tolerates_1e_7_and_rejects_1e_5_relative():
    record = {
        "cell": "diurnal|met|16x|s0",
        "seed": 123456789,
        "kernel": "event",
        "skip_active": True,
        "mean_throughput": 5000.0,
        "assertions_passed": True,
    }
    twin = dict(record, kernel="fast", skip_active=False)
    assert record_differences(record, twin) == []
    assert record_differences(record, dict(twin, mean_throughput=5000.0 * (1 + 1e-7))) == []
    off = record_differences(record, dict(twin, mean_throughput=5000.0 * (1 + 1e-5)))
    assert off and off[0].startswith("mean_throughput")
    assert record_differences(record, dict(twin, seed=123456790))
    assert record_differences(record, dict(twin, assertions_passed=False))


@pytest.mark.parametrize("workload_name,seed", [(name, 0) for name in WORKLOADS] + [("catalog", 7)])
def test_smoke_run_checks_and_reports_every_metric(workload_name, seed, tmp_path):
    workload = build_workload(workload_name, seed, ROOT, tmp_path)
    workload.cells = [workload.warmup]
    untraced = measure(workload, 0.0, 2)
    traced = measure(workload, 0.0, 2, Tracer())
    attempted, failed, problems = check(workload, untraced, traced)
    assert (attempted, failed, problems) == (4, 0, [])

    metrics, _ = end_to_end(untraced, 2, setup_s=1.0, rss_mb=1.0)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())
    layers = per_layer(traced, untraced)
    assert sorted(layers) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in layers.items()} == units
    assert layers["simulation.solve.vector_share"][0] == (1.0 if workload_name == "scale_out" else 0.0)
    assert layers["simulation.ticks"][0] > 0


def test_benchmark_json_follows_the_declared_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert MIN_PASSES >= 1


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [sys.executable, *BENCHMARK["command"][1:], "--workload", "catalog", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert not list(Path(tmp_path).glob(".perfbench_work-*"))
