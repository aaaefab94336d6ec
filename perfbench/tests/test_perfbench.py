"""Tests of the benchmark itself: ledger arithmetic, metric definitions,
and a reduced-size run of every workload in both modes."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import ledger, run, workloads

ROOT = Path(__file__).resolve().parents[2]
WORKLOAD_NAMES = ("fig6-sweep", "rmt-long", "thermal-sweep")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0.0, 10.0, -1),   # root
        (1.0, 4.0, 0),     # child
        (3.0, 6.0, 0),     # child overlapping the first: union [1, 6]
        (9.0, 12.0, 0),    # child overhanging the root: clipped to [9, 10]
        (1.5, 2.5, 1),     # grandchild
        (20.0, 21.0, -1),  # second root
    ]
    assert ledger.self_times(spans) == pytest.approx(
        [10 - 5 - 1, 3 - 1, 3, 3, 1, 1]
    )


def test_summarize_totals_by_name_and_roots():
    records = [
        ["driver.x", 0.0, 10.0, -1, -1, 0],
        ["memory.access_window", 1.0, 4.0, 0, 0, 100],
        ["memory.access_window", 5.0, 6.0, 0, 0, 50],
        ["branch.update_window", 1.5, 2.5, 1, 0, (8, 3)],
        ["driver.x", 20.0, 21.0, -1, -1, 0],
    ]
    totals, host = ledger.summarize(records)
    assert host == pytest.approx(11.0)
    events = totals["memory.access_window"]
    assert (events.calls, events.count) == (2, 150)
    assert events.self_s == pytest.approx(2.0 + 1.0)
    flags = totals["branch.update_window"]
    assert (flags.count, flags.extra) == (8, 3)
    assert totals["driver.x"].self_s == pytest.approx(10 - 4 + 1)


def test_layer_metrics_split_host_time_into_layers_and_remainder():
    records = [
        ["driver.x", 0.0, 10.0, -1, -1, 0],
        ["runner.task", 1.0, 9.0, 0, 0, 0],
        ["leading.scan", 2.0, 6.0, 1, 0, 0],
        ["thermal.factorize", 6.0, 7.0, 1, 0, 0],
        ["floorplan.build", 7.0, 8.0, 1, 0, 0],
    ]
    totals, host = ledger.summarize(records)
    memo_stats = {name: SimpleNamespace(hit_rate=0.5)
                  for name in ("trace", "schedule", "branch", "preload",
                               "grid")}
    sweep = SimpleNamespace(task_wall_s=[1.0, 1.0, 2.0], wall_s=2.5,
                            jobs=2, retries=1)
    counters = {"rmt.checker_instructions": 2000,
                "rmt.consume_window_rows": 1500}
    metrics = ledger.layer_metrics(totals, host, counters, memo_stats, 2000,
                                   [sweep], 0.25)
    assert list(metrics) == [name for name, _u, _b
                             in ledger.PER_LAYER_METRICS]
    assert metrics["layer.leading.self_s"] == pytest.approx(4.0)
    assert metrics["layer.thermal.self_s"] == pytest.approx(2.0)
    assert metrics["layer.runner.self_s"] == pytest.approx(2.0)
    assert metrics["ledger.unattributed_s"] == pytest.approx(2.0)
    assert metrics["ledger.coverage"] == pytest.approx(0.8)
    assert metrics["leading.scan_ns_per_row"] == pytest.approx(2e6)
    assert metrics["leading.rows"] == 2000
    assert (metrics["checker.rows"], metrics["checker.scalar_rows"]) == (
        2000, 500)
    assert metrics["engine.efficiency"] == pytest.approx(4.0 / 5.0)
    assert metrics["engine.overhead_s"] == pytest.approx(0.5)
    assert metrics["engine.retries"] == 1
    assert metrics["tracing.overhead_frac"] == 0.25


def test_tracer_wraps_entry_points_and_restores_them():
    from repro.core.leading import LeadingCoreTiming
    from repro.experiments import engine, perf

    scan = LeadingCoreTiming.advance_window
    run_sweep = engine.run_sweep
    tracer = ledger.Tracer()
    with tracer.installed():
        assert LeadingCoreTiming.advance_window is not scan
        assert engine.run_sweep is not run_sweep
        # A function imported by name elsewhere is wrapped there too.
        if hasattr(perf, "prime_sim_tasks"):
            from repro.experiments import runner
            assert perf.prime_sim_tasks is runner.prime_sim_tasks
    assert LeadingCoreTiming.advance_window is scan
    assert engine.run_sweep is run_sweep


@pytest.mark.parametrize("n, q", [(76, 85), (37, 70), (20, 50), (4, 100)])
def test_tail_percentile_leaves_ten_operations_beyond(n, q):
    assert run.tail_percentile(n) == q


def test_benchmark_json_matches_the_source():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"][1] == "perfbench/run.py"
    # Every gated workload runs with its recorded reason; rmt-long runs
    # but is not gated.
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, workloads.WORKLOADS[name].why)
        for name in ("fig6-sweep", "thermal-sweep")]
    assert list(workloads.WORKLOADS) == list(WORKLOAD_NAMES)
    assert spec["run_seconds"] == run._parse(["--workload", "x"]).seconds
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(ledger.PER_LAYER_METRICS)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_reduced_run_emits_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--reduced")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = (ledger.PER_LAYER_METRICS if trace else run.END_TO_END)
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        name: unit for name, unit, *_ in expected}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if trace:
        assert result["metrics"]["ledger.coverage"]["value"] >= 0.9
    else:
        assert all(result["metrics"][name]["value"] > 0
                   for name, _unit in run.END_TO_END)


def test_runs_fail_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "fig6-sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
