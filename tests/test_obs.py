"""The observability layer: metrics, spans, events, logs, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.common import memo
from repro.experiments import engine
from repro.experiments.engine import parallel_map, run_sweep
from repro.experiments.perf import fig6_performance
from repro.experiments.runner import SimulationWindow
from repro.obs import events, log, metrics, tracing
from repro.obs.metrics import (
    FRACTION_EDGES,
    BucketHistogram,
    MetricsSnapshot,
    get_registry,
    merge_snapshots,
)
from repro.obs.tracing import (
    UNATTRIBUTED,
    flatten_spans,
    merge_span_dicts,
    span,
    span_self_times,
    span_structure,
)
from repro.workloads.profiles import get_profile

TINY = SimulationWindow(warmup=2000, measured=6000)


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with a pristine registry and timings."""
    metrics.reset()
    engine.clear_timings()
    yield
    metrics.set_enabled(True)
    metrics.reset()
    engine.clear_timings()
    engine.set_default_jobs(None)
    events.set_sink(None)


# ---------------------------------------------------------------------
class TestInstruments:
    def test_counter_increments(self):
        c = get_registry().counter("t.c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert get_registry().counter("t.c") is c

    def test_gauge_keeps_last_value(self):
        g = get_registry().gauge("t.g")
        g.set(0.25)
        g.set(0.75)
        assert g.value == 0.75

    def test_histogram_buckets_and_overflow(self):
        h = BucketHistogram((1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.5, 4.0, 99.0):
            h.observe(v)
        assert h.counts == [2, 1, 1, 1]
        assert h.total == 5

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            BucketHistogram(())
        with pytest.raises(ValueError):
            BucketHistogram((2.0, 1.0))

    def test_histogram_edge_conflict_detected(self):
        get_registry().histogram("t.h", (1.0, 2.0))
        with pytest.raises(ValueError):
            get_registry().histogram("t.h", (3.0,))

    def test_fraction_edges_are_deciles(self):
        assert FRACTION_EDGES[0] == pytest.approx(0.1)
        assert FRACTION_EDGES[-1] == pytest.approx(1.0)
        assert len(FRACTION_EDGES) == 10


class TestSnapshots:
    def test_merge_semantics(self):
        a = MetricsSnapshot(
            counters={"c": 2}, gauges={"g": 0.5},
            histograms={"h": ((1.0,), (1, 0))},
        )
        b = MetricsSnapshot(
            counters={"c": 3, "d": 1}, gauges={"g": 0.2, "g2": 1.0},
            histograms={"h": ((1.0,), (0, 2))},
        )
        merged = a.merge(b)
        assert merged.counters == {"c": 5, "d": 1}
        assert merged.gauges == {"g": 0.5, "g2": 1.0}
        assert merged.histograms["h"] == ((1.0,), (1, 2))
        # Commutative: the other order gives the same result.
        swapped = b.merge(a)
        assert merged.counters == swapped.counters
        assert merged.gauges == swapped.gauges
        assert merged.histograms == swapped.histograms

    def test_merge_rejects_mismatched_edges(self):
        a = MetricsSnapshot(histograms={"h": ((1.0,), (0, 1))})
        b = MetricsSnapshot(histograms={"h": ((2.0,), (1, 0))})
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_snapshots_skips_none(self):
        merged = merge_snapshots([None, MetricsSnapshot(counters={"c": 1})])
        assert merged.counters == {"c": 1}
        assert merge_snapshots([]).empty

    def test_as_dict_is_json_ready(self):
        get_registry().counter("t.c").inc()
        get_registry().histogram("t.h", (1.0,)).observe(0.5)
        snap = get_registry().snapshot()
        text = json.dumps(snap.as_dict())
        assert "t.c" in text and "t.h" in text


class TestSpans:
    def test_nesting_builds_tree(self):
        with span("outer"):
            with span("inner"):
                pass
            with span("inner"):
                pass
        tree = tracing.current_tree().to_dict()
        outer = tree["children"]["outer"]
        assert outer["count"] == 1
        assert outer["children"]["inner"]["count"] == 2
        assert outer["wall_s"] >= 0.0

    def test_structure_strips_timings(self):
        with span("a"):
            pass
        structure = span_structure(tracing.current_tree().to_dict())
        assert structure == {
            "name": "root", "count": 0,
            "children": {"a": {"name": "a", "count": 1, "children": {}}},
        }

    def test_flatten_paths(self):
        with span("a"):
            with span("b"):
                pass
        rows = flatten_spans(tracing.current_tree().to_dict())
        assert [r[0] for r in rows] == ["a", "a.b"]

    def test_merge_span_dicts(self):
        with span("a"):
            pass
        first = tracing.current_tree().to_dict()
        tracing.reset()
        with span("a"):
            pass
        with span("b"):
            pass
        merged = merge_span_dicts(first, tracing.current_tree().to_dict())
        assert merged["children"]["a"]["count"] == 2
        assert merged["children"]["b"]["count"] == 1
        assert merge_span_dicts(None, None) is None

    def test_self_times_subtract_children(self):
        def node(wall, **children):
            return {"name": "", "count": 1, "wall_s": wall, "cpu_s": 0.0,
                    "children": children}

        tree = node(0.0, a=node(3.0, b=node(1.0)), c=node(0.5))
        table = span_self_times(tree, 4.0)
        assert list(table.items()) == [
            ("a", 2.0), ("a.b", 1.0), ("c", 0.5), (UNATTRIBUTED, 0.5),
        ]
        assert list(table)[:-1] == [row[0] for row in flatten_spans(tree)]
        assert span_self_times(None, 2.0) == {UNATTRIBUTED: 2.0}


class TestTaskScoping:
    def test_delta_excludes_prior_state(self):
        get_registry().counter("t.pre").inc(10)
        mark = get_registry().begin_task()
        get_registry().counter("t.pre").inc(2)
        get_registry().counter("t.new").inc()
        snap = get_registry().end_task(mark)
        assert snap.counters == {"t.pre": 2, "t.new": 1}

    def test_zero_deltas_dropped(self):
        get_registry().counter("t.quiet").inc()
        mark = get_registry().begin_task()
        snap = get_registry().end_task(mark)
        assert snap.counters == {}
        assert snap.spans is None

    def test_task_spans_isolated(self):
        with span("process.level"):
            pass
        mark = get_registry().begin_task()
        with span("task.level"):
            pass
        snap = get_registry().end_task(mark)
        assert list(snap.spans["children"]) == ["task.level"]
        process_tree = tracing.current_tree().to_dict()
        assert list(process_tree["children"]) == ["process.level"]

    def test_unbalanced_task_frames_unwound(self):
        mark = get_registry().begin_task()
        tracing.push_root()  # as if a task died without popping
        snap = get_registry().end_task(mark)
        assert tracing.frame_depth() == 1
        assert snap is not None


class TestDisabled:
    def test_runtime_toggle(self):
        metrics.set_enabled(False)
        c = get_registry().counter("t.off")
        c.inc()
        assert c.value == 0
        assert get_registry().begin_task() is None
        assert get_registry().end_task(None).empty
        with span("t.off.span"):
            pass
        metrics.set_enabled(True)
        assert tracing.current_tree().to_dict()["children"] == {}

    def test_env_switch_in_fresh_process(self):
        code = (
            "from repro.obs import metrics, tracing\n"
            "assert not metrics.enabled()\n"
            "assert not tracing.enabled()\n"
            "c = metrics.get_registry().counter('x')\n"
            "c.inc(); assert c.value == 0\n"
            "assert metrics.get_registry().begin_task() is None\n"
        )
        env = dict(os.environ)
        env["REPRO_OBS"] = "off"
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=60
        )


# ---------------------------------------------------------------------
def _bump(x: int) -> int:
    # Module-level so it pickles into pool workers.
    m = get_registry()
    m.counter("test.bumps").inc()
    m.histogram("test.values", (1.0, 3.0)).observe(x)
    with span("test.work"):
        pass
    return x * 2


class TestEngineIntegration:
    def test_sweep_collects_merged_metrics(self):
        _results, timing = run_sweep(_bump, range(5), jobs=1, label="bumps")
        assert timing.metrics.counters["test.bumps"] == 5
        assert timing.metrics.histograms["test.values"][1] == (2, 2, 1)
        assert timing.run_id == events.current_run_id()

    def test_parallel_metrics_match_serial(self):
        _r, serial = run_sweep(_bump, range(8), jobs=1, record=False)
        _r, parallel = run_sweep(
            _bump, range(8), jobs=2, chunksize=2, record=False
        )
        assert serial.metrics.counters == parallel.metrics.counters
        assert serial.metrics.histograms == parallel.metrics.histograms
        assert span_structure(serial.metrics.spans) == span_structure(
            parallel.metrics.spans
        )

    def test_timings_scoped_by_run_id(self):
        run1 = events.begin_run("first")
        parallel_map(_bump, range(3), jobs=1, label="one")
        run2 = events.begin_run("second")
        parallel_map(_bump, range(2), jobs=1, label="two")
        assert [t.label for t in engine.timings(run1)] == ["one"]
        assert [t.label for t in engine.timings(run2)] == ["two"]
        assert [t.label for t in engine.timings()] == ["one", "two"]
        assert engine.run_metrics(run2).counters["test.bumps"] == 2
        summary = engine.timing_summary(run2, include_metrics=True)
        assert summary[0]["metrics"]["counters"]["test.bumps"] == 2
        assert "metrics" not in engine.timing_summary(run2)[0]

    def test_default_jobs_outranks_env(self, monkeypatch):
        monkeypatch.setenv(engine.JOBS_ENV_VAR, "7")
        engine.set_default_jobs(3)
        assert engine.resolve_jobs() == 3
        assert engine.resolve_jobs(2) == 2
        engine.set_default_jobs(None)
        assert engine.resolve_jobs() == 7

    def test_default_jobs_validated(self):
        with pytest.raises(Exception):
            engine.set_default_jobs(0)


class TestSimulationDeterminism:
    """Acceptance: a sweep's merged metrics are worker-count independent."""

    def _fig6_metrics(self, benchmarks, jobs):
        memo.clear_cache()
        metrics.reset()
        run_id = events.begin_run(f"fig6-jobs{jobs}")
        fig6_performance(window=TINY, benchmarks=benchmarks, jobs=jobs)
        return engine.run_metrics(run_id)

    def test_fig6_metrics_parallel_matches_serial(self):
        benchmarks = [get_profile(n) for n in ("gzip", "mcf")]
        serial = self._fig6_metrics(benchmarks, jobs=1)
        parallel = self._fig6_metrics(benchmarks, jobs=2)
        assert serial.counters == parallel.counters
        assert serial.histograms == parallel.histograms
        assert serial.gauges == parallel.gauges
        assert span_structure(serial.spans) == span_structure(parallel.spans)
        # The instrumentation actually saw the simulations.
        assert serial.counters["sim.instructions_retired"] > 0
        assert serial.counters["rmt.simulations"] == len(benchmarks) * 3
        assert serial.counters["memo.trace.hits"] > 0
        # Each stream is generated once, on its first lookup (TINY's
        # 8000 rows are one 8192-row chunk); later lookups reuse it.
        assert serial.counters["memo.trace.misses"] == len(benchmarks)
        assert serial.counters["trace.instructions_generated"] == (
            len(benchmarks) * 8192
        )
        assert "sim.leading" in serial.spans["children"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_span_self_times_cover_task_wall_time(self, jobs):
        benchmarks = [get_profile(n) for n in ("gzip", "mcf")]
        run_id = events.begin_run(f"self-times-jobs{jobs}")
        fig6_performance(window=TINY, benchmarks=benchmarks, jobs=jobs)
        tree = engine.run_metrics(run_id).spans
        task_wall = sum(t.cpu_s for t in engine.timings(run_id))
        table = span_self_times(tree, task_wall)
        assert abs(sum(table.values()) - task_wall) <= 1e-6
        assert min(table.values()) >= -1e-9
        # Both the leading-only and the RMT simulations split their two
        # window prepasses (warmup, measured) out of the scan.
        counts = {path: count for path, count, _w, _c in flatten_spans(tree)}
        for parent in ("sim.leading", "sim.rmt"):
            assert counts[f"{parent}.sim.prepass"] == 2 * counts[parent]
            assert table[f"{parent}.sim.prepass"] > 0.0


# ---------------------------------------------------------------------
class TestEvents:
    def test_sink_writes_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events.set_sink(path)
        events.emit("unit_test", detail=1)
        events.set_sink(None)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[-1]["event"] == "unit_test"
        assert records[-1]["detail"] == 1

    def test_emit_without_sink_is_noop(self):
        events.emit("nothing_listens")

    def test_run_ids_are_unique(self):
        assert events.begin_run("a") != events.begin_run("b")

    def test_config_hash_stable(self):
        payload = {"seed": 42, "window": 1000}
        assert events.config_hash(payload) == events.config_hash(
            {"window": 1000, "seed": 42}
        )
        assert events.config_hash(payload) != events.config_hash({"seed": 43})

    def test_build_manifest_fields(self):
        manifest = events.build_manifest(
            command="x", seed=1, window=2, jobs=3,
            metrics={"counters": {}}, sweeps=[],
        )
        for key in ("run_id", "git_sha", "config_hash", "created_unix"):
            assert key in manifest
        assert manifest["command"] == "x"


class TestEventSinkFlush:
    def test_lines_visible_immediately(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        events.set_sink(path)
        events.emit("probe", run_id="r1")
        # Per-line flush: a concurrent reader sees the event without the
        # sink being closed first.
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in records] == ["probe"]
        events.set_sink(None)

    def test_fsync_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv(events.FSYNC_ENV_VAR, "1")
        path = tmp_path / "ev.jsonl"
        events.set_sink(path)
        events.emit("durable", run_id="r1")
        assert '"durable"' in path.read_text()
        events.set_sink(None)


class TestCliManifest:
    def _run(self, tmp_path, jobs):
        memo.clear_cache()
        metrics.reset()
        manifest_path = tmp_path / f"manifest-j{jobs}.json"
        trace_path = tmp_path / f"events-j{jobs}.jsonl"
        code = main([
            "fig6", "--window", "2000", "--benchmarks", "gzip,mcf",
            "--jobs", str(jobs),
            "--metrics", str(manifest_path),
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        return json.loads(manifest_path.read_text()), trace_path

    def test_manifest_identical_across_worker_counts(self, tmp_path, capsys):
        serial, _ = self._run(tmp_path, jobs=1)
        parallel, trace_path = self._run(tmp_path, jobs=2)
        assert serial["metrics"]["counters"] == parallel["metrics"]["counters"]
        assert (
            serial["metrics"]["histograms"]
            == parallel["metrics"]["histograms"]
        )
        assert span_structure(serial["metrics"]["spans"]) == span_structure(
            parallel["metrics"]["spans"]
        )
        assert serial["jobs"] == 1 and parallel["jobs"] == 2
        for manifest in (serial, parallel):
            # The self-time table accounts for every task second (the
            # sweep rows round cpu_s to milliseconds).
            table = manifest["span_self_s"]
            assert UNATTRIBUTED in table and "sim.rmt.sim.prepass" in table
            cpu_s = sum(s["cpu_s"] for s in manifest["sweeps"])
            assert abs(sum(table.values()) - cpu_s) <= 1e-3
        assert serial["command"] == "fig6"
        assert serial["run_id"] != parallel["run_id"]
        assert [s["label"] for s in serial["sweeps"]] == ["fig6_performance"]
        kinds = [
            json.loads(line)["event"]
            for line in trace_path.read_text().splitlines()
        ]
        assert kinds[0] == "run_begin"
        assert "sweep" in kinds and kinds[-1] == "manifest"
        out = capsys.readouterr().out
        assert "Figure 6" in out and "wrote run manifest" in out


class TestLogging:
    def test_quiet_suppresses_tables(self, capsys):
        assert main(["table8", "-q"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["table8"]) == 0
        assert "2.21" in capsys.readouterr().out

    def test_logger_hierarchy(self):
        assert log.get_logger().name == "repro"
        assert log.get_logger("cli").name == "repro.cli"

    def test_reconfigure_replaces_handler(self):
        logger = log.configure(0)
        first = [h for h in logger.handlers if getattr(h, "_repro_obs_handler", False)]
        logger = log.configure(1)
        second = [h for h in logger.handlers if getattr(h, "_repro_obs_handler", False)]
        assert len(second) == 1
        assert first[0] is not second[0]

    def test_ensure_configured_idempotent(self):
        logger = log.ensure_configured()
        count = len(logger.handlers)
        log.ensure_configured()
        assert len(logger.handlers) == count


class TestSweepTimingCompat:
    def test_keyword_construction_still_works(self):
        timing = engine.SweepTiming(
            label="x", jobs=2, task_wall_s=[1.0, 1.0], wall_s=1.0
        )
        assert timing.speedup == pytest.approx(2.0)
        assert timing.run_id == ""
        assert timing.metrics is None
        # Degenerate wall clocks report a huge-but-finite ratio now, not
        # a misleading 1.0 (rendered as "—" by format_timing_summary).
        assert dataclasses.replace(timing, wall_s=0.0).speedup > 1e6
