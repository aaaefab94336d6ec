"""Live sweep telemetry: streaming stats, scraping, tracing, profiling.

Covers the :class:`LiveStats` fold algebra (order independence,
bit-identical final merge on every backend), the Prometheus exposition
endpoint (syntax, scrape during a running sweep), the Chrome trace
export (round-trip, per-worker monotonic non-overlap), the opt-in
profiler collapse, the JSONL event follower (torn-line discipline,
follower-side folds) and the ``repro tail`` / ``repro top`` commands.
"""

import json
import random
import re
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.errors import ConfigError
from repro.experiments import engine
from repro.experiments.engine import run_sweep
from repro.experiments.perf import fig6_performance
from repro.experiments.runner import SimulationWindow
from repro.obs import events, metrics
from repro.obs import export as export_mod
from repro.obs import live as live_mod
from repro.obs import profile as profile_mod
from repro.obs.export import TaskTrace, chrome_trace, write_chrome_trace
from repro.obs.live import (
    EventFollower,
    LiveStats,
    fold_event,
    format_event,
    render_prometheus,
    resolve_events_path,
    resolve_metrics_port,
)
from repro.obs.metrics import MetricsSnapshot
from repro.workloads.profiles import get_profile

TINY = SimulationWindow(warmup=2000, measured=6000)


@pytest.fixture(autouse=True)
def _clean_live():
    """Pristine live-telemetry state (and engine defaults) per test."""
    metrics.reset()
    engine.clear_timings()
    live_mod._LISTENERS.clear()
    live_mod._ACTIVE = None
    live_mod.stop_metrics_server()
    export_mod.set_collector(None)
    profile_mod.set_accumulator(None)
    yield
    metrics.set_enabled(True)
    metrics.reset()
    engine.clear_timings()
    engine.set_default_jobs(None)
    live_mod._LISTENERS.clear()
    live_mod._ACTIVE = None
    live_mod.stop_metrics_server()
    export_mod.set_collector(None)
    profile_mod.set_accumulator(None)
    events.set_sink(None)


def _noop_listener(kind, stats):
    pass


def _snapshot(counter: int, gauge: float, values=()) -> MetricsSnapshot:
    snap = MetricsSnapshot()
    snap.counters["live.test"] = counter
    snap.gauges["live.g"] = gauge
    edges = (1.0, 5.0)
    counts = [0, 0, 0]
    for v in values:
        for i, edge in enumerate(edges):
            if v <= edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    snap.histograms["live.h"] = (edges, counts)
    return snap


# -- module-level worker fns (must pickle into pool workers) -----------

def _bump_live(x):
    m = metrics.get_registry()
    m.counter("livetest.calls").inc()
    m.gauge("livetest.peak").set(float(x))
    m.histogram("livetest.values", (2.0, 5.0)).observe(min(x, 9))
    return x + 1


# ---------------------------------------------------------------------
class TestLiveStatsFold:
    def test_fold_order_independent(self):
        outcomes = [
            (i, i % 5 != 4, 0.01 * i, _snapshot(i, float(i), values=(i,)))
            for i in range(12)
        ]
        a = LiveStats("sweep", len(outcomes))
        b = LiveStats("sweep", len(outcomes))
        shuffled = list(outcomes)
        random.Random(7).shuffle(shuffled)
        for i, ok, wall, snap in outcomes:
            a.fold_task(i, ok, wall, snap)
        for i, ok, wall, snap in shuffled:
            b.fold_task(i, ok, wall, snap)
        assert a.counters == b.counters
        assert a.gauges == b.gauges
        assert a.histograms == b.histograms
        assert a.tasks_done == b.tasks_done == 12
        assert a.failures == b.failures
        # The final merge replays index order, so it is identical too —
        # not just equal-as-dicts but the same float bits.
        assert a.merged_metrics().as_dict() == b.merged_metrics().as_dict()

    def test_fold_task_accounting(self):
        stats = LiveStats("s", 4)
        stats.fold_task(0, True, 0.5, None, worker="w1", retries=2,
                        timeouts=1)
        stats.fold_task(1, False, 0.0, None, worker="w1")
        stats.fold_task(2, True, 0.25, None, resumed=True)
        assert stats.tasks_done == 3
        assert stats.tasks_ok == 2
        assert stats.failures == 1
        assert stats.resumed == 1
        assert stats.retries == 2
        assert stats.timeouts == 1
        assert stats.task_wall_s == pytest.approx(0.75)
        assert stats.workers["w1"].tasks_done == 2
        # Resumed tasks do not enter the rate window (they were not
        # completed now); live completions do.
        assert len(stats._window) == 2

    def test_worker_lifecycle_and_counters(self):
        stats = LiveStats("s", 2)
        stats.chunk_started(3, "w7")
        assert stats.workers["w7"].inflight_chunk == 3
        stats.lease_expired()
        stats.note_duplicate()
        assert (stats.lease_expiries, stats.duplicate_results) == (1, 1)

    def test_fold_heartbeat_updates_health(self):
        stats = LiveStats("s", 2)
        stats.fold_heartbeat({
            "w1": {"worker": "w1", "age_s": 0.4, "inflight_chunk": 9},
            "w2": {"worker": "w2", "age_s": 0.0, "inflight_chunk": None},
        })
        assert stats.workers["w1"].age_s == pytest.approx(0.4)
        assert stats.workers["w1"].inflight_chunk == 9
        assert stats.workers["w2"].inflight_chunk is None

    def test_rate_and_eta(self):
        stats = LiveStats("s", 10)
        assert stats.rate() == 0.0
        assert stats.eta_s() is None        # no completions yet
        for i in range(5):
            stats.fold_task(i, True, 0.0, None)
        assert stats.rate() > 0.0
        assert stats.eta_s() is not None
        for i in range(5, 10):
            stats.fold_task(i, True, 0.0, None)
        assert stats.eta_s() == 0.0         # nothing remaining

    def test_as_row_shape(self):
        stats = LiveStats("fig6", 8, run_id="run-1", backend="local",
                          jobs=2)
        stats.fold_task(0, True, 0.1, None, worker="w0")
        row = stats.as_row()
        for key in ("label", "run_id", "backend", "jobs", "tasks_total",
                    "tasks_done", "failures", "rate_per_s", "eta_s",
                    "elapsed_s", "finished", "workers"):
            assert key in row
        assert row["workers"][0]["worker"] == "w0"
        assert json.loads(json.dumps(row)) == row   # JSON-serializable

    def test_listener_exceptions_are_swallowed(self):
        def boom(kind, stats):
            raise RuntimeError("render crashed")

        live_mod.add_listener(boom)
        stats = live_mod.sweep_begin("s", 1)
        stats.fold_task(0, True, 0.0, None)     # must not raise
        live_mod.sweep_end(stats)
        assert stats.finished


# ---------------------------------------------------------------------
class TestSweepBeginGating:
    def test_inactive_without_consumers(self):
        assert not live_mod.telemetry_active()
        assert live_mod.sweep_begin("s", 4) is None

    def test_listener_activates(self):
        seen = []
        live_mod.add_listener(lambda kind, stats: seen.append(kind))
        stats = live_mod.sweep_begin("s", 4)
        assert stats is not None
        assert live_mod.current() is stats
        assert seen == ["begin"]

    def test_metrics_server_activates(self):
        live_mod.start_metrics_server(0)
        assert live_mod.telemetry_active()
        assert live_mod.sweep_begin("s", 4) is not None

    def test_obs_off_disables_live(self):
        live_mod.add_listener(_noop_listener)
        metrics.set_enabled(False)
        assert live_mod.sweep_begin("s", 4) is None

    def test_engine_skips_live_when_inactive(self):
        _, timing = run_sweep(_bump_live, [1, 2, 3], jobs=1, label="quiet")
        assert live_mod.current() is None
        assert timing.tasks == 3


# ---------------------------------------------------------------------
class TestBackendBitIdentity:
    """The determinism contract: live totals == post-hoc merged metrics."""

    @pytest.mark.parametrize("backend,jobs", [("inline", 1), ("local", 2)])
    def test_live_merge_bit_identical(self, backend, jobs):
        live_mod.add_listener(_noop_listener)
        results, timing = run_sweep(
            _bump_live, list(range(8)), jobs=jobs, label=f"bit-{backend}",
        )
        assert timing.executor == backend
        assert results == [x + 1 for x in range(8)]
        stats = live_mod.current()
        assert stats is not None and stats.finished
        assert stats.tasks_done == stats.tasks_ok == 8
        assert timing.metrics is not None
        assert stats.merged_metrics().as_dict() == timing.metrics.as_dict()
        # The incremental fold agrees with the merged snapshot on the
        # commutative instruments too.
        assert stats.counters["livetest.calls"] == \
            timing.metrics.counters["livetest.calls"]
        assert stats.histograms["livetest.values"][1] == \
            list(timing.metrics.histograms["livetest.values"][1])

    def test_worker_attribution_pool(self):
        live_mod.add_listener(_noop_listener)
        run_sweep(_bump_live, list(range(6)), jobs=2, label="attr",
                  chunksize=1)
        stats = live_mod.current()
        # Every completion is attributed to the pool pid that ran it.
        assert sum(h.tasks_done for h in stats.workers.values()) == 6
        assert stats.workers
        assert all(worker.isdigit() for worker in stats.workers)


# ---------------------------------------------------------------------
_EXPOSITION_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[a-zA-Z0-9_]+=\"[^\"]*\""        # first label
    r"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})?"   # more labels
    r" (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|NaN|[+-]Inf)$"
)


def _assert_valid_exposition(body: str) -> None:
    for line in body.rstrip("\n").split("\n"):
        if line.startswith("#"):
            assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ",
                            line), line
        else:
            assert _EXPOSITION_LINE.match(line), line


class TestPrometheus:
    def test_render_without_active_sweep(self):
        body = render_prometheus()
        assert "repro_up 1" in body
        assert "repro_run_sweeps_total" in body
        _assert_valid_exposition(body)

    def test_render_with_active_sweep(self):
        live_mod.add_listener(_noop_listener)
        stats = live_mod.sweep_begin("fig6", 8, run_id="run-x",
                                     backend="local", jobs=2)
        stats.fold_task(0, True, 0.1, _snapshot(3, 1.5, values=(0.5, 9.0)),
                        worker="w0")
        stats.fold_heartbeat(
            {"w0": {"worker": "w0", "age_s": 0.2, "inflight_chunk": 1}})
        body = render_prometheus()
        _assert_valid_exposition(body)
        assert ('repro_sweep_tasks_done{sweep="fig6",run_id="run-x",'
                'backend="local"} 1') in body
        assert 'worker="w0"' in body
        assert "repro_metric_live_test_total" in body
        # Histogram: cumulative buckets, +Inf, and _count agree.
        assert 'repro_metric_live_h_bucket' in body
        inf = re.search(r'repro_metric_live_h_bucket\{.*le="\+Inf"\} (\d+)',
                        body)
        count = re.search(r"repro_metric_live_h_count\{.*\} (\d+)", body)
        assert inf.group(1) == count.group(1) == "2"

    def test_eta_renders_nan_when_unknown(self):
        live_mod.add_listener(_noop_listener)
        live_mod.sweep_begin("s", 4)
        body = render_prometheus()
        assert re.search(r"repro_sweep_eta_seconds\{.*\} NaN", body)
        _assert_valid_exposition(body)

    def test_scrape_during_running_sweep(self):
        """A live fig6 is scrapeable mid-run with valid exposition."""
        server = live_mod.start_metrics_server(0)
        done = threading.Event()

        def run():
            try:
                fig6_performance(window=TINY,
                                 benchmarks=[get_profile("gzip")])
            finally:
                done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        body = ""
        deadline = time.monotonic() + 30.0
        try:
            while time.monotonic() < deadline:
                with urllib.request.urlopen(server.url, timeout=5) as resp:
                    assert resp.status == 200
                    assert resp.headers["Content-Type"].startswith(
                        "text/plain")
                    body = resp.read().decode("utf-8")
                if "repro_sweep_tasks_done" in body:
                    break
                time.sleep(0.01)
        finally:
            thread.join(timeout=60)
        assert done.is_set()
        assert "repro_sweep_tasks_done" in body
        _assert_valid_exposition(body)
        # After the sweep the stats stay scrapeable, now complete.
        final = render_prometheus()
        stats = live_mod.current()
        assert stats.finished
        assert "repro_sweep_tasks_done{" in final

    def test_resolve_metrics_port(self, monkeypatch):
        monkeypatch.delenv(live_mod.METRICS_PORT_ENV_VAR, raising=False)
        assert resolve_metrics_port(None) is None
        assert resolve_metrics_port(9109) == 9109
        assert resolve_metrics_port(0) == 0
        monkeypatch.setenv(live_mod.METRICS_PORT_ENV_VAR, "7070")
        assert resolve_metrics_port(None) == 7070
        assert resolve_metrics_port(1234) == 1234   # arg beats env
        monkeypatch.setenv(live_mod.METRICS_PORT_ENV_VAR, "lots")
        with pytest.raises(ConfigError):
            resolve_metrics_port(None)

    def test_endpoint_404_off_path(self):
        server = live_mod.start_metrics_server(0)
        url = f"http://{server.host}:{server.port}/nope"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url, timeout=5)
        assert err.value.code == 404


# ---------------------------------------------------------------------
class TestChromeTrace:
    def _records(self):
        spans = {
            "name": "task", "count": 1, "wall_s": 0.3, "cpu_s": 0.2,
            "children": {
                "sim": {"name": "sim", "count": 2, "wall_s": 0.2,
                        "cpu_s": 0.15, "children": {}},
                "merge": {"name": "merge", "count": 1, "wall_s": 0.05,
                          "cpu_s": 0.04, "children": {}},
            },
        }
        t0 = 1_700_000_000.0
        return [
            TaskTrace("fig6", 0, "gzip@1000", 0, "w0", 101, t0, 0.4,
                      spans=spans, run_id="run-z"),
            # Same worker, overlapping start (clock jitter): must clamp.
            TaskTrace("fig6", 1, "gzip@2000", 0, "w0", 101, t0 + 0.3, 0.4),
            TaskTrace("fig6", 2, "mcf@1000", 1, "w1", 102, t0 + 0.1, 0.2),
        ]

    def test_round_trip_and_structure(self, tmp_path):
        out = write_chrome_trace(tmp_path / "trace.json", self._records(),
                                 run_id="run-z")
        data = json.loads(out.read_text())
        events_ = data["traceEvents"]
        assert data["otherData"]["tasks"] == 3
        assert data["otherData"]["workers"] == 2
        tasks = [e for e in events_ if e.get("cat") == "task"]
        assert len(tasks) == 3
        # Metadata names every worker process.
        meta = {e["args"]["name"] for e in events_
                if e["name"] == "process_name"}
        assert meta == {"worker w0", "worker w1"}
        # Trace context rides on every task event.
        for e in tasks:
            assert e["args"]["run_id"] == "run-z"
            assert "chunk_id" in e["args"] and "task_key" in e["args"]

    def test_rows_are_monotonic_non_overlapping(self):
        data = chrome_trace(self._records())
        rows: dict = {}
        for e in data["traceEvents"]:
            if e.get("cat") != "task":
                continue
            rows.setdefault((e["pid"], e["tid"]), []).append(e)
        assert len(rows) == 2
        for row in rows.values():
            row.sort(key=lambda e: e["ts"])
            prev_end = 0.0
            for e in row:
                assert e["ts"] >= prev_end      # clamped, never overlaps
                assert e["dur"] > 0.0
                prev_end = e["ts"] + e["dur"]

    def test_span_events_nest_inside_task(self):
        data = chrome_trace(self._records())
        task = next(e for e in data["traceEvents"]
                    if e["name"] == "fig6[0]")
        spans = [e for e in data["traceEvents"]
                 if e["name"] in ("sim", "merge")]
        assert len(spans) == 2
        for e in spans:
            assert e["ts"] >= task["ts"]
            assert e["ts"] + e["dur"] <= task["ts"] + task["dur"] + 0.01
            assert e["args"]["count"] >= 1

    def test_root_span_dict_normalized(self):
        trace = TaskTrace("s", 0, "k", 0, "w", 1, 0.0, 1.0, spans={
            "name": "task", "count": 1, "wall_s": 1.0, "cpu_s": 1.0,
            "children": {"leaf": {"name": "leaf", "count": 1,
                                  "wall_s": 0.5, "cpu_s": 0.5,
                                  "children": {}}},
        })
        assert set(trace.spans) == {"leaf"}

    def test_empty_records(self):
        data = chrome_trace([], run_id="r")
        assert data["traceEvents"] == []
        assert data["otherData"]["run_id"] == "r"


# ---------------------------------------------------------------------
def _profiled_workload():
    total = 0
    for i in range(50):
        total += len(str(i ** 3))
    return total


class TestProfile:
    def test_enabled_requires_env_and_obs(self, monkeypatch):
        monkeypatch.delenv(profile_mod.PROFILE_ENV_VAR, raising=False)
        assert not profile_mod.enabled()
        monkeypatch.setenv(profile_mod.PROFILE_ENV_VAR, "1")
        assert profile_mod.enabled()
        metrics.set_enabled(False)          # kill switch outranks it
        assert not profile_mod.enabled()

    def test_collapse_produces_stacks(self):
        prof = profile_mod.start_profile()
        _profiled_workload()
        stacks = profile_mod.collapse(prof)
        assert stacks
        assert all(s > 0.0 for s in stacks.values())
        # Two-level format: bare roots or caller;callee pairs.
        assert all(stack.count(";") <= 1 for stack in stacks)

    def test_accumulator_folds_and_writes(self, tmp_path):
        acc = profile_mod.ProfileAccumulator()
        acc.fold({"a;b": 0.25, "c": 0.5})
        acc.fold({"a;b": 0.25, "tiny": 1e-9})
        assert acc.tasks == 2
        out = acc.write_collapsed(tmp_path / "p.collapsed")
        lines = out.read_text().splitlines()
        assert "a;b 500000" in lines
        assert "c 500000" in lines
        assert not any(line.startswith("tiny") for line in lines)
        for line in lines:                  # flamegraph.pl format
            stack, count = line.rsplit(" ", 1)
            assert stack and int(count) > 0

    def test_profile_flows_through_sweep(self, monkeypatch):
        monkeypatch.setenv(profile_mod.PROFILE_ENV_VAR, "1")
        acc = profile_mod.ProfileAccumulator()
        profile_mod.set_accumulator(acc)
        run_sweep(_bump_live, [1, 2, 3], jobs=1, label="profiled")
        assert acc.tasks == 3
        assert acc.stacks


# ---------------------------------------------------------------------
class TestEventFollower:
    def test_torn_trailing_line_buffered(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_bytes(b'{"event": "a"}\n{"event": "b"')
        follower = EventFollower(path)
        assert [r["event"] for r in follower.poll()] == ["a"]
        with path.open("ab") as fh:        # the writer finishes the line
            fh.write(b'}\n')
        assert [r["event"] for r in follower.poll()] == ["b"]
        assert follower.skipped == 0

    def test_corrupt_complete_lines_counted(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_bytes(b'not json\n{"event": "ok"}\n[1, 2]\n')
        follower = EventFollower(path)
        assert [r["event"] for r in follower.poll()] == ["ok"]
        assert follower.skipped == 2

    def test_missing_file_is_quietly_empty(self, tmp_path):
        follower = EventFollower(tmp_path / "later.jsonl")
        assert follower.poll() == []

    def test_resolve_events_path(self, tmp_path):
        f = tmp_path / "direct.jsonl"
        f.write_text("")
        assert resolve_events_path(f) == f
        old = tmp_path / "runs" / "old.jsonl"
        old.parent.mkdir()
        old.write_text("")
        new = tmp_path / "runs" / "new.jsonl"
        new.write_text("")
        import os
        os.utime(old, (1, 1))
        assert resolve_events_path(tmp_path / "runs") == new
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ConfigError):
            resolve_events_path(empty)

    def test_fold_event_reconstruction(self):
        now = time.time()
        stats = None
        stats = fold_event(stats, {
            "event": "sweep_begin", "ts": now, "label": "fig6",
            "tasks": 4, "run_id": "r", "executor": "local", "jobs": 2,
        })
        assert stats.tasks_total == 4 and stats.backend == "local"
        stats = fold_event(stats, {"event": "task_done", "ts": now,
                                   "wall_s": 0.5, "worker": "w0"})
        stats = fold_event(stats, {"event": "task_failed", "ts": now})
        # Event kinds of older streams (worker losses, requeues) pass
        # through without touching the aggregate.
        stats = fold_event(stats, {"event": "worker_lost", "ts": now,
                                   "worker": "w0", "reason": "crash"})
        stats = fold_event(stats, {"event": "chunk_requeued", "ts": now})
        stats = fold_event(stats, {"event": "lease_expired", "ts": now})
        stats = fold_event(stats, {"event": "sweep", "ts": now})
        assert stats.tasks_done == 2 and stats.tasks_ok == 1
        assert stats.failures == 1
        assert stats.workers["w0"].tasks_done == 1
        assert stats.lease_expiries == 1
        assert stats.finished

    def test_fold_event_before_begin_and_passthrough(self):
        assert fold_event(None, {"event": "task_done"}) is None
        stats = LiveStats("s", 1)
        same = fold_event(stats, {"event": "manifest"})
        assert same is stats and stats.tasks_done == 0

    def test_backlog_replay_does_not_spike_rate(self):
        # Replayed events keep their own timestamps in the rate window,
        # so a follower reading a backlog reports the rate the run
        # actually achieved — not thousands/s from stamping them "now".
        stats = LiveStats("s", 100)
        start = time.time() - 10.0          # a 10s-old, 5s-long run
        for i in range(50):
            stats = fold_event(stats, {"event": "task_done",
                                       "ts": start + i * 0.1,
                                       "wall_s": 0.1})
        assert stats.tasks_done == 50
        assert stats.rate() < 20.0          # ~64/10s window, not 50/ms
        # An hour-old run has aged out of the horizon entirely.
        ancient = LiveStats("s", 100)
        for i in range(50):
            ancient = fold_event(ancient, {"event": "task_done",
                                           "ts": time.time() - 3600 + i,
                                           "wall_s": 0.1})
        assert ancient.rate() == 0.0

    def test_format_event(self):
        line = format_event({"event": "task_done", "ts": 1700000000.0,
                             "label": "fig6", "task_index": 3,
                             "worker": "w1", "wall_s": 0.25})
        assert "task_done" in line
        assert "label=fig6" in line
        assert "task_index=3" in line
        assert "worker=w1" in line
        assert re.match(r"^\d\d:\d\d:\d\d ", line)


# ---------------------------------------------------------------------
class TestEventSinkFlush:
    def test_lines_visible_immediately(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        events.set_sink(path)
        events.emit("probe", run_id="r1")
        # Per-line flush: a concurrent follower sees the event without
        # the sink being closed first.
        follower = EventFollower(path)
        assert [r["event"] for r in follower.poll()] == ["probe"]
        events.set_sink(None)

    def test_fsync_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv(events.FSYNC_ENV_VAR, "1")
        path = tmp_path / "ev.jsonl"
        events.set_sink(path)
        events.emit("durable", run_id="r1")
        assert '"durable"' in path.read_text()
        events.set_sink(None)


# ---------------------------------------------------------------------
class TestCliTailTop:
    def _write_run(self, tmp_path) -> Path:
        path = tmp_path / "ev.jsonl"
        now = time.time()
        records = [
            {"event": "sweep_begin", "ts": now, "run_id": "run-t",
             "label": "fig6", "tasks": 2, "executor": "local", "jobs": 2},
            {"event": "task_done", "ts": now, "run_id": "run-t",
             "label": "fig6", "task_index": 0, "wall_s": 0.5,
             "worker": "w0"},
            {"event": "task_done", "ts": now, "run_id": "run-t",
             "label": "fig6", "task_index": 1, "wall_s": 0.4,
             "worker": "w1"},
            {"event": "sweep", "ts": now, "run_id": "run-t",
             "label": "fig6", "tasks": 2},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_tail_prints_backlog(self, tmp_path, capsys):
        path = self._write_run(tmp_path)
        assert main(["tail", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sweep_begin" in out
        assert "task_done" in out
        assert "worker=w0" in out

    def test_tail_follow_exits_when_idle(self, tmp_path, capsys):
        path = self._write_run(tmp_path)
        assert main(["tail", str(path), "--follow", "--interval", "0.05",
                     "--exit-idle-s", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "task_done" in out
        assert "exiting" in out

    def test_top_once_renders_dashboard(self, tmp_path, capsys):
        path = self._write_run(tmp_path)
        assert main(["top", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "fig6 · local · jobs=2" in out
        assert "2/2" in out
        assert "done" in out

    def test_top_reports_empty_stream(self, tmp_path, capsys):
        path = tmp_path / "ev.jsonl"
        path.write_text("")
        assert main(["top", str(path), "--once"]) == 0
        assert "no sweep events" in capsys.readouterr().out


class TestCliLiveSweep:
    def test_fig6_live_with_telemetry_exports(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        trace = tmp_path / "trace.json"
        ev = tmp_path / "ev.jsonl"
        code = main([
            "fig6", "--benchmarks", "gzip", "--window", "1500",
            "--jobs", "1",
            "--progress", "live", "--metrics-port", "0",
            "--trace-export", str(trace), "--trace-out", str(ev),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving metrics at http://127.0.0.1:" in out
        assert "wrote trace" in out
        data = json.loads(trace.read_text())
        tasks = [e for e in data["traceEvents"] if e.get("cat") == "task"]
        assert len(tasks) == 4              # gzip x 4 window configs
        follower = EventFollower(ev)
        kinds = [r["event"] for r in follower.poll()]
        assert "sweep_begin" in kinds and "task_done" in kinds
        # The CLI tears its consumers down afterwards.
        assert live_mod.get_metrics_server() is None
        assert export_mod.get_collector() is None

    def test_profile_flag_writes_collapsed(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(profile_mod.PROFILE_ENV_VAR, raising=False)
        prof = tmp_path / "prof.collapsed"
        code = main([
            "fig6", "--benchmarks", "gzip", "--window", "1500",
            "--jobs", "1",
            "--profile", str(prof),
        ])
        assert code == 0
        assert "wrote profile" in capsys.readouterr().out
        lines = prof.read_text().splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
        # The env knob is restored afterwards.
        import os
        assert profile_mod.PROFILE_ENV_VAR not in os.environ
