"""Executor backends (inline, local pool) and the backend-agnostic scheduler.

Covers backend selection from the worker count, per-backend equivalence
to the serial path, the shared heartbeat schema, fig6 under worker-kill
chaos on both backends, the at-most-once result commit (including a
hypothesis interleaving property), the no-SIGALRM timeout fallback,
truncated-checkpoint recovery, and gc hardening.
"""

import dataclasses
import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import memo
from repro.common.errors import ConfigError
from repro.experiments import chaos as chaos_mod
from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments import engine
from repro.experiments import executors as executors_mod
from repro.experiments.chaos import ChaosPolicy
from repro.experiments.engine import TaskPolicy, run_sweep
from repro.experiments.executors import (
    InlineExecutor,
    LocalPoolExecutor,
    make_executor,
    resolve_executor,
)
from repro.experiments.perf import fig6_performance
from repro.experiments.runner import SimulationWindow
from repro.obs import events, metrics
from repro.obs.metrics import MetricsSnapshot, merge_snapshots
from repro.obs.tracing import span_structure
from repro.workloads.profiles import get_profile

TINY = SimulationWindow(warmup=2000, measured=6000)


@pytest.fixture(autouse=True)
def _clean_engine():
    engine.clear_timings()
    engine.set_default_policy(None)
    engine.set_default_jobs(None)
    chaos_mod.set_chaos(None)
    checkpoint_mod.set_checkpoint_dir(None)
    yield
    engine.clear_timings()
    engine.set_default_policy(None)
    engine.set_default_jobs(None)
    chaos_mod.set_chaos(None)
    checkpoint_mod.set_checkpoint_dir(None)


# -- module-level worker functions (must pickle into workers) -----------

def _double(x):
    return x * 2


def _bump_delta(x):
    m = metrics.get_registry()
    m.counter("exectest.calls").inc()
    m.histogram("exectest.values", (2.0, 5.0)).observe(min(x, 9))
    return x + 1


def _sleepy_once(item):
    value, marker = item
    path = Path(marker)
    if not path.exists():
        path.write_text("attempted")
        time.sleep(0.5)
    return value * 2


# ---------------------------------------------------------------------
class TestSelection:
    def test_precedence_argument_default_env_auto(self, monkeypatch):
        # The backend follows the resolved worker count, whose own
        # precedence is argument, then set_default_jobs, then REPRO_JOBS.
        def backend(jobs=None):
            return resolve_executor(engine.resolve_jobs(jobs))

        monkeypatch.setenv(engine.JOBS_ENV_VAR, "1")
        assert backend() == "inline"
        monkeypatch.setenv(engine.JOBS_ENV_VAR, "3")
        assert backend() == "local"
        engine.set_default_jobs(1)
        assert backend() == "inline"      # default beats env
        assert backend(4) == "local"      # argument beats all
        assert resolve_executor(1) == "inline"
        assert resolve_executor(None) == "inline"
        assert resolve_executor(2) == "local"

    def test_unknown_names_raise(self):
        for name in ("carrier-pigeon", "socket"):
            with pytest.raises(ConfigError):
                make_executor(name, fn=_double, policy=TaskPolicy(),
                              chaos=None)

    def test_make_executor_builds_the_named_backend(self):
        context = dict(fn=_double, policy=TaskPolicy(), chaos=None)
        assert isinstance(make_executor("inline", **context), InlineExecutor)
        assert isinstance(make_executor("local", **context), LocalPoolExecutor)

    def test_sweep_records_backend_name(self):
        _results, timing = run_sweep(_double, [1, 2], jobs=1)
        assert timing.executor == "inline"
        assert timing.backends == ["inline"]
        _results, timing = run_sweep(_double, [1, 2], jobs=2, chunksize=1)
        assert timing.executor == "local"
        assert timing.backends == ["local"]


# ---------------------------------------------------------------------
#: The worker count that selects each backend.
_JOBS = {"inline": 1, "local": 2}


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["inline", "local"])
    def test_results_and_metrics_match_serial(self, backend):
        clean, clean_t = run_sweep(_bump_delta, list(range(6)), jobs=1,
                                   record=False)
        got, timing = run_sweep(
            _bump_delta, list(range(6)), jobs=_JOBS[backend], chunksize=2,
            record=False,
        )
        assert got == clean
        assert timing.executor == backend
        assert timing.metrics.counters == clean_t.metrics.counters
        assert timing.metrics.histograms == clean_t.metrics.histograms


# ---------------------------------------------------------------------
def _schema_ok(heartbeat: dict) -> bool:
    """Every backend's heartbeat() speaks the same documented schema."""
    for worker, info in heartbeat.items():
        assert isinstance(worker, str)
        assert info["worker"] == worker
        assert isinstance(info["age_s"], float) and info["age_s"] >= 0.0
        assert info["inflight_chunk"] is None \
            or isinstance(info["inflight_chunk"], int)
    return True


class TestHeartbeatSchema:
    def test_inline_reports_itself(self):
        ex = make_executor("inline", fn=_double, policy=TaskPolicy(),
                           chaos=None)
        assert _schema_ok(ex.heartbeat())
        assert ex.heartbeat()["inline"]["inflight_chunk"] is None
        ex.submit_chunk(7, [(0, 0, 1), (1, 0, 2)])
        ex.poll()       # one task per poll: the chunk is now current
        assert _schema_ok(ex.heartbeat())
        assert ex.heartbeat()["inline"]["inflight_chunk"] == 7
        ex.poll()       # second task drains the chunk
        assert ex.heartbeat()["inline"]["inflight_chunk"] is None
        ex.shutdown()

    def test_local_reports_pool_pids(self):
        ex = make_executor("local", fn=_double, policy=TaskPolicy(),
                           chaos=None, jobs=2)
        assert ex.heartbeat() == {}     # pool not built yet
        try:
            ex.submit_chunk(0, [(0, 0, 1)])
            deadline = time.monotonic() + 10.0
            heartbeat = {}
            while time.monotonic() < deadline and not heartbeat:
                ex.poll(timeout_s=0.1)
                heartbeat = ex.heartbeat()
            assert heartbeat
            assert _schema_ok(heartbeat)
            for worker, info in heartbeat.items():
                assert worker == str(int(worker))   # OS pids
                assert info["age_s"] == 0.0         # liveness is implicit
        finally:
            ex.shutdown(kill=True)


# ---------------------------------------------------------------------
class TestFig6AcrossBackends:
    """fig6 on every backend under worker-kill chaos is bit-identical to
    a clean serial run."""

    _clean: dict = {}

    @classmethod
    def _clean_run(cls):
        if not cls._clean:
            benchmarks = [get_profile(n) for n in ("gzip", "mcf")]
            memo.clear_cache()
            run = events.begin_run("fig6-exec-clean")
            rows = fig6_performance(window=TINY, benchmarks=benchmarks,
                                    jobs=1)
            cls._clean["rows"] = [dataclasses.asdict(r) for r in rows]
            cls._clean["metrics"] = engine.run_metrics(run)
        return cls._clean["rows"], cls._clean["metrics"]

    @pytest.mark.parametrize("backend", ["inline", "local"])
    def test_transport_chaos_is_bit_identical_to_serial(self, backend):
        # Chaos crosses the process boundary only as worker kills: the
        # pool attributes each crash and reruns the chunk clean, while
        # inline skips kills outright.
        benchmarks = [get_profile(n) for n in ("gzip", "mcf")]
        n_tasks = len(benchmarks) * 4
        seed = next(
            s for s in range(500)
            if any(ChaosPolicy(kill_p=0.15, seed=s).kills(i, 0)
                   for i in range(n_tasks))
        )
        chaos = ChaosPolicy(kill_p=0.15, seed=seed)
        clean_rows, clean_metrics = self._clean_run()

        memo.clear_cache()
        chaos_mod.set_chaos(chaos)
        engine.set_default_policy(TaskPolicy(max_retries=2))
        run = events.begin_run(f"fig6-exec-{backend}")
        noisy = fig6_performance(window=TINY, benchmarks=benchmarks,
                                 jobs=_JOBS[backend])
        noisy_metrics = engine.run_metrics(run)
        timing = engine.timings(run)[-1]

        assert timing.executor == backend
        assert timing.failures == 0
        assert [dataclasses.asdict(r) for r in noisy] == clean_rows
        assert noisy_metrics.counters == clean_metrics.counters
        assert noisy_metrics.histograms == clean_metrics.histograms
        assert noisy_metrics.gauges == clean_metrics.gauges
        assert span_structure(noisy_metrics.spans) == span_structure(
            clean_metrics.spans
        )


# ---------------------------------------------------------------------
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n=st.integers(1, 8),
    order=st.lists(st.integers(0, 7), max_size=30),
)
def test_any_result_interleaving_commits_at_most_once(n, order):
    """Property: whatever interleaving of duplicated or lost chunk
    results reaches the scheduler, every task key commits exactly once
    (first delivery wins) and the merged metrics equal those of a
    single clean delivery per task."""
    tasks = list(range(n))
    timing = engine.SweepTiming(label="interleave", jobs=1)
    state = engine._SweepState(
        tasks, "interleave", TaskPolicy(fail_fast=False), timing, None,
    )
    deliveries = [i % n for i in order]
    for serial, i in enumerate(deliveries):
        # Duplicate deliveries of a committed key carry a *different*
        # payload, so a second commit would be visible in the results.
        state.absorb(engine._TaskOutcome(
            index=i, ok=True, result=(i, serial), wall_s=0.001,
            metrics=MetricsSnapshot(counters={f"task.{i}": 1}),
            attempts=1,
        ))
    first_delivery = {}
    for serial, i in enumerate(deliveries):
        first_delivery.setdefault(i, serial)
    for i in range(n):
        if i in first_delivery:
            assert state.results[i] == (i, first_delivery[i])
        else:
            assert state.results[i] is None        # lost, never committed
    assert timing.duplicate_results == len(deliveries) - len(first_delivery)
    merged = merge_snapshots(s for s in state.snapshots if s is not None)
    assert merged.counters == {
        f"task.{i}": 1 for i in sorted(first_delivery)
    }


# ---------------------------------------------------------------------
class TestAlarmFallback:
    def test_overlong_finished_attempt_counts_as_timeout(self, monkeypatch,
                                                         tmp_path):
        # Without SIGALRM the deadline cannot interrupt the attempt, but
        # an attempt that *finishes* overlong is still discarded and
        # retried — same accounting as a fired alarm.
        monkeypatch.setattr(executors_mod, "_HAS_ALARM", False)
        assert not executors_mod._alarm_usable()
        items = [(i, str(tmp_path / f"m{i}")) for i in range(2)]
        results, timing = run_sweep(
            _sleepy_once, items, jobs=1,
            policy=TaskPolicy(timeout_s=0.2, max_retries=1),
        )
        assert results == [0, 2]
        assert timing.timeouts == 2
        assert timing.retries == 2
        assert timing.failures == 0

    def test_deadline_is_a_noop_without_alarm(self, monkeypatch):
        monkeypatch.setattr(executors_mod, "_HAS_ALARM", False)
        with executors_mod._deadline(0.01):
            time.sleep(0.05)      # would raise if the timer were armed


# ---------------------------------------------------------------------
def _record_call(item):
    value, marker = item
    with open(marker, "a") as fh:
        fh.write("x")
    return value * 3


class TestCheckpointTruncation:
    def test_garbage_line_is_skipped_with_event(self, tmp_path):
        checkpoint_mod.set_checkpoint_dir(tmp_path / "ck")
        run_id = events.begin_run("ckpt-garbage")
        items = [(i, str(tmp_path / f"calls-{i}")) for i in range(3)]
        run_sweep(_record_call, items, jobs=1, chunksize=1, label="g")
        ckpt_file = tmp_path / "ck" / run_id / "g.jsonl"
        lines = ckpt_file.read_text().splitlines()
        lines[1] = '{"corrupt": '             # torn mid-write
        ckpt_file.write_text("\n".join(lines) + "\n")
        for _value, marker in items:
            Path(marker).unlink()
        sink = tmp_path / "events.jsonl"
        events.set_sink(sink)
        try:
            results, timing = run_sweep(_record_call, items, jobs=1,
                                        chunksize=1, label="g")
        finally:
            events.set_sink(None)
        assert results == [0, 3, 6]
        assert timing.resumed_tasks == 2     # only the torn task re-ran
        assert (tmp_path / "calls-1").exists()
        assert not (tmp_path / "calls-0").exists()
        recorded = [json.loads(line) for line in
                    sink.read_text().splitlines()]
        truncated = [r for r in recorded
                     if r["event"] == "checkpoint_truncated"]
        assert truncated and truncated[0]["skipped_lines"] == 1

    def test_undecodable_payload_reruns_the_task(self, tmp_path):
        checkpoint_mod.set_checkpoint_dir(tmp_path / "ck")
        run_id = events.begin_run("ckpt-payload")
        items = [(i, str(tmp_path / f"calls-{i}")) for i in range(2)]
        run_sweep(_record_call, items, jobs=1, chunksize=1, label="p")
        ckpt_file = tmp_path / "ck" / run_id / "p.jsonl"
        lines = ckpt_file.read_text().splitlines()
        record = json.loads(lines[0])
        record["result"] = "!!not-base64!!"
        lines[0] = json.dumps(record)
        ckpt_file.write_text("\n".join(lines) + "\n")
        for _value, marker in items:
            Path(marker).unlink()
        results, timing = run_sweep(_record_call, items, jobs=1,
                                    chunksize=1, label="p")
        assert results == [0, 3]
        assert timing.resumed_tasks == 1
        assert (tmp_path / "calls-0").exists()   # re-ran
        assert not (tmp_path / "calls-1").exists()


class TestGcHardening:
    def test_unreadable_run_dir_is_skipped(self, tmp_path, monkeypatch):
        for name in ("run-a", "run-b"):
            run = tmp_path / name
            run.mkdir()
            (run / "sweep.jsonl").write_text("x" * 50)
        real_mtime = checkpoint_mod._run_mtime

        def _flaky_mtime(run_dir):
            if run_dir.name == "run-a":
                raise OSError("permission denied")
            return real_mtime(run_dir)

        monkeypatch.setattr(checkpoint_mod, "_run_mtime", _flaky_mtime)
        report = checkpoint_mod.gc_checkpoints(tmp_path, keep_last=0,
                                               dry_run=True)
        assert report.skipped == ["run-a"]
        assert report.removed == ["run-b"]
        assert report.reclaimed_bytes == 50
        assert report.reclaimed_files == 1
        assert (tmp_path / "run-a").exists()

    def test_dry_run_reports_bytes_and_file_counts(self, tmp_path):
        run = tmp_path / "run-a"
        run.mkdir()
        (run / "one.jsonl").write_text("x" * 30)
        (run / "two.jsonl").write_text("y" * 20)
        report = checkpoint_mod.gc_checkpoints(tmp_path, keep_last=0,
                                               dry_run=True)
        assert report.dry_run
        assert report.reclaimed_bytes == 50
        assert report.reclaimed_files == 2
        assert run.exists()
