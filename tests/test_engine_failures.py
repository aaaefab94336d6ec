"""Failure paths of the fault-tolerant sweep engine.

Covers the resilience policy (retries, timeouts, fail-fast vs. collect),
broken-pool recovery and serial degradation, checkpoint resume, and the
chaos hook — including the acceptance criterion that a chaos-disturbed
parallel fig6 sweep is bit-identical to an undisturbed serial one.
"""

import dataclasses
import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.common import memo
from repro.common.errors import (
    ConfigError,
    SweepAbortedError,
    TaskError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.experiments import chaos as chaos_mod
from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments import engine
from repro.experiments.chaos import ChaosPolicy
from repro.experiments.engine import TaskPolicy, run_sweep
from repro.experiments.perf import fig6_performance
from repro.experiments.runner import SimulationWindow
from repro.obs import events, metrics
from repro.obs.tracing import span_structure
from repro.workloads.profiles import get_profile

TINY = SimulationWindow(warmup=2000, measured=6000)


@pytest.fixture(autouse=True)
def _clean_engine():
    engine.clear_timings()
    engine.set_default_policy(None)
    chaos_mod.set_chaos(None)
    checkpoint_mod.set_checkpoint_dir(None)
    yield
    engine.clear_timings()
    engine.set_default_policy(None)
    chaos_mod.set_chaos(None)
    checkpoint_mod.set_checkpoint_dir(None)


# -- module-level worker functions (must pickle into pool workers) ------

def _double(x):
    return x * 2


def _fail_even(x):
    if x % 2 == 0:
        raise ValueError(f"even task {x}")
    return x * 10


def _flaky_once(item):
    # Fails the first attempt, succeeds afterwards; the marker file makes
    # the flakiness visible across process boundaries.
    value, marker = item
    path = Path(marker)
    if not path.exists():
        path.write_text("attempted")
        raise RuntimeError(f"transient failure for {value}")
    return value * 2


def _hang_once(item):
    value, marker = item
    path = Path(marker)
    if not path.exists():
        path.write_text("attempted")
        time.sleep(30.0)
    return value + 1


def _hang(x):
    time.sleep(30.0)
    return x


def _stubborn_even(x):
    # Even tasks swallow every interrupt — including the engine's
    # in-worker SIGALRM — and keep sleeping; only the controller-side
    # deadline backstop can end them.
    if x % 2 == 0:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                time.sleep(0.5)
            except BaseException:
                pass
    return x * 2


def _swallow_first_alarm(x):
    # Swallows exactly one in-process alarm, then keeps sleeping.  Only
    # the repeating interval timer (which re-fires every period) can end
    # it; a one-shot alarm would leave it sleeping for 30s.
    try:
        time.sleep(30.0)
    except BaseException:
        time.sleep(30.0)
    return x


def _record_call(item):
    value, marker = item
    with open(marker, "a") as fh:
        fh.write("x")
    return value * 3


def _fail_unless_marker(item):
    value, marker = item
    if not Path(marker).exists():
        raise RuntimeError(f"no marker yet for {value}")
    return value * 7


def _crash_in_worker(x):
    # Dies hard in any pool worker; completes in the main process, so a
    # degraded-to-serial sweep can finish.
    if multiprocessing.current_process().name != "MainProcess":
        os._exit(13)
    return x * 3


def _bump_delta(x):
    m = metrics.get_registry()
    m.counter("failtest.calls").inc()
    m.histogram("failtest.values", (2.0, 5.0)).observe(min(x, 9))
    return x + 1


# ---------------------------------------------------------------------
class TestTaskPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TaskPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            TaskPolicy(timeout_s=0.0)
        with pytest.raises(ConfigError):
            TaskPolicy(backoff_s=-1.0)
        with pytest.raises(ConfigError):
            TaskPolicy(max_pool_rebuilds=-2)
        # The socket backend's requeue and respawn budgets are gone.
        for name in ("max_requeues", "max_respawns", "respawn_backoff_s"):
            with pytest.raises(TypeError):
                TaskPolicy(**{name: 1})

    def test_backoff_deterministic_jitter(self):
        policy = TaskPolicy(backoff_s=0.1, max_backoff_s=10.0)
        first = policy.backoff(3, 1)
        assert first == policy.backoff(3, 1)       # reproducible
        assert first != policy.backoff(4, 1)       # decorrelated by index
        assert 0.1 <= first <= 0.15                # base .. base * 1.5
        assert policy.backoff(3, 4) > policy.backoff(3, 1)  # exponential
        assert policy.backoff(3, 40) <= 10.0 * 1.5          # capped
        assert TaskPolicy().backoff(3, 1) == 0.0


class TestChaosPolicy:
    def test_parse_round_trip(self):
        policy = ChaosPolicy.parse(
            "worker-kill:0.1,task-fail:0.05,task-delay:0.2:0.5,seed:7"
        )
        assert policy.kill_p == 0.1
        assert policy.fail_p == 0.05
        assert policy.delay_p == 0.2
        assert policy.delay_s == 0.5
        assert policy.seed == 7

    def test_parse_rejects_garbage(self, capsys):
        with pytest.raises(ConfigError):
            ChaosPolicy.parse("explode:0.5")
        with pytest.raises(ConfigError):
            ChaosPolicy.parse("task-fail")
        with pytest.raises(ConfigError):
            ChaosPolicy.parse("task-fail:lots")
        with pytest.raises(ConfigError):
            ChaosPolicy(fail_p=1.5)
        # The socket backend's transport and supervision kinds (and
        # their aliases) are unknown now, not silently ignored.
        for kind in ("heartbeat-drop", "hb-drop", "result-dup", "dup",
                     "result-delay", "frame-delay", "worker-hang", "hang",
                     "respawn-fail", "respawn"):
            with pytest.raises(ConfigError, match="unknown chaos kind"):
                ChaosPolicy.parse(f"{kind}:0.3")
        capsys.readouterr()
        assert main(["fig6", "--chaos", "heartbeat-drop:0.3"]) == 2
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.strip()] == [
            "error: unknown chaos kind 'heartbeat-drop' in "
            "'heartbeat-drop:0.3'"
        ]

    def test_only_first_attempts_are_disturbed(self):
        policy = ChaosPolicy(fail_p=1.0, kill_p=1.0)
        assert policy.fails(0, 0) and policy.kills(0, 0)
        assert not policy.fails(0, 1) and not policy.kills(0, 1)

    def test_env_var_and_override(self, monkeypatch):
        monkeypatch.setenv(chaos_mod.CHAOS_ENV_VAR, "task-fail:0.25")
        assert chaos_mod.current_chaos().fail_p == 0.25
        chaos_mod.set_chaos(ChaosPolicy(fail_p=0.75))
        assert chaos_mod.current_chaos().fail_p == 0.75
        chaos_mod.set_chaos(None)
        monkeypatch.delenv(chaos_mod.CHAOS_ENV_VAR)
        assert chaos_mod.current_chaos() is None

    def test_serial_inject_skips_kills(self):
        # In-process execution must never kill the interpreter.
        ChaosPolicy(kill_p=1.0).inject(0, 0, in_worker=False)


class TestEnvPolicy:
    def test_unset_env_yields_no_policy(self, monkeypatch):
        monkeypatch.delenv(engine.RETRIES_ENV_VAR, raising=False)
        monkeypatch.delenv(engine.TASK_TIMEOUT_ENV_VAR, raising=False)
        assert engine.policy_from_env() is None

    def test_env_knobs_override_base_fields(self, monkeypatch):
        monkeypatch.setenv(engine.RETRIES_ENV_VAR, "2")
        monkeypatch.setenv(engine.TASK_TIMEOUT_ENV_VAR, "1.5")
        policy = engine.policy_from_env()
        assert policy.max_retries == 2
        assert policy.timeout_s == 1.5
        assert policy.fail_fast is True            # untouched base field

    def test_bad_env_values_raise_config_error(self, monkeypatch):
        monkeypatch.setenv(engine.RETRIES_ENV_VAR, "two")
        with pytest.raises(ConfigError):
            engine.policy_from_env()
        monkeypatch.setenv(engine.RETRIES_ENV_VAR, "1")
        monkeypatch.setenv(engine.TASK_TIMEOUT_ENV_VAR, "soon")
        with pytest.raises(ConfigError):
            engine.policy_from_env()

    def test_explicit_and_default_outrank_env(self, monkeypatch):
        monkeypatch.setenv(engine.RETRIES_ENV_VAR, "5")
        assert engine.resolve_policy(TaskPolicy(max_retries=1)).max_retries == 1
        engine.set_default_policy(TaskPolicy(max_retries=3))
        assert engine.resolve_policy(None).max_retries == 3
        engine.set_default_policy(None)
        assert engine.resolve_policy(None).max_retries == 5

    def test_env_retries_drive_sweep(self, monkeypatch, tmp_path):
        monkeypatch.setenv(engine.RETRIES_ENV_VAR, "2")
        items = [(4, str(tmp_path / "marker"))]
        results, timing = run_sweep(_flaky_once, items, jobs=1)
        assert results == [8]
        assert timing.retries == 1

    def test_env_timeout_drives_sweep(self, monkeypatch):
        monkeypatch.setenv(engine.TASK_TIMEOUT_ENV_VAR, "0.2")
        with pytest.raises(SweepAbortedError) as excinfo:
            run_sweep(_hang, [1], jobs=1)
        assert isinstance(excinfo.value.failures[0], TaskTimeoutError)


class TestCheckpointGc:
    @staticmethod
    def _make_run(root, name, age_s=0.0, payload=b"x" * 100):
        run = root / name
        run.mkdir(parents=True)
        path = run / "sweep.jsonl"
        path.write_bytes(payload)
        if age_s:
            stamp = time.time() - age_s
            os.utime(path, (stamp, stamp))
            os.utime(run, (stamp, stamp))
        return run

    def test_requires_a_retention_policy(self, tmp_path):
        with pytest.raises(ConfigError):
            checkpoint_mod.gc_checkpoints(tmp_path)
        with pytest.raises(ConfigError):
            checkpoint_mod.gc_checkpoints(tmp_path, keep_last=-1)

    def test_keep_last_removes_least_recent(self, tmp_path):
        for i, age in enumerate([300.0, 200.0, 100.0]):
            self._make_run(tmp_path, f"run-{i}", age_s=age)
        report = checkpoint_mod.gc_checkpoints(tmp_path, keep_last=2)
        assert report.removed == ["run-0"]
        assert sorted(report.kept) == ["run-1", "run-2"]
        assert not (tmp_path / "run-0").exists()
        assert (tmp_path / "run-2").exists()

    def test_max_age_and_dry_run(self, tmp_path):
        self._make_run(tmp_path, "old", age_s=10 * 86400.0)
        self._make_run(tmp_path, "new")
        dry = checkpoint_mod.gc_checkpoints(
            tmp_path, max_age_days=7, dry_run=True
        )
        assert dry.removed == ["old"] and dry.kept == ["new"]
        assert dry.reclaimed_bytes == 100
        assert (tmp_path / "old").exists()      # dry run deletes nothing
        real = checkpoint_mod.gc_checkpoints(tmp_path, max_age_days=7)
        assert real.removed == ["old"]
        assert not (tmp_path / "old").exists()
        assert (tmp_path / "new").exists()

    def test_missing_root_is_an_empty_report(self, tmp_path):
        report = checkpoint_mod.gc_checkpoints(tmp_path / "nope", keep_last=1)
        assert report.removed == [] and report.kept == []


# ---------------------------------------------------------------------
class TestRetries:
    def test_retry_then_succeed_serial(self, tmp_path):
        items = [(i, str(tmp_path / f"m{i}")) for i in range(3)]
        results, timing = run_sweep(
            _flaky_once, items, jobs=1, policy=TaskPolicy(max_retries=2),
        )
        assert results == [0, 2, 4]
        assert timing.retries == 3
        assert timing.failures == 0

    def test_retry_then_succeed_pool(self, tmp_path):
        items = [(i, str(tmp_path / f"m{i}")) for i in range(4)]
        results, timing = run_sweep(
            _flaky_once, items, jobs=2, chunksize=1,
            policy=TaskPolicy(max_retries=1),
        )
        assert results == [0, 2, 4, 6]
        assert timing.retries == 4
        assert timing.failures == 0

    def test_fail_fast_raises_sweep_aborted(self):
        with pytest.raises(SweepAbortedError) as excinfo:
            run_sweep(_fail_even, [1, 3, 4], jobs=1)
        error = excinfo.value
        assert error.label == "sweep"
        assert len(error.failures) == 1
        failure = error.failures[0]
        assert isinstance(failure, TaskError)
        assert failure.task_index == 2
        assert failure.attempts == 1
        assert "ValueError" in failure.worker_traceback
        assert isinstance(error.__cause__, TaskError)

    def test_collect_errors_returns_none_slots(self):
        results, timing = run_sweep(
            _fail_even, [0, 1, 2, 3], jobs=1,
            policy=TaskPolicy(fail_fast=False, max_retries=1),
        )
        assert results == [None, 10, None, 30]
        assert timing.failures == 2
        assert timing.retries == 2       # each failing task retried once
        assert timing.tasks == 4

    def test_default_policy_hook(self):
        engine.set_default_policy(TaskPolicy(fail_fast=False))
        results, timing = run_sweep(_fail_even, [2, 5], jobs=1)
        assert results == [None, 50]
        assert timing.failures == 1


class TestTimeouts:
    def test_timeout_kills_and_retry_recovers_serial(self, tmp_path):
        items = [(i, str(tmp_path / f"m{i}")) for i in range(2)]
        results, timing = run_sweep(
            _hang_once, items, jobs=1,
            policy=TaskPolicy(timeout_s=0.4, max_retries=1),
        )
        assert results == [1, 2]
        assert timing.timeouts == 2
        assert timing.retries == 2
        assert timing.failures == 0

    def test_timeout_kills_and_retry_recovers_pool(self, tmp_path):
        items = [(i, str(tmp_path / f"m{i}")) for i in range(2)]
        results, timing = run_sweep(
            _hang_once, items, jobs=2, chunksize=1,
            policy=TaskPolicy(timeout_s=0.4, max_retries=1),
        )
        assert results == [1, 2]
        assert timing.timeouts == 2

    def test_timeout_without_retries_aborts(self):
        with pytest.raises(SweepAbortedError) as excinfo:
            run_sweep(_hang, [1], jobs=1, policy=TaskPolicy(timeout_s=0.2))
        failure = excinfo.value.failures[0]
        assert isinstance(failure, TaskTimeoutError)
        assert failure.timeout_s == 0.2

    def test_swallowed_alarm_rearms_in_process(self):
        # A task that catches the first _TaskTimeout must still die: the
        # deadline timer repeats at the timeout interval, so the second
        # firing lands inside the task's recovery sleep.  With a one-shot
        # timer this would hang for the worker's full 30s sleep.
        start = time.monotonic()
        with pytest.raises(SweepAbortedError) as excinfo:
            run_sweep(
                _swallow_first_alarm, [5], jobs=1,
                policy=TaskPolicy(timeout_s=0.2),
            )
        assert isinstance(excinfo.value.failures[0], TaskTimeoutError)
        assert time.monotonic() - start < 10.0


class TestControllerDeadline:
    def test_stubborn_task_cannot_hang_the_sweep(self):
        # The stubborn task swallows the in-worker alarm; the wave-level
        # deadline must end it while the healthy task's result survives.
        results, timing = run_sweep(
            _stubborn_even, [0, 3], jobs=2, chunksize=1,
            policy=TaskPolicy(timeout_s=0.3, fail_fast=False),
        )
        assert results == [None, 6]
        assert timing.timeouts >= 1
        assert timing.failures == 1

    def test_stubborn_task_aborts_under_fail_fast(self):
        # Two tasks so the sweep actually takes the pooled path (a lone
        # task is clamped to jobs=1 and runs in-process).
        with pytest.raises(SweepAbortedError) as excinfo:
            run_sweep(
                _stubborn_even, [0, 1], jobs=2, chunksize=1,
                policy=TaskPolicy(timeout_s=0.3),
            )
        failure = excinfo.value.failures[0]
        assert isinstance(failure, TaskTimeoutError)
        assert "controller deadline" in str(failure)


class TestPoolRecovery:
    def test_chaos_kill_rebuilds_pool(self):
        results, timing = run_sweep(
            _double, [1, 2, 3, 4], jobs=2, chunksize=1,
            chaos=ChaosPolicy(kill_p=1.0),
        )
        assert results == [2, 4, 6, 8]
        assert timing.pool_rebuilds >= 1
        assert not timing.degraded
        assert timing.failures == 0

    def test_repeated_crashes_degrade_to_serial(self):
        results, timing = run_sweep(
            _crash_in_worker, [1, 2, 3], jobs=2, chunksize=1,
            policy=TaskPolicy(max_pool_rebuilds=2),
        )
        assert results == [3, 6, 9]
        assert timing.pool_rebuilds == 3
        assert timing.degraded

    def test_degradation_disabled_raises(self):
        with pytest.raises(WorkerCrashError) as excinfo:
            run_sweep(
                _crash_in_worker, [1, 2], jobs=2, chunksize=1,
                policy=TaskPolicy(max_pool_rebuilds=0, degrade_serial=False),
            )
        assert excinfo.value.rebuilds == 1


# ---------------------------------------------------------------------
class TestCheckpointResume:
    def test_full_restore_skips_execution(self, tmp_path):
        checkpoint_mod.set_checkpoint_dir(tmp_path / "ck")
        events.begin_run("ckpt-full")
        items = [(i, str(tmp_path / f"calls-{i}")) for i in range(6)]
        first, t1 = run_sweep(_record_call, items, jobs=1, chunksize=1,
                              label="ck")
        assert t1.resumed_tasks == 0
        second, t2 = run_sweep(_record_call, items, jobs=1, chunksize=1,
                               label="ck")
        assert second == first == [0, 3, 6, 9, 12, 15]
        assert t2.resumed_tasks == 6
        # Not a single task re-executed on resume.
        for _value, marker in items:
            assert Path(marker).read_text() == "x"

    def test_partial_restore_is_chunk_granular(self, tmp_path):
        checkpoint_mod.set_checkpoint_dir(tmp_path / "ck")
        run_id = events.begin_run("ckpt-partial")
        items = [(i, str(tmp_path / f"calls-{i}")) for i in range(6)]
        run_sweep(_record_call, items, jobs=1, chunksize=2, label="ck")
        ckpt_file = tmp_path / "ck" / run_id / "ck.jsonl"
        lines = ckpt_file.read_text().splitlines()
        assert len(lines) == 6
        # Keep chunk 0 whole and chunk 1 half-finished: the half chunk
        # must re-run whole, chunk 2 was never checkpointed.
        ckpt_file.write_text("\n".join(lines[:3]) + "\n")
        for _value, marker in items:
            Path(marker).unlink()
        results, timing = run_sweep(_record_call, items, jobs=1,
                                    chunksize=2, label="ck")
        assert results == [0, 3, 6, 9, 12, 15]
        assert timing.resumed_tasks == 2
        assert not (tmp_path / "calls-0").exists()   # restored, not re-run
        assert not (tmp_path / "calls-1").exists()
        for i in (2, 3, 4, 5):                        # re-executed
            assert (tmp_path / f"calls-{i}").read_text() == "x"

    def test_aborted_sweep_leaves_resumable_checkpoint(self, tmp_path):
        checkpoint_mod.set_checkpoint_dir(tmp_path / "ck")
        events.begin_run("ckpt-abort")
        marker = tmp_path / "now-present"
        items = [(i, str(marker)) for i in range(4)]
        good, bad = items[:3], items[3]
        with pytest.raises(SweepAbortedError):
            # Tasks 0-2 use a pre-made marker and succeed; task 3 uses a
            # missing one and aborts the sweep.
            marker.write_text("ready")
            run_sweep(
                _fail_unless_marker,
                good + [(99, str(tmp_path / "missing"))],
                jobs=1, chunksize=1, label="ab",
            )
        (tmp_path / "missing").write_text("ready")
        results, timing = run_sweep(
            _fail_unless_marker,
            good + [(99, str(tmp_path / "missing"))],
            jobs=1, chunksize=1, label="ab",
        )
        assert results == [0, 7, 14, 693]
        assert timing.resumed_tasks == 3

    def test_fig6_interrupted_at_k_matches_uninterrupted(self, tmp_path):
        """The acceptance criterion: resume produces identical results
        and merged metrics, re-running only the missing tasks."""
        benchmarks = [get_profile(n) for n in ("gzip", "mcf")]

        memo.clear_cache()
        clean_run = events.begin_run("fig6-clean")
        clean = fig6_performance(window=TINY, benchmarks=benchmarks, jobs=1)
        clean_metrics = engine.run_metrics(clean_run)

        # A checkpointed run, then an "interruption" simulated by
        # keeping only the first chunk (one benchmark, k=4 tasks).
        checkpoint_mod.set_checkpoint_dir(tmp_path / "ck")
        full_run = events.begin_run("fig6-full")
        memo.clear_cache()
        fig6_performance(window=TINY, benchmarks=benchmarks, jobs=1)
        full_file = tmp_path / "ck" / full_run / "fig6_performance.jsonl"
        lines = full_file.read_text().splitlines()
        assert len(lines) == 8
        resumed_run = "fig6-resumed"
        resumed_file = (
            tmp_path / "ck" / resumed_run / "fig6_performance.jsonl"
        )
        resumed_file.parent.mkdir(parents=True)
        resumed_file.write_text("\n".join(lines[:4]) + "\n")

        events.begin_run("fig6-resume", run_id=resumed_run)
        memo.clear_cache()
        resumed = fig6_performance(window=TINY, benchmarks=benchmarks, jobs=1)
        timing = engine.timings(resumed_run)[-1]
        resumed_metrics = engine.run_metrics(resumed_run)

        assert timing.resumed_tasks == 4
        assert [dataclasses.asdict(r) for r in resumed] == [
            dataclasses.asdict(r) for r in clean
        ]
        assert resumed_metrics.counters == clean_metrics.counters
        assert resumed_metrics.histograms == clean_metrics.histograms
        assert resumed_metrics.gauges == clean_metrics.gauges
        assert span_structure(resumed_metrics.spans) == span_structure(
            clean_metrics.spans
        )

    def test_torn_final_line_is_ignored(self, tmp_path):
        checkpoint_mod.set_checkpoint_dir(tmp_path / "ck")
        run_id = events.begin_run("ckpt-torn")
        items = [(i, str(tmp_path / f"calls-{i}")) for i in range(2)]
        run_sweep(_record_call, items, jobs=1, chunksize=1, label="torn")
        ckpt_file = tmp_path / "ck" / run_id / "torn.jsonl"
        lines = ckpt_file.read_text().splitlines()
        ckpt_file.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        results, timing = run_sweep(_record_call, items, jobs=1,
                                    chunksize=1, label="torn")
        assert results == [0, 3]
        assert timing.resumed_tasks == 1


# ---------------------------------------------------------------------
class TestChaosDeterminism:
    def test_chaos_fail_retries_are_bit_identical(self):
        clean, clean_t = run_sweep(_bump_delta, list(range(8)), jobs=1,
                                   record=False)
        noisy, noisy_t = run_sweep(
            _bump_delta, list(range(8)), jobs=1, record=False,
            policy=TaskPolicy(max_retries=1),
            chaos=ChaosPolicy(fail_p=0.6, seed=3),
        )
        assert noisy == clean
        assert noisy_t.retries > 0
        assert noisy_t.metrics.counters == clean_t.metrics.counters
        assert noisy_t.metrics.histograms == clean_t.metrics.histograms

    def test_fig6_chaos_parallel_matches_undisturbed_serial(self):
        """The acceptance criterion: ~10% worker kills plus failing
        first attempts leave results and merged metrics bit-identical
        to an undisturbed jobs=1 run."""
        benchmarks = [get_profile(n) for n in ("gzip", "mcf")]
        n_tasks = len(benchmarks) * 4
        seed = next(
            s for s in range(500)
            if any(ChaosPolicy(kill_p=0.1, seed=s).kills(i, 0)
                   for i in range(n_tasks))
            and any(ChaosPolicy(fail_p=0.3, seed=s).fails(i, 0)
                    for i in range(n_tasks))
        )
        chaos = ChaosPolicy(kill_p=0.1, fail_p=0.3, seed=seed)

        memo.clear_cache()
        clean_run = events.begin_run("fig6-serial-clean")
        clean = fig6_performance(window=TINY, benchmarks=benchmarks, jobs=1)
        clean_metrics = engine.run_metrics(clean_run)

        memo.clear_cache()
        chaos_mod.set_chaos(chaos)
        engine.set_default_policy(TaskPolicy(max_retries=2))
        noisy_run = events.begin_run("fig6-parallel-chaos")
        noisy = fig6_performance(window=TINY, benchmarks=benchmarks, jobs=2)
        noisy_metrics = engine.run_metrics(noisy_run)
        timing = engine.timings(noisy_run)[-1]

        assert timing.pool_rebuilds >= 1       # a kill actually fired
        assert timing.retries >= 1             # a fail actually fired
        assert timing.failures == 0
        assert [dataclasses.asdict(r) for r in noisy] == [
            dataclasses.asdict(r) for r in clean
        ]
        assert noisy_metrics.counters == clean_metrics.counters
        assert noisy_metrics.histograms == clean_metrics.histograms
        assert noisy_metrics.gauges == clean_metrics.gauges
        assert span_structure(noisy_metrics.spans) == span_structure(
            clean_metrics.spans
        )


@settings(
    max_examples=20,
    deadline=None,
    # The autouse engine-reset fixture runs once per test, not per
    # example; the test passes policy/chaos explicitly, so that is fine.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    values=st.lists(st.integers(0, 9), min_size=1, max_size=10),
    fail_p=st.floats(0.0, 1.0),
    seed=st.integers(0, 50),
)
def test_merged_metrics_invariant_under_injected_retries(values, fail_p, seed):
    """Property: whatever failures chaos injects, retried sweeps merge to
    exactly the metrics of an undisturbed run."""
    clean, clean_t = run_sweep(_bump_delta, values, jobs=1, record=False)
    noisy, noisy_t = run_sweep(
        _bump_delta, values, jobs=1, record=False,
        policy=TaskPolicy(max_retries=1),
        chaos=ChaosPolicy(fail_p=fail_p, seed=seed),
    )
    assert noisy == clean
    assert noisy_t.metrics.counters == clean_t.metrics.counters
    assert noisy_t.metrics.histograms == clean_t.metrics.histograms


# ---------------------------------------------------------------------
class TestEmptyAndEvents:
    def test_empty_sweep_not_recorded_and_no_event(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        events.set_sink(sink)
        try:
            results, timing = run_sweep(_double, [], jobs=4, label="void")
        finally:
            events.set_sink(None)
        assert results == []
        assert timing.empty
        assert engine.timings() == []
        recorded = [json.loads(line) for line in
                    sink.read_text().splitlines()]
        assert not [r for r in recorded if r["event"] == "sweep"]

    def test_failure_events_emitted(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        events.set_sink(sink)
        try:
            run_sweep(
                _fail_even, [2, 3], jobs=1, label="lossy",
                policy=TaskPolicy(fail_fast=False),
            )
        finally:
            events.set_sink(None)
        recorded = [json.loads(line) for line in
                    sink.read_text().splitlines()]
        failed = [r for r in recorded if r["event"] == "task_failed"]
        assert len(failed) == 1
        assert failed[0]["task_index"] == 0
        assert failed[0]["error_kind"] == "error"
        sweep = [r for r in recorded if r["event"] == "sweep"][-1]
        assert sweep["failures"] == 1

    def test_timing_summary_carries_resilience_columns(self):
        run_sweep(
            _fail_even, [2, 3], jobs=1, label="lossy",
            policy=TaskPolicy(fail_fast=False),
        )
        row = engine.timing_summary()[-1]
        assert row["failures"] == 1
        assert row["retries"] == 0
        assert row["pool_rebuilds"] == 0
        assert row["degraded"] is False
