"""The engine's two sweep loops: inline and the local process pool.

Covers backend selection from the worker count, equivalence of both
loops to the serial path, the worker pid on ``task_done``, a pool that
breaks under ``submit``, the at-most-once result commit (a hypothesis
interleaving property), and truncated-checkpoint recovery.
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import SweepAbortedError
from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments import engine
from repro.experiments.engine import resolve_executor, run_sweep
from repro.obs import events, metrics
from repro.obs.metrics import MetricsSnapshot, merge_snapshots


@pytest.fixture(autouse=True)
def _clean_engine():
    engine.clear_timings()
    engine.set_default_jobs(None)
    checkpoint_mod.set_checkpoint_dir(None)
    yield
    engine.clear_timings()
    engine.set_default_jobs(None)
    checkpoint_mod.set_checkpoint_dir(None)


# -- module-level worker functions (must pickle into workers) -----------

def _double(x):
    return x * 2


def _bump_delta(x):
    m = metrics.get_registry()
    m.counter("exectest.calls").inc()
    m.histogram("exectest.values", (2.0, 5.0)).observe(min(x, 9))
    return x + 1


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

    def test_sweep_records_backend_name(self):
        _results, timing = run_sweep(_double, [1, 2], jobs=1)
        assert timing.executor == "inline"
        _results, timing = run_sweep(_double, [1, 2], jobs=2, chunksize=1)
        assert timing.executor == "local"


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
def _pid(_item):
    return os.getpid()


class TestTaskDoneWorker:
    """``task_done`` names the pid of the process that ran the task,
    whatever ``REPRO_OBS`` says: pool workers at jobs > 1, the
    controller itself inline."""

    def _sweep(self, tmp_path, jobs):
        sink = tmp_path / f"events-j{jobs}.jsonl"
        events.set_sink(sink)
        try:
            pids, _timing = run_sweep(_pid, list(range(8)), jobs=jobs,
                                      chunksize=2, record=False)
        finally:
            events.set_sink(None)
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        workers = {r["task_index"]: str(r["worker"]) for r in records
                   if r["event"] == "task_done"}
        return pids, workers

    @pytest.mark.parametrize("obs", [True, False], ids=["obs-on", "obs-off"])
    def test_pool_names_its_worker_pids(self, tmp_path, obs):
        metrics.set_enabled(obs)
        try:
            pids, workers = self._sweep(tmp_path, jobs=2)
        finally:
            metrics.set_enabled(True)
        assert workers == {i: str(pid) for i, pid in enumerate(pids)}
        assert os.getpid() not in pids

    def test_inline_names_the_controller(self, tmp_path):
        _pids, workers = self._sweep(tmp_path, jobs=1)
        assert workers == {i: str(os.getpid()) for i in range(8)}


def _exit_worker(item):
    os._exit(3)


class TestBrokenPoolSubmit:
    def test_submit_to_a_broken_pool_aborts_with_nothing_committed(
            self, monkeypatch):
        """Once a worker has died, ``ProcessPoolExecutor.submit`` raises
        ``BrokenProcessPool`` synchronously; the pool loop treats the
        refused chunk as lost and aborts the sweep at its first task,
        with no result committed."""
        broken = ProcessPoolExecutor(max_workers=1)
        try:
            broken.submit(_exit_worker, 0)
            deadline = time.monotonic() + 30.0
            while not broken._broken and time.monotonic() < deadline:
                time.sleep(0.05)
            assert broken._broken
            # The loop builds its pool through this name: hand it the
            # broken one.
            monkeypatch.setattr(engine, "ProcessPoolExecutor",
                                lambda **_kwargs: broken)
            chunks = [[(i, i + 1)] for i in range(3)]
            timing = engine.SweepTiming(label="broken", jobs=2)
            state = engine._SweepState([1, 2, 3], "broken", timing, None)
            with pytest.raises(SweepAbortedError) as excinfo:
                engine._run_pool(_double, chunks, 2, state)
        finally:
            broken.shutdown(wait=False, cancel_futures=True)
        failure = excinfo.value.failures[0]
        assert failure.task_index == 0
        assert "BrokenProcessPool" in str(failure)
        # Only the aborting task's key is decided, and no result landed.
        assert state.committed == {checkpoint_mod.task_key(1, 0)}
        assert state.results == [None, None, None]


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
    state = engine._SweepState(tasks, "interleave", timing, None)
    deliveries = [i % n for i in order]
    for serial, i in enumerate(deliveries):
        # Duplicate deliveries of a committed key carry a *different*
        # payload, so a second commit would be visible in the results.
        state.absorb(engine._TaskOutcome(
            index=i, ok=True, result=(i, serial), wall_s=0.001,
            metrics=MetricsSnapshot(counters={f"task.{i}": 1}),
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
