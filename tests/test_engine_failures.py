"""Failure paths of the sweep engine.

Covers fail-fast aborts on both loops, a dead pool worker aborting the
sweep after one pool break, and checkpoint resume — including the
acceptance criterion that a fig6 sweep resumed after an interruption is
bit-identical to an uninterrupted one.
"""

import dataclasses
import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.common import memo
from repro.common.errors import SweepAbortedError, TaskError
from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments import engine
from repro.experiments.engine import run_sweep
from repro.experiments.perf import fig6_performance
from repro.experiments.runner import SimulationWindow
from repro.obs import events
from repro.obs.tracing import span_structure
from repro.workloads.profiles import get_profile

TINY = SimulationWindow(warmup=2000, measured=6000)


@pytest.fixture(autouse=True)
def _clean_engine():
    engine.clear_timings()
    checkpoint_mod.set_checkpoint_dir(None)
    yield
    engine.clear_timings()
    checkpoint_mod.set_checkpoint_dir(None)


# -- module-level worker functions (must pickle into pool workers) ------

def _double(x):
    return x * 2


def _fail_even(x):
    if x % 2 == 0:
        raise ValueError(f"even task {x}")
    return x * 10


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
    # Dies hard in a pool worker on item 4, the way a segfaulting
    # simulation would; every other item completes.  The guard keeps a
    # stray in-process call from killing the test session.
    if x == 4 and multiprocessing.current_process().name != "MainProcess":
        os._exit(13)
    return x * 3


# ---------------------------------------------------------------------
class TestFailFast:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "pool"])
    def test_fail_fast_raises_sweep_aborted(self, jobs):
        with pytest.raises(SweepAbortedError) as excinfo:
            run_sweep(_fail_even, [1, 3, 4], jobs=jobs)
        error = excinfo.value
        assert error.label == "sweep"
        assert len(error.failures) == 1
        failure = error.failures[0]
        assert isinstance(failure, TaskError)
        assert failure.task_index == 2
        assert "ValueError" in failure.worker_traceback
        assert isinstance(error.__cause__, TaskError)


class TestWorkerLoss:
    def test_dead_worker_aborts_after_one_pool_break_and_resume_completes(
            self, tmp_path, monkeypatch):
        checkpoint_mod.set_checkpoint_dir(tmp_path / "ck")
        run_id = events.begin_run("worker-loss")
        pools = []
        real_pool = engine.ProcessPoolExecutor

        def counting_pool(**kwargs):
            pools.append(real_pool(**kwargs))
            return pools[-1]

        monkeypatch.setattr(engine, "ProcessPoolExecutor", counting_pool)
        items = [1, 2, 3, 4]
        with pytest.raises(SweepAbortedError) as excinfo:
            run_sweep(_crash_in_worker, items, jobs=2, chunksize=1,
                      label="lost")
        assert len(pools) == 1            # no rebuild, no inline rerun
        failure = excinfo.value.failures[0]
        assert "BrokenProcessPool" in str(failure)
        # The named task belongs to a lost chunk: it never committed.
        ckpt_file = tmp_path / "ck" / run_id / "lost.jsonl"
        committed = {json.loads(line)["index"]
                     for line in ckpt_file.read_text().splitlines()}
        assert failure.task_index not in committed
        assert 3 not in committed
        # The rerun restores what committed (x * 3) and runs the rest.
        results, timing = run_sweep(_double, items, jobs=2, chunksize=1,
                                    label="lost")
        assert results == [
            x * 3 if i in committed else x * 2 for i, x in enumerate(items)
        ]
        assert timing.resumed_tasks == len(committed)
        assert timing.duplicate_results == 0


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
        assert timing.duplicate_results == 0
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
            with pytest.raises(SweepAbortedError):
                run_sweep(_fail_even, [2, 3], jobs=1, label="lossy")
        finally:
            events.set_sink(None)
        recorded = [json.loads(line) for line in
                    sink.read_text().splitlines()]
        failed = [r for r in recorded if r["event"] == "task_failed"]
        assert len(failed) == 1
        assert failed[0]["task_index"] == 0
        assert failed[0]["error"] == "ValueError: even task 2"
        # An aborted sweep is not recorded.
        assert not [r for r in recorded if r["event"] == "sweep"]
        assert engine.timings() == []

    def test_timing_summary_carries_resilience_columns(self):
        run_sweep(_double, [1, 2, 3, 4], jobs=2, chunksize=1, label="pool")
        row = engine.timing_summary()[-1]
        assert row["resumed_tasks"] == 0
        assert row["duplicate_results"] == 0
        assert row["executor"] == "local"
