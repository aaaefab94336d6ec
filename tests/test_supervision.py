"""Sweep supervision: crash-consistent checkpoints, drains, pool kills.

Covers the ``short-write`` chaos kind, the checkpoint durability policy
(``REPRO_CKPT_FSYNC``), the atomic finalize marker, short-write chaos
and resume convergence, graceful drains (``SIGTERM``), the partial
report (including checkpoints that carry quarantine lines from older
versions), a hypothesis interleaving property over the at-most-once
commit, the pool kill that ends workers ignoring SIGTERM, and two
real-subprocess recovery tests (``kill -9`` mid-checkpoint-write,
SIGTERM drain with ``--resume``).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.common.errors import ConfigError, SweepDrainedError
from repro.experiments import chaos as chaos_mod
from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments import engine
from repro.experiments.chaos import ChaosPolicy
from repro.experiments.engine import TaskPolicy, run_sweep
from repro.experiments.executors import _TaskOutcome, make_executor
from repro.experiments.report import render_partial_report
from repro.obs import events


@pytest.fixture(autouse=True)
def _clean_engine():
    engine.clear_timings()
    engine.clear_drain()
    engine.set_default_policy(None)
    chaos_mod.set_chaos(None)
    checkpoint_mod.set_checkpoint_dir(None)
    yield
    engine.clear_timings()
    engine.clear_drain()
    engine.set_default_policy(None)
    chaos_mod.set_chaos(None)
    checkpoint_mod.set_checkpoint_dir(None)


# -- module-level worker functions (must pickle into workers) -----------

def _double(x):
    return x * 2


def _report_pid_then_sleep(path):
    Path(path).write_text(str(os.getpid()))
    time.sleep(60)
    return path


def _drain_then_double(x):
    engine.request_drain("test")
    return x * 2


# ---------------------------------------------------------------------
class TestSupervisionChaosParse:
    def test_parse_new_kinds(self):
        policy = ChaosPolicy.parse("worker-kill:0.1,short-write:0.2,seed:7")
        assert policy.kill_p == 0.1
        assert policy.short_write_p == 0.2
        assert policy.seed == 7
        assert ChaosPolicy.parse("short:0.4").short_write_p == 0.4

    def test_validation(self):
        with pytest.raises(ConfigError):
            ChaosPolicy(short_write_p=2.0)
        with pytest.raises(ConfigError):
            ChaosPolicy(short_write_p=-0.1)

    def test_decisions_are_deterministic(self):
        a = ChaosPolicy(short_write_p=0.5, seed=3)
        b = ChaosPolicy(short_write_p=0.5, seed=3)
        decisions = [a.short_writes(i) for i in range(20)]
        assert decisions == [b.short_writes(i) for i in range(20)]
        assert any(decisions) and not all(decisions)


# ---------------------------------------------------------------------
class TestFsyncPolicy:
    def test_parse(self, monkeypatch):
        monkeypatch.delenv(checkpoint_mod.FSYNC_ENV_VAR, raising=False)
        assert checkpoint_mod.fsync_interval() == 2.0
        for raw in ("off", "no", "never", "false"):
            monkeypatch.setenv(checkpoint_mod.FSYNC_ENV_VAR, raw)
            assert checkpoint_mod.fsync_interval() is None
        for raw in ("line", "always", "on", "true"):
            monkeypatch.setenv(checkpoint_mod.FSYNC_ENV_VAR, raw)
            assert checkpoint_mod.fsync_interval() == 0.0
        monkeypatch.setenv(checkpoint_mod.FSYNC_ENV_VAR, "0.25")
        assert checkpoint_mod.fsync_interval() == 0.25
        monkeypatch.setenv(checkpoint_mod.FSYNC_ENV_VAR, "bogus")
        with pytest.raises(ConfigError):
            checkpoint_mod.fsync_interval()
        monkeypatch.setenv(checkpoint_mod.FSYNC_ENV_VAR, "-3")
        with pytest.raises(ConfigError):
            checkpoint_mod.fsync_interval()

    def test_line_policy_fsyncs_every_append(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(checkpoint_mod.os, "fsync",
                            lambda fd: calls.append(fd))
        monkeypatch.setenv(checkpoint_mod.FSYNC_ENV_VAR, "line")
        ckpt = checkpoint_mod.SweepCheckpoint(tmp_path / "s.jsonl")
        ckpt.append("k1", 0, "t1", 0.1, 1, None)
        ckpt.append("k2", 1, "t2", 0.1, 2, None)
        assert len(calls) >= 2
        ckpt.close()

    def test_off_policy_never_fsyncs(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(checkpoint_mod.os, "fsync",
                            lambda fd: calls.append(fd))
        monkeypatch.setenv(checkpoint_mod.FSYNC_ENV_VAR, "off")
        ckpt = checkpoint_mod.SweepCheckpoint(tmp_path / "s.jsonl")
        ckpt.append("k1", 0, "t1", 0.1, 1, None)
        ckpt.finalize(1)
        ckpt.close()
        assert calls == []
        # The data still flushed and the marker still landed.
        assert (tmp_path / "s.jsonl.done").exists()


class TestFinalizeMarker:
    def test_finalize_is_atomic_and_detected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ckpt = checkpoint_mod.SweepCheckpoint(path)
        ckpt.append("k1", 0, "t1", 0.1, "r1", None)
        ckpt.append("k2", 1, "t2", 0.2, "r2", None)
        assert not ckpt.finalized
        ckpt.finalize(2, failures=0)
        ckpt.close()
        assert ckpt.finalized
        assert (tmp_path / "sweep.jsonl.done").exists()
        assert not (tmp_path / "sweep.jsonl.done.tmp").exists()
        again = checkpoint_mod.SweepCheckpoint(path)
        assert again.finalized
        again.close()
        summary = checkpoint_mod.scan_sweep(path)
        assert summary["finalized"]
        assert summary["tasks_committed"] == 2
        assert summary["finalize_info"]["tasks"] == 2
        assert summary["finalize_info"]["records"] == 2

    def test_sweep_completion_publishes_marker(self, tmp_path):
        checkpoint_mod.set_checkpoint_dir(tmp_path)
        run_sweep(_double, [1, 2, 3], jobs=1, label="done")
        files = list(tmp_path.glob("*/done.jsonl.done"))
        assert len(files) == 1


# ---------------------------------------------------------------------
class TestShortWriteChaos:
    def test_short_write_tears_one_record_and_resume_converges(
            self, tmp_path):
        checkpoint_mod.set_checkpoint_dir(tmp_path)
        chaos = ChaosPolicy(short_write_p=1.0)
        clean, _ = run_sweep(_double, [1, 2, 3], jobs=1, record=False)
        got, _timing = run_sweep(_double, [1, 2, 3], jobs=1, label="torn",
                                 chaos=chaos)
        assert got == clean  # in-memory results unaffected by the tear
        path = next(tmp_path.glob("*/torn.jsonl"))
        reread = checkpoint_mod.SweepCheckpoint(path, chaos=chaos)
        # Exactly one record was torn (the fault is one-shot) and the
        # survivors restored; a file already carrying a torn line never
        # re-arms, so the resume converges.
        assert reread.truncated_lines == 1
        assert len(reread.records) == 2
        assert not reread._short_write_armed
        reread.close()
        got2, timing2 = run_sweep(_double, [1, 2, 3], jobs=1, label="torn",
                                  chaos=chaos)
        assert got2 == clean
        assert timing2.resumed_tasks == 2
        assert checkpoint_mod.scan_sweep(path)["tasks_committed"] == 3


# ---------------------------------------------------------------------
class TestDrain:
    def test_drain_strands_pending_chunks_and_raises(self, tmp_path):
        checkpoint_mod.set_checkpoint_dir(tmp_path)
        with pytest.raises(SweepDrainedError) as exc_info:
            run_sweep(_drain_then_double, [1, 2, 3, 4], jobs=1, chunksize=1,
                      label="drained")
        exc = exc_info.value
        assert exc.completed == 1
        assert exc.stranded == 3
        assert exc.total == 4
        assert engine.drain_requested()
        # The committed task is on disk; after clearing the drain the
        # same run resumes and completes bit-identically.
        engine.clear_drain()
        path = next(tmp_path.glob("*/drained.jsonl"))
        assert checkpoint_mod.scan_sweep(path)["tasks_committed"] == 1
        assert not checkpoint_mod.scan_sweep(path)["finalized"]
        got, timing = run_sweep(_double, [1, 2, 3, 4], jobs=1, chunksize=1,
                                label="drained")
        assert got == [2, 4, 6, 8]
        assert timing.resumed_tasks == 1
        assert checkpoint_mod.scan_sweep(path)["finalized"]

    def test_drain_flag_round_trip(self):
        assert not engine.drain_requested()
        engine.request_drain("unit")
        assert engine.drain_requested()
        engine.clear_drain()
        assert not engine.drain_requested()


class TestPoolKill:
    def test_kill_ends_workers_that_ignore_sigterm(self, tmp_path):
        # Mimic the CLI: its drain handler is installed before the pool
        # forks, so every worker inherits it and shrugs off SIGTERM.  A
        # killing shutdown must still end a worker busy on a long task.
        marker = tmp_path / "pid"
        prior = signal.signal(signal.SIGTERM, lambda _signum, _frame: None)
        ex = make_executor("local", fn=_report_pid_then_sleep,
                           policy=TaskPolicy(), chaos=None, jobs=1)
        try:
            ex.submit_chunk(0, [(0, 0, str(marker))])
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not (
                    marker.exists() and marker.read_text()):
                time.sleep(0.02)
            pid = int(marker.read_text())
        finally:
            ex.shutdown(kill=True)
            signal.signal(signal.SIGTERM, prior)
        deadline = time.monotonic() + 3.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)


# ---------------------------------------------------------------------
def _quarantine_line(key: str, index: int) -> str:
    """A payload-free quarantine record as older versions wrote it."""
    return json.dumps({
        "key": key, "index": index, "task": "mcf", "quarantined": True,
        "error": "task quarantined after repeatedly killing its worker",
    }) + "\n"


class TestPartialReport:
    def test_renders_partial_marker_and_skips_quarantine_lines(
            self, tmp_path):
        # Checkpoints from older versions may hold quarantine lines: the
        # partial report still renders and does not count them.
        root = tmp_path / "ckpt"
        run_dir = root / "run-abc"
        run_dir.mkdir(parents=True)
        ckpt = checkpoint_mod.SweepCheckpoint(run_dir / "fig6.jsonl")
        ckpt.append("00000:aa", 0, "gzip", 0.5, 1.0, None)
        ckpt.close()
        with (run_dir / "fig6.jsonl").open("a") as fh:
            fh.write(_quarantine_line("00001:bb", 1))
        out = tmp_path / "out"
        data = render_partial_report("run-abc", out, checkpoint_root=root)
        assert data["partial"] is True
        assert data["tasks_committed"] == 1
        assert data["sweeps"][0]["truncated_lines"] == 0
        text = (out / "results_partial.md").read_text()
        assert "PARTIAL" in text
        assert "interrupted" in text
        assert "--resume run-abc" in text
        assert "Quarantined" not in text
        # The resume hint is a command line the CLI accepts.
        hint = next(line for line in text.splitlines()
                    if "--resume" in line)
        argv = hint.split("python -m repro", 1)[1].split()
        argv[argv.index("<command>")] = "fig6"
        args = build_parser().parse_args(argv)
        assert (args.checkpoint, args.resume) == (str(root), "run-abc")
        payload = json.loads((out / "results_partial.json").read_text())
        assert payload["run_id"] == "run-abc"

    def test_resume_reruns_a_quarantined_task(self, tmp_path):
        checkpoint_mod.set_checkpoint_dir(tmp_path)
        run_id = events.begin_run("quarantine-resume")
        run_sweep(_double, [1, 2], jobs=1, chunksize=1, label="q")
        path = tmp_path / run_id / "q.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        key = json.loads(lines[1])["key"]
        path.write_text(lines[0] + _quarantine_line(key, 1))
        (tmp_path / run_id / "q.jsonl.done").unlink()
        assert checkpoint_mod.scan_sweep(path)["tasks_committed"] == 1
        sink = tmp_path / "events.jsonl"
        events.set_sink(sink)
        try:
            got, timing = run_sweep(_double, [1, 2], jobs=1, chunksize=1,
                                    label="q")
        finally:
            events.set_sink(None)
        assert got == [2, 4]
        assert timing.resumed_tasks == 1      # the quarantined task re-ran
        assert '"checkpoint_truncated"' not in sink.read_text()
        assert checkpoint_mod.scan_sweep(path)["tasks_committed"] == 2

    def test_requires_a_checkpoint_root(self, tmp_path):
        with pytest.raises(ConfigError):
            render_partial_report("run-abc", tmp_path)


# ---------------------------------------------------------------------
class TestAtMostOnceInterleavings:
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from(["ok", "failed"])),
        max_size=30,
    ))
    def test_any_interleaving_commits_each_key_once(self, ops):
        # Failed and successful outcomes for the same task may arrive in
        # any order (a chunk error racing a result, a duplicate
        # delivery); whatever the order, each task key is decided
        # exactly once — by its first event — and later arrivals are
        # only counted.
        tasks = list(range(5))
        timing = engine.SweepTiming(label="prop", jobs=1, run_id="prop")
        state = engine._SweepState(
            tasks, "prop", TaskPolicy(fail_fast=False), timing, None
        )
        for index, op in ops:
            state.absorb(_TaskOutcome(
                index=index, ok=op == "ok",
                result=index * 2 if op == "ok" else None,
                attempts=1, error_kind="" if op == "ok" else "error",
                error="" if op == "ok" else "boom",
            ))
        first: dict = {}
        for index, op in ops:
            first.setdefault(index, op)
        assert len(state.committed) == len(first)
        for index, op in first.items():
            if op == "failed":
                assert state.results[index] is None
            else:
                assert state.results[index] == index * 2
        assert timing.failures == sum(op == "failed" for op in first.values())
        assert len(state.failures) == timing.failures
        assert timing.duplicate_results == len(ops) - len(first)


# ---------------------------------------------------------------------
# Real-subprocess recovery: a hard kill mid-checkpoint-write and a
# SIGTERM drain, both completed with --resume and checked for
# bit-identical results against a clean serial run.

def _cli_env(tmp_path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[1] / "src"
    )
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_CHAOS", None)
    return env


def _spawn_fig6(tmp_path, env, *extra):
    ckpt_dir = tmp_path / "ckpt"
    trace = tmp_path / "events.jsonl"
    cmd = [
        sys.executable, "-m", "repro", "fig6",
        "--benchmarks", "gzip,mcf,mesa,art",
        "--window", "8000", "--jobs", "2",
        "--checkpoint", str(ckpt_dir),
        "--trace-out", str(trace),
        *extra,
    ]
    proc = subprocess.Popen(
        cmd, env=env, cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    return proc, ckpt_dir, trace


def _wait_for_task_done(trace: Path, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if trace.exists():
            for line in trace.read_text().splitlines():
                if '"task_done"' in line:
                    return
        time.sleep(0.05)
    raise AssertionError(f"no task_done event within {timeout_s}s")


def _task_done_workers(trace: Path) -> set[int]:
    """The worker pids named by the run's ``task_done`` events."""
    pids = set()
    for line in trace.read_text().splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue  # a line torn by the kill
        worker = str(record.get("worker", ""))
        if record.get("event") == "task_done" and worker.isdigit():
            pids.add(int(worker))
    return pids


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _manifest_counters(path: Path) -> dict:
    manifest = json.loads(path.read_text())
    counters = dict(manifest["metrics"]["counters"])
    # Scheduling-sensitive engine counters (how many chunks each backend
    # ran) are not part of the bit-identity contract; the simulation's
    # own counters are.
    return {k: v for k, v in counters.items()
            if not k.startswith(("engine.", "memo."))}


@pytest.mark.slow
class TestCrashRecoverySubprocess:
    def test_kill9_mid_checkpoint_write_then_resume_bit_identical(
            self, tmp_path):
        env = _cli_env(tmp_path)
        env[checkpoint_mod.FSYNC_ENV_VAR] = "line"
        proc, ckpt_dir, trace = _spawn_fig6(tmp_path, env)
        try:
            _wait_for_task_done(trace)
        finally:
            # SIGKILL: no cleanup, no atexit — whatever bytes the
            # checkpoint writer got out are all that survives.
            proc.kill()
            proc.wait(timeout=30)
        # The pool workers notice their parent is gone and exit.
        workers = _task_done_workers(trace)
        assert workers
        deadline = time.monotonic() + 5.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in workers if _running(pid)]
        run_dirs = [p for p in ckpt_dir.iterdir() if p.is_dir()]
        assert len(run_dirs) == 1
        run_id = run_dirs[0].name
        # Whatever byte boundary the kill landed on, every checkpoint
        # file must be restorable (torn tails skipped, not fatal).
        committed = 0
        for path in run_dirs[0].glob("*.jsonl"):
            summary = checkpoint_mod.scan_sweep(path)
            committed += summary["tasks_committed"]
            reread = checkpoint_mod.SweepCheckpoint(path)
            reread.close()
        assert committed >= 1
        # Resume completes the run; its metrics match a clean serial run
        # bit for bit.
        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "fig6",
             "--benchmarks", "gzip,mcf,mesa,art", "--window", "8000",
             "--jobs", "2",
             "--checkpoint", str(ckpt_dir), "--resume", run_id,
             "--metrics", str(tmp_path / "resumed.json")],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        clean = subprocess.run(
            [sys.executable, "-m", "repro", "fig6",
             "--benchmarks", "gzip,mcf,mesa,art", "--window", "8000",
             "--jobs", "1",
             "--metrics", str(tmp_path / "clean.json")],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=300,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        assert _manifest_counters(tmp_path / "resumed.json") \
            == _manifest_counters(tmp_path / "clean.json")
        # The IPC tables themselves must agree too.
        table = [l for l in resumed.stdout.splitlines() if "gzip" in l]
        assert table and table == [
            l for l in clean.stdout.splitlines() if "gzip" in l
        ]

    def test_sigterm_drains_exits_143_and_partial_report_renders(
            self, tmp_path):
        env = _cli_env(tmp_path)
        proc, ckpt_dir, trace = _spawn_fig6(
            tmp_path, env, "--window", "20000"
        )
        try:
            _wait_for_task_done(trace)
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            proc.wait(timeout=30)
            raise
        output = stdout + stderr
        assert proc.returncode == 143, output
        assert "resume with" in output
        run_dirs = [p for p in ckpt_dir.iterdir() if p.is_dir()]
        assert len(run_dirs) == 1
        run_id = run_dirs[0].name
        events_text = trace.read_text()
        assert '"sweep_draining"' in events_text
        assert '"run_drained"' in events_text
        # The partial report renders from the drained checkpoint.
        report = subprocess.run(
            [sys.executable, "-m", "repro", "report",
             "--partial", run_id, "--checkpoint", str(ckpt_dir),
             "--out", str(tmp_path / "out")],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=120,
        )
        assert report.returncode == 0, report.stdout + report.stderr
        partial_md = (tmp_path / "out" / "results_partial.md").read_text()
        assert "PARTIAL" in partial_md
        # And --resume completes the interrupted run.
        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "fig6",
             "--benchmarks", "gzip,mcf,mesa,art", "--window", "20000",
             "--jobs", "2",
             "--checkpoint", str(ckpt_dir), "--resume", run_id],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert "gzip" in resumed.stdout
