"""Sweep supervision: crash-consistent checkpoints, stops, pool kills.

Covers the checkpoint's fixed fsync interval, the atomic finalize
marker, SIGTERM (an interrupt in the controller, a dead worker in a
pool worker), the partial report, a hypothesis interleaving property
over the at-most-once commit, the pool kill that ends workers ignoring
SIGTERM, and three real-subprocess recovery tests (``kill -9``
mid-checkpoint-write, a killed pool worker, and a SIGTERM, each
completed with ``--resume`` and compared with a clean serial run).
"""

import json
import os
import shlex
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.cli import build_parser
from repro.common.errors import ConfigError, SweepAbortedError
from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments import engine
from repro.experiments.engine import _TaskOutcome, run_sweep
from repro.experiments.report import render_partial_report


@pytest.fixture(autouse=True)
def _clean_engine():
    engine.clear_timings()
    checkpoint_mod.set_checkpoint_dir(None)
    yield
    engine.clear_timings()
    checkpoint_mod.set_checkpoint_dir(None)


# -- module-level worker functions (must pickle into workers) -----------

def _double(x):
    return x * 2


def _report_pid_then_sleep(path):
    Path(path).write_text(str(os.getpid()))
    time.sleep(60)
    return path


def _sigterm_self_at_two(x):
    """Double ``x``, but first send SIGTERM to this process when x == 2."""
    if x == 2:
        os.kill(os.getpid(), signal.SIGTERM)
    return x * 2


def _printed_command(output: str, label: str) -> list[str]:
    """The command a stopped run printed after ``label``, split into an
    argv."""
    line = next(line for line in output.splitlines()
                if line.startswith(label))
    return shlex.split(line[len(label):])


# ---------------------------------------------------------------------
class TestFsyncPolicy:
    def test_appends_fsync_at_most_every_interval_and_finalize_fsyncs(
            self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(checkpoint_mod.os, "fsync",
                            lambda fd: calls.append(fd))
        ckpt = checkpoint_mod.SweepCheckpoint(tmp_path / "s.jsonl")
        for i in range(5):
            ckpt.append(f"k{i}", i, f"t{i}", 0.1, i, None)
        assert calls == []        # all five inside the first interval
        ckpt._last_fsync -= checkpoint_mod.FSYNC_INTERVAL_S
        ckpt.append("k5", 5, "t5", 0.1, 5, None)
        assert len(calls) == 1    # the interval ran out: one fsync
        ckpt.finalize(6)
        assert len(calls) > 1     # the JSONL, the marker and its directory
        ckpt.close()
        assert (tmp_path / "s.jsonl.done").exists()


class TestFinalizeMarker:
    def test_finalize_is_atomic_and_detected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ckpt = checkpoint_mod.SweepCheckpoint(path)
        ckpt.append("k1", 0, "t1", 0.1, "r1", None)
        ckpt.append("k2", 1, "t2", 0.2, "r2", None)
        assert not ckpt.finalized
        ckpt.finalize(2)
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
class TestSigterm:
    def test_sigterm_in_controller_exits_143_then_hint_resumes(
            self, tmp_path, capsys, monkeypatch):
        ckpt_dir = tmp_path / "ck"
        results = []

        def sweep(fn):
            def command(_args):
                got, _timing = run_sweep(fn, [1, 2, 3, 4], jobs=1,
                                         chunksize=1, label="stopped")
                results.append(got)
            return command

        monkeypatch.setitem(cli._COMMANDS, "vias", sweep(_sigterm_self_at_two))
        assert cli.main(["vias", "--checkpoint", str(ckpt_dir)]) == 143
        output = capsys.readouterr().out
        assert "terminated" in output
        resume = _printed_command(output, "resume with: ")
        assert resume[:3] == ["python", "-m", "repro"]
        # The first task committed before the second one's SIGTERM; the
        # sweep was not finalized.
        [path] = ckpt_dir.glob("*/stopped.jsonl")
        assert checkpoint_mod.scan_sweep(path)["tasks_committed"] == 1
        assert not checkpoint_mod.scan_sweep(path)["finalized"]
        # Running the printed command restores that task and finishes.
        monkeypatch.setitem(cli._COMMANDS, "vias", sweep(_double))
        assert cli.main(resume[3:]) == 0
        assert results == [[2, 4, 6, 8]]
        [timing] = engine.timings(path.parent.name)
        assert timing.resumed_tasks == 1
        assert checkpoint_mod.scan_sweep(path)["finalized"]

    def test_sigterm_to_a_pool_worker_is_a_dead_worker(self):
        # With the CLI's handler installed in the controller, a worker
        # that gets SIGTERM dies (its initializer restored the default
        # action), so the pool breaks and the sweep aborts.
        prior = signal.signal(signal.SIGTERM, cli._raise_terminated)
        try:
            with pytest.raises(SweepAbortedError) as excinfo:
                run_sweep(_sigterm_self_at_two, [1, 2, 3, 4], jobs=2,
                          chunksize=1, label="worker-sigterm")
        finally:
            signal.signal(signal.SIGTERM, prior)
        assert "BrokenProcessPool" in str(excinfo.value.failures[0])


class TestPoolKill:
    def test_kill_ends_workers_that_ignore_sigterm(self, tmp_path):
        # Task or library code may make a worker ignore SIGTERM (here a
        # handler installed before the pool forks, and no initializer
        # restores the default).  A killing shutdown must still end a
        # worker busy on a long task.
        marker = tmp_path / "pid"
        prior = signal.signal(signal.SIGTERM, lambda _signum, _frame: None)
        pool = ProcessPoolExecutor(max_workers=1)
        try:
            pool.submit(_report_pid_then_sleep, str(marker))
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not (
                    marker.exists() and marker.read_text()):
                time.sleep(0.02)
            pid = int(marker.read_text())
        finally:
            engine._kill_pool_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            signal.signal(signal.SIGTERM, prior)
        deadline = time.monotonic() + 3.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)


# ---------------------------------------------------------------------
class TestPartialReport:
    def test_renders_partial_marker_and_skips_quarantine_lines(
            self, tmp_path):
        root = tmp_path / "ckpt"
        run_dir = root / "run-abc"
        run_dir.mkdir(parents=True)
        ckpt = checkpoint_mod.SweepCheckpoint(run_dir / "fig6.jsonl")
        ckpt.append("00000:aa", 0, "gzip", 0.5, 1.0, None)
        ckpt.close()
        out = tmp_path / "out"
        data = render_partial_report("run-abc", out, checkpoint_root=root)
        assert data["partial"] is True
        assert data["tasks_committed"] == 1
        assert data["sweeps"][0]["truncated_lines"] == 0
        text = (out / "results_partial.md").read_text()
        assert "PARTIAL" in text
        assert "interrupted" in text
        assert "--resume run-abc" in text
        # The resume hint is a command line the CLI accepts.
        hint = next(line for line in text.splitlines()
                    if "--resume" in line)
        argv = hint.split("python -m repro", 1)[1].split()
        argv[argv.index("<command>")] = "fig6"
        args = build_parser().parse_args(argv)
        assert (args.checkpoint, args.resume) == (str(root), "run-abc")
        payload = json.loads((out / "results_partial.json").read_text())
        assert payload["run_id"] == "run-abc"

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
        # only counted.  A failure decides its key and aborts the sweep.
        tasks = list(range(5))
        timing = engine.SweepTiming(label="prop", jobs=1, run_id="prop")
        state = engine._SweepState(tasks, "prop", timing, None)
        aborts = 0
        for index, op in ops:
            try:
                state.absorb(_TaskOutcome(
                    index=index, ok=op == "ok",
                    result=index * 2 if op == "ok" else None,
                    error="" if op == "ok" else "boom",
                ))
            except SweepAbortedError as exc:
                assert exc.failures[0].task_index == index
                aborts += 1
        first: dict = {}
        for index, op in ops:
            first.setdefault(index, op)
        assert len(state.committed) == len(first)
        for index, op in first.items():
            if op == "failed":
                assert state.results[index] is None
            else:
                assert state.results[index] == index * 2
        assert aborts == sum(op == "failed" for op in first.values())
        assert timing.duplicate_results == len(ops) - len(first)


# ---------------------------------------------------------------------
# Real-subprocess recovery: a hard kill mid-checkpoint-write, a killed
# pool worker and a SIGTERM, each completed with --resume and checked for
# bit-identical results against a clean serial run.  The last two resume
# by running the command line they printed.

_BENCHMARKS = ("gzip", "mcf", "mesa", "art")

def _cli_env(tmp_path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[1] / "src"
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _fig6_argv(window: str) -> list[str]:
    return ["fig6", "--benchmarks", ",".join(_BENCHMARKS), "--window", window]


def _spawn_fig6(tmp_path, env, *extra):
    ckpt_dir = tmp_path / "ckpt"
    trace = tmp_path / "events.jsonl"
    cmd = [
        sys.executable, "-m", "repro", *_fig6_argv("8000"), "--jobs", "2",
        "--checkpoint", str(ckpt_dir),
        "--trace-out", str(trace),
        *extra,
    ]
    proc = subprocess.Popen(
        cmd, env=env, cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    return proc, ckpt_dir, trace


def _wait_for_task_done(trace: Path, timeout_s: float = 60.0) -> int:
    """Wait for the run's first ``task_done`` event; return the pid of
    the worker that ran the task."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if trace.exists():
            for line in trace.read_text().splitlines():
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # a line still being written
                if record.get("event") == "task_done":
                    return int(record["worker"])
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


def _table_rows(stdout: str) -> list[str]:
    """The fig6 IPC table: its header and one row per benchmark."""
    return [line for line in stdout.splitlines()
            if line.startswith(("benchmark",) + _BENCHMARKS)]


def _runnable(output: str, label: str) -> list[str]:
    """The command a stopped run printed after ``label``, run by this
    interpreter."""
    argv = _printed_command(output, label)
    assert argv[:3] == ["python", "-m", "repro"]
    return [sys.executable, *argv[1:]]


def _assert_resume_matches_clean(tmp_path, env, resume: list[str],
                                 window: str) -> None:
    """The ``resume`` command completes the run, and its IPC table and
    simulation counters equal a clean serial run's bit for bit."""
    resumed = subprocess.run(
        resume + ["--metrics", str(tmp_path / "resumed.json")],
        env=env, cwd=tmp_path, capture_output=True, text=True,
        timeout=300,
    )
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    clean = subprocess.run(
        [sys.executable, "-m", "repro", *_fig6_argv(window),
         "--jobs", "1", "--metrics", str(tmp_path / "clean.json")],
        env=env, cwd=tmp_path, capture_output=True, text=True,
        timeout=300,
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert _manifest_counters(tmp_path / "resumed.json") \
        == _manifest_counters(tmp_path / "clean.json")
    table = _table_rows(resumed.stdout)
    assert len(table) == 1 + len(_BENCHMARKS)
    assert table == _table_rows(clean.stdout)


@pytest.mark.slow
class TestCrashRecoverySubprocess:
    def test_kill9_mid_checkpoint_write_then_resume_bit_identical(
            self, tmp_path):
        env = _cli_env(tmp_path)
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
        resume = [sys.executable, "-m", "repro", *_fig6_argv("8000"),
                  "--jobs", "2", "--checkpoint", str(ckpt_dir),
                  "--resume", run_id]
        _assert_resume_matches_clean(tmp_path, env, resume, "8000")

    def test_killed_worker_aborts_exit_2_then_resume_bit_identical(
            self, tmp_path):
        # The long window keeps the sweep running for about a second
        # after its first chunk commits, so the kill lands mid-sweep.
        env = _cli_env(tmp_path)
        proc, ckpt_dir, trace = _spawn_fig6(
            tmp_path, env, "--window", "200000"
        )
        try:
            os.kill(_wait_for_task_done(trace), signal.SIGKILL)
            stdout, stderr = proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            proc.wait(timeout=30)
            raise
        output = stdout + stderr
        # One lost chunk aborts the sweep: no rebuild, no inline rerun.
        assert proc.returncode == 2, output
        assert "error:" in output and "BrokenProcessPool" in output
        run_dirs = [p for p in ckpt_dir.iterdir() if p.is_dir()]
        assert len(run_dirs) == 1
        run_id = run_dirs[0].name
        resume = _runnable(output, "resume with: ")
        assert resume[-2:] == ["--resume", run_id]
        events_text = trace.read_text()
        assert '"run_error"' in events_text
        assert '"task_failed"' in events_text
        _assert_resume_matches_clean(tmp_path, env, resume, "200000")

    def test_sigterm_interrupts_exit_143_then_resume_bit_identical(
            self, tmp_path):
        # The long window keeps the sweep running for about a second
        # after its first chunk commits, so the SIGTERM lands mid-sweep.
        env = _cli_env(tmp_path)
        proc, ckpt_dir, trace = _spawn_fig6(
            tmp_path, env, "--window", "200000"
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
        run_dirs = [p for p in ckpt_dir.iterdir() if p.is_dir()]
        assert len(run_dirs) == 1
        run_id = run_dirs[0].name
        resume = _runnable(output, "resume with: ")
        assert resume[-2:] == ["--resume", run_id]
        events_text = trace.read_text()
        assert '"sweep_interrupted"' in events_text
        assert '"run_interrupted"' in events_text
        # The partial report renders from the stopped run's checkpoint,
        # by the command the run printed.
        report = subprocess.run(
            _runnable(output, "partial report: ")
            + ["--out", str(tmp_path / "out")],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=120,
        )
        assert report.returncode == 0, report.stdout + report.stderr
        partial_md = (tmp_path / "out" / "results_partial.md").read_text()
        assert "PARTIAL" in partial_md
        _assert_resume_matches_clean(tmp_path, env, resume, "200000")
