"""Parallel experiment execution engine.

Every figure/table driver is a sweep over independent ``(benchmark x chip
model x policy)`` simulations, so the drivers submit their task lists here
instead of running nested loops inline.  The engine provides:

* :func:`parallel_map` / :func:`run_sweep` — an order-preserving map with
  chunked submission (chunks keep a worker on one benchmark's tasks so
  its per-process artifact cache gets hits; see :mod:`repro.common.memo`);
* a worker-count policy: an explicit ``jobs`` argument wins, then the
  ``REPRO_JOBS`` environment variable, then ``os.cpu_count()``.  One
  worker runs the sweep ``inline`` (a plain in-process loop — no worker
  processes, no pickling — so ``pdb``, profilers, and coverage keep
  working); more run it on a ``local`` process pool;
* fail-fast: each task runs once, and the first task error aborts the
  sweep with :class:`SweepAbortedError` carrying the worker traceback
  (the simulations are deterministic, so a rerun would fail again).  A
  dead worker is one more lost chunk: the pool breaks
  (``BrokenProcessPool``), what the other workers already finished
  commits, and the sweep aborts at the lost chunk's first uncommitted
  task.  Results commit **at most once** per task key (a duplicate
  delivery is counted and dropped);
* interruption: a ``KeyboardInterrupt`` (Ctrl-C, or the CLI's SIGTERM,
  which raises a subclass of it) unwinds either loop, SIGKILLs the pool
  workers and leaves what committed in the checkpoint;
* sweep checkpointing (:mod:`repro.experiments.checkpoint`): completed
  task results append to a JSONL file keyed by run id and task key, so
  an interrupted or aborted sweep resumes via ``--resume <run_id>`` and
  re-executes only the chunks that never finished — the one recovery
  path;
* per-task wall-clock and metric-delta accounting recorded as a
  :class:`SweepTiming` per sweep (stamped with the active run id) that
  ``experiments/report.py`` and the benchmark harness render.

Determinism: results are returned in task-submission order regardless of
completion or resume history.  Tasks are pure — a chunk re-run on resume
is bit-identical to a clean first run — so merged sweep metrics are
equal across any worker count or resume boundary.

Resume accounting (resumed tasks, dropped duplicates) deliberately stays
**out** of the merged metric snapshots and in dedicated
:class:`SweepTiming` fields: the ``metrics`` section of a run manifest
must stay bit-identical between a resumed run and a clean one, which it
could not if resumes were counted there.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback as traceback_mod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from repro.common.errors import ConfigError, SweepAbortedError, TaskError
from repro.experiments import checkpoint as checkpoint_mod
from repro.obs import events
from repro.obs.metrics import MetricsSnapshot, get_registry, merge_snapshots

__all__ = [
    "JOBS_ENV_VAR",
    "SweepTiming",
    "resolve_jobs",
    "set_default_jobs",
    "resolve_executor",
    "parallel_map",
    "run_sweep",
    "run_metrics",
    "timings",
    "clear_timings",
    "timing_summary",
    "format_timing_summary",
]

T = TypeVar("T")
R = TypeVar("R")

JOBS_ENV_VAR = "REPRO_JOBS"

# Upper bound on auto-detected workers: sweeps are memory-hungry (each
# worker holds its own artifact cache), so "as many as the machine has"
# is capped unless the user asks explicitly.
_MAX_AUTO_JOBS = 16

# Guard against division by a degenerate (sub-resolution) wall clock.
_EPS_WALL_S = 1e-9


# ---------------------------------------------------------------------
@dataclass
class SweepTiming:
    """Wall-clock and resume accounting of one sweep through the engine."""

    label: str
    jobs: int
    task_wall_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    run_id: str = ""
    metrics: MetricsSnapshot | None = None
    retries: int = 0         # always 0: tasks run once
    resumed_tasks: int = 0   # tasks restored from a checkpoint
    empty: bool = False      # sweep had no tasks (not recorded)
    executor: str = ""       # "inline" or "local", from the worker count
    duplicate_results: int = 0  # late/duplicate commits dropped per task key

    @property
    def tasks(self) -> int:
        """Number of tasks the sweep ran."""
        return len(self.task_wall_s)

    @property
    def cpu_s(self) -> float:
        """Summed per-task wall time — the serial-equivalent cost."""
        return sum(self.task_wall_s)

    @property
    def speedup(self) -> float:
        """Serial-equivalent time over actual wall time.

        Division is epsilon-guarded, so a degenerate (sub-resolution)
        wall clock yields a huge-but-finite ratio instead of a bogus
        ``1.0``; :func:`format_timing_summary` renders such sweeps as
        ``—``.  An empty sweep reports ``0.0``.
        """
        return self.cpu_s / max(self.wall_s, _EPS_WALL_S)


_TIMINGS: list[SweepTiming] = []


def timings(run_id: str | None = None) -> list[SweepTiming]:
    """Sweep timings recorded in this process, oldest first.

    With ``run_id``, only that run's sweeps — the registry is never
    cleared between runs, so long-lived processes (test sessions,
    notebooks) filter instead of racing over a global reset.
    """
    if run_id is None:
        return list(_TIMINGS)
    return [t for t in _TIMINGS if t.run_id == run_id]


def clear_timings() -> None:
    """Forget all recorded sweep timings (prefer run-id filtering)."""
    _TIMINGS.clear()


def timing_summary(run_id: str | None = None) -> list[dict]:
    """The recorded timings as plain dicts (JSON-serialisable)."""
    return [
        {
            "label": t.label,
            "run_id": t.run_id,
            "tasks": t.tasks,
            "jobs": t.jobs,
            "cpu_s": round(t.cpu_s, 3),
            "wall_s": round(t.wall_s, 3),
            "speedup": round(t.speedup, 2),
            "resumed_tasks": t.resumed_tasks,
            "executor": t.executor,
            "duplicate_results": t.duplicate_results,
        }
        for t in timings(run_id)
    ]


def run_metrics(run_id: str | None = None) -> MetricsSnapshot:
    """All of one run's sweep metrics merged into a single snapshot.

    Built purely from the per-task deltas the sweeps collected, so the
    result is identical whatever worker count produced them.
    """
    return merge_snapshots(t.metrics for t in timings(run_id))


def format_timing_summary(run_id: str | None = None) -> str:
    """Human-readable table of every sweep recorded so far."""
    rows = timing_summary(run_id)
    if not rows:
        return "no sweeps recorded"
    header = ["sweep", "tasks", "jobs", "cpu (s)", "wall (s)", "speedup"]
    table = [
        [r["label"], str(r["tasks"]), str(r["jobs"]), f"{r['cpu_s']:.2f}",
         f"{r['wall_s']:.2f}",
         "—" if r["wall_s"] <= 0 or r["tasks"] == 0
         else f"{r['speedup']:.2f}x"]
        for r in rows
    ]
    widths = [
        max(len(header[i]), max(len(row[i]) for row in table))
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in table]
    return "\n".join(lines)


# ---------------------------------------------------------------------
_DEFAULT_JOBS: int | None = None


def set_default_jobs(jobs: int | None) -> None:
    """Set the process-wide default worker count (the CLI's ``--jobs``).

    Applies to every sweep that does not pass ``jobs`` explicitly; it
    outranks ``REPRO_JOBS``.  ``None`` restores environment/auto policy.
    """
    global _DEFAULT_JOBS
    if jobs is not None and jobs < 1:
        raise ConfigError(f"worker count must be >= 1, got {jobs}")
    _DEFAULT_JOBS = jobs


def resolve_jobs(jobs: int | None = None) -> int:
    """The worker count: argument, then :func:`set_default_jobs`, then
    ``REPRO_JOBS``, then ``os.cpu_count()`` (capped)."""
    if jobs is None:
        jobs = _DEFAULT_JOBS
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ConfigError(
                    f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
                ) from None
        else:
            jobs = min(os.cpu_count() or 1, _MAX_AUTO_JOBS)
    if jobs < 1:
        raise ConfigError(f"worker count must be >= 1, got {jobs}")
    return jobs


def resolve_executor(jobs: int | None = None) -> str:
    """The backend for ``jobs`` workers: ``inline`` for one, ``local``
    (the process pool) otherwise."""
    return "inline" if (jobs or 1) <= 1 else "local"


# ---------------------------------------------------------------------
# Task execution, on either side of the process boundary.  A sweep
# entry is the tuple ``(index, item)``.


@dataclass
class _TaskOutcome:
    """What one task produced (picklable)."""

    index: int
    ok: bool = False
    result: object = None
    wall_s: float = 0.0
    metrics: MetricsSnapshot | None = None
    error: str = ""
    traceback: str = ""
    worker: int = 0          # pid of the process that ran the task


def _run_task(fn: Callable, item, index: int) -> _TaskOutcome:
    """Run one task once; a task error is returned, never raised.

    A failed task calls ``end_task`` only to unwind the span stack; its
    metric delta is discarded.
    """
    outcome = _TaskOutcome(index=index, worker=os.getpid())
    registry = get_registry()
    mark = registry.begin_task()
    try:
        start = time.perf_counter()
        outcome.result = fn(item)
        outcome.wall_s = time.perf_counter() - start
    except Exception as exc:
        registry.end_task(mark)
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.traceback = traceback_mod.format_exc()
        return outcome
    except BaseException:
        registry.end_task(mark)
        raise
    outcome.metrics = registry.end_task(mark)
    outcome.ok = True
    return outcome


def _run_chunk(fn: Callable,
               entries: Sequence[tuple[int, object]]) -> list[_TaskOutcome]:
    """Run one chunk of entries in order inside a pool worker (the unit
    of placement)."""
    return [_run_task(fn, item, index) for index, item in entries]


#: How often a pool worker checks that its parent is still alive.
_PARENT_POLL_S = 0.5


def _exit_with_parent() -> None:
    """Pool-worker initializer: SIGTERM ends the worker, and so does the
    loss of its parent.

    A worker forked from the CLI inherits the controller's SIGTERM
    handler, which would raise an interrupt inside the worker; with the
    default action restored, a SIGTERMed worker dies like any other and
    the sweep takes the dead-worker path.  A controller killed with
    SIGKILL never shuts its pool down; the workers are reparented and
    would wait on the call queue forever.  A daemon thread watches the
    parent pid and exits the worker when it changes.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = os.getppid()

    def _watch():
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=_watch, daemon=True).start()


def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
    """Best-effort SIGKILL of pool workers on abnormal exits, so an
    abort (a pool break included) or an interrupt is not held hostage by
    a long or hung task.  SIGKILL rather than SIGTERM: it is the one
    signal that task or library code in a worker cannot catch, block or
    ignore.  Reaches into executor internals, hence the broad guard."""
    try:
        processes = list((pool._processes or {}).values())
    except Exception:
        return
    for process in processes:
        try:
            process.kill()
        except Exception:
            pass


# ---------------------------------------------------------------------
# Controller side: commits, checkpointing, the two sweep loops.


class _SweepState:
    """Per-sweep bookkeeping shared by the inline and pool loops."""

    def __init__(
        self,
        tasks: Sequence,
        label: str,
        timing: SweepTiming,
        ckpt: checkpoint_mod.SweepCheckpoint | None,
    ):
        self.tasks = tasks
        self.label = label
        self.timing = timing
        self.ckpt = ckpt
        n = len(tasks)
        self.results: list = [None] * n
        self.walls: list[float] = [0.0] * n
        self.snapshots: list[MetricsSnapshot | None] = [None] * n
        # At-most-once commit: task keys whose slot is already decided.
        # The first commit wins; every later arrival for the key is
        # counted as a duplicate and dropped.
        self.committed: set[str] = set()

    def is_committed(self, index: int) -> bool:
        """Whether the task at ``index`` already has a committed outcome."""
        return checkpoint_mod.task_key(self.tasks[index], index) in self.committed

    def restore_chunk(self, chunk) -> bool:
        """Fill a whole chunk's slots from the checkpoint; True when
        restored.

        Chunk-granular (see :mod:`repro.experiments.checkpoint`): unless
        every task of the chunk decodes, none of them commits and the
        chunk re-runs whole, so a re-run never delivers a duplicate.
        """
        if self.ckpt is None:
            return False
        restored = []
        for index, item in chunk:
            key = checkpoint_mod.task_key(item, index)
            stored = self.ckpt.restore(key)
            if stored is None:
                return False
            restored.append((index, key, stored))
        for index, key, stored in restored:
            self.results[index], self.walls[index], self.snapshots[index] = (
                stored
            )
            self.committed.add(key)
        self.timing.resumed_tasks += len(restored)
        return True

    def absorb(self, outcome: _TaskOutcome) -> None:
        """Commit one task outcome (and checkpoint it).

        Commits at most once per task key: a duplicate arrival is
        counted and dropped, keeping results, metrics, and the
        checkpoint identical to a single clean delivery.  A failed task
        commits as decided and aborts the sweep with
        :class:`SweepAbortedError`.
        """
        i = outcome.index
        key = checkpoint_mod.task_key(self.tasks[i], i)
        if key in self.committed:
            self.timing.duplicate_results += 1
            events.emit(
                "duplicate_result_dropped",
                run_id=self.timing.run_id,
                label=self.label,
                task_index=i,
                task_key=key,
            )
            return
        self.committed.add(key)
        if outcome.ok:
            self.results[i] = outcome.result
            self.walls[i] = outcome.wall_s
            self.snapshots[i] = outcome.metrics
            if self.ckpt is not None:
                item = self.tasks[i]
                self.ckpt.append(
                    key,
                    i,
                    repr(item)[:160],
                    outcome.wall_s,
                    outcome.result,
                    outcome.metrics,
                )
            events.emit(
                "task_done",
                run_id=self.timing.run_id,
                label=self.label,
                task_index=i,
                wall_s=round(outcome.wall_s, 6),
                worker=outcome.worker,
            )
            return
        message = f"sweep {self.label!r} task {i} failed: {outcome.error}"
        error = TaskError(
            message,
            task_key=key,
            task_index=i,
            worker_traceback=outcome.traceback,
        )
        events.emit(
            "task_failed",
            run_id=self.timing.run_id,
            label=self.label,
            task_index=i,
            task_key=key,
            error=outcome.error,
        )
        raise SweepAbortedError(
            f"sweep {self.label!r} aborted: {message}",
            label=self.label,
            failures=[error],
        ) from error

    def fail_chunk(self, chunk, exc: Exception, running: dict) -> None:
        """An infrastructure failure lost a whole chunk (its worker died,
        or its result would not unpickle).  Every future in ``running``
        that already holds its chunk's outcomes commits them (the others
        die with the pool); then the lost chunk's first uncommitted task
        fails the sweep."""
        for future in running:
            if future.done() and future.exception() is None:
                for outcome in future.result():
                    self.absorb(outcome)
        for index, _item in chunk:
            if not self.is_committed(index):
                self.absorb(_TaskOutcome(
                    index=index,
                    error=f"chunk execution failed: {type(exc).__name__}: {exc}",
                ))


def _chunked(entries: list, chunksize: int) -> list[list]:
    return [
        entries[i:i + chunksize] for i in range(0, len(entries), chunksize)
    ]


def _run_inline(fn, chunks: list, state: _SweepState) -> None:
    """Run chunks in-process, in order, committing each task as it ends.

    The first task error aborts mid-chunk.
    """
    for chunk in chunks:
        for index, item in chunk:
            state.absorb(_run_task(fn, item, index))


def _run_pool(fn, chunks: list, jobs: int, state: _SweepState) -> None:
    """Run chunks on one ``jobs``-worker process pool.

    Submits every chunk, then blocks until the next one finishes and
    commits its outcomes in order.  A chunk whose outcomes are lost —
    its worker died (``BrokenProcessPool`` from ``submit`` or from its
    future) or its result would not unpickle — aborts the sweep through
    :meth:`_SweepState.fail_chunk`, after what the other workers already
    finished has committed; ``--resume`` re-runs the rest.  Any
    exception, an interrupt included, SIGKILLs the workers on its way
    out.
    """
    pool = ProcessPoolExecutor(max_workers=jobs, initializer=_exit_with_parent)
    running: dict = {}       # future -> chunk
    try:
        for chunk in chunks:
            try:
                running[pool.submit(_run_chunk, fn, chunk)] = chunk
            except BrokenProcessPool as exc:
                state.fail_chunk(chunk, exc, running)
        while running:
            done, _ = futures_wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                chunk = running.pop(future)
                try:
                    outcomes = future.result()
                except Exception as exc:
                    state.fail_chunk(chunk, exc, running)
                    continue
                for outcome in outcomes:
                    state.absorb(outcome)
    except BaseException:
        _kill_pool_workers(pool)
        raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------
def run_sweep(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
    chunksize: int | None = None,
    label: str = "sweep",
    record: bool = True,
) -> tuple[list[R], SweepTiming]:
    """Map ``fn`` over ``items``, preserving order.

    ``fn`` must be a module-level callable and every item picklable when
    the work leaves the process (the ``local`` pool, used whenever more
    than one worker runs).  With ``jobs=1`` (the ``inline`` loop)
    nothing is pickled and everything runs in-process.
    ``chunksize`` controls how many consecutive tasks form one unit of
    worker placement; drivers pass the inner-loop length so one worker
    runs all of a benchmark's chip models and reuses its memoized trace.

    The first task error, or a worker that dies, raises
    :class:`SweepAbortedError`; with checkpointing on, rerunning the same
    sweep under the same run id restores what committed.

    An empty task list returns immediately with ``timing.empty`` set and
    records nothing, so reports never show zero-task sweeps.
    """
    tasks: Sequence[T] = list(items)
    run_id = events.current_run_id()
    timing = SweepTiming(label=label, jobs=1, run_id=run_id)
    if not tasks:
        timing.empty = True
        timing.metrics = MetricsSnapshot()
        return [], timing
    jobs = min(resolve_jobs(jobs), max(1, len(tasks)))
    if chunksize is None:
        chunksize = max(1, -(-len(tasks) // (jobs * 4)))
    chunks = _chunked(list(enumerate(tasks)), chunksize)
    ckpt = checkpoint_mod.open_sweep(label, run_id)
    state = _SweepState(tasks, label, timing, ckpt)
    pending_chunks = [c for c in chunks if not state.restore_chunk(c)]
    jobs = min(jobs, max(1, len(pending_chunks)))
    timing.jobs = jobs
    backend = resolve_executor(jobs)
    timing.executor = backend
    events.emit(
        "sweep_begin",
        run_id=run_id,
        label=label,
        tasks=len(tasks),
        jobs=jobs,
        executor=backend,
        resumed_tasks=timing.resumed_tasks,
    )
    start = time.perf_counter()
    try:
        if backend == "local":
            _run_pool(fn, pending_chunks, jobs, state)
        else:
            _run_inline(fn, pending_chunks, state)
        if ckpt is not None:
            # The sweep ran to completion: publish the crash-consistent
            # "this checkpoint is the full record" marker.
            ckpt.finalize(len(tasks))
    except KeyboardInterrupt:
        events.emit(
            "sweep_interrupted",
            run_id=run_id,
            label=label,
            completed_tasks=sum(s is not None for s in state.snapshots),
            checkpointed=ckpt is not None,
        )
        raise
    finally:
        if ckpt is not None:
            ckpt.close()
    timing.wall_s = time.perf_counter() - start
    timing.task_wall_s = list(state.walls)
    # Merge in submission order: the operation is order-independent, but
    # a fixed order keeps even float-valued span times reproducible for
    # a given worker count.
    timing.metrics = merge_snapshots(state.snapshots)
    if record:
        _TIMINGS.append(timing)
        events.emit(
            "sweep",
            run_id=run_id,
            label=label,
            tasks=timing.tasks,
            jobs=jobs,
            wall_s=round(timing.wall_s, 3),
            resumed_tasks=timing.resumed_tasks,
            executor=backend,
        )
    return state.results, timing


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
    chunksize: int | None = None,
    label: str = "sweep",
) -> list[R]:
    """:func:`run_sweep` without the timing handle (it is still recorded)."""
    results, _ = run_sweep(
        fn, items, jobs=jobs, chunksize=chunksize, label=label,
    )
    return results
