"""Pluggable executor backends for the sweep engine.

The engine (:mod:`repro.experiments.engine`) schedules chunks of sweep
tasks; *how* a chunk actually runs is this module's concern.  An
:class:`Executor` turns ``submit_chunk`` calls into a stream of
:class:`ChunkStarted` / :class:`TaskDone` / :class:`ChunkDone` /
:class:`ChunkFailed` / :class:`PoolBroken` events that the engine's
backend-agnostic scheduler loop consumes.  Two implementations ship:

* :class:`InlineExecutor` — serial, in-process, one task per ``poll``
  call so the scheduler can checkpoint and fail-fast *between* tasks
  exactly like the old ``_run_serial`` path.  Nothing is pickled;
  ``pdb``, profilers, and coverage keep working.
* :class:`LocalPoolExecutor` — chunk futures on a
  ``ProcessPoolExecutor``, with ``BrokenProcessPool`` surfaced as a
  single :class:`PoolBroken` event so the scheduler can rebuild and
  resubmit.

This module also owns the *worker-side* execution layer the backends
share — the per-attempt retry loop (:func:`_attempt_task`), the
``SIGALRM`` interval-timer deadline (:func:`_deadline`), and the
picklable :class:`_TaskOutcome` record — moved here from the engine so
the backends and the engine do not import-cycle.

On platforms without ``signal.SIGALRM`` / ``setitimer`` the in-worker
deadline cannot be armed; :func:`_attempt_task` then falls back to a
post-hoc wall-clock check (an overlong attempt that *finishes* is still
converted to a timeout and retried) and true hangs are left to the
controller-side lease, which fabricates the timeout when the chunk
outlives its worst-case budget.

Selection: :func:`resolve_executor` derives the backend from the worker
count — ``inline`` for ``jobs=1`` and ``local`` otherwise.  When the
pool fails for good (its rebuild budget exhausted) the scheduler raises
:class:`~repro.common.errors.ExecutorBrokenError` internally and
degrades down :data:`DEGRADATION_CHAIN` (``local -> inline``).
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback as traceback_mod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.common.errors import ChaosError, ConfigError
from repro.experiments.chaos import ChaosPolicy
from repro.obs import profile as profile_mod
from repro.obs.metrics import MetricsSnapshot, get_registry

__all__ = [
    "DEGRADATION_CHAIN",
    "ChunkStarted",
    "TaskDone",
    "ChunkDone",
    "ChunkFailed",
    "PoolBroken",
    "Executor",
    "InlineExecutor",
    "LocalPoolExecutor",
    "make_executor",
    "resolve_executor",
]

#: Fallback order when a backend fails for good: each link degrades to
#: the next.  ``inline`` cannot fail (it is the in-process loop), so the
#: chain always terminates.
DEGRADATION_CHAIN = ("local", "inline")

#: Whether this platform can arm the in-worker interval-timer deadline.
#: Module-level so tests can monkeypatch the no-SIGALRM fallback.
_HAS_ALARM = hasattr(signal, "SIGALRM") and hasattr(signal, "setitimer")


# ---------------------------------------------------------------------
# Worker-side task execution: attempts, timeouts, chaos.
#
# A sweep entry is the tuple ``(index, base_attempt, item)``.
# ``base_attempt`` is nonzero only after a chaos kill was attributed to
# the task, so its rerun counts the consumed attempt and skips further
# first-attempt injections.


class _TaskTimeout(BaseException):
    """Raised by the SIGALRM handler; BaseException so the task body
    cannot swallow it with a broad ``except Exception``."""


def _alarm_usable() -> bool:
    """Whether the in-process deadline can be enforced right here."""
    return _HAS_ALARM and threading.current_thread() is threading.main_thread()


@contextmanager
def _deadline(timeout_s: float | None):
    """Kill the enclosed block after ``timeout_s`` via an interval timer.

    Enforcement requires ``SIGALRM`` (Unix) and the main thread — both
    true for pool workers and for the inline in-process path.
    Anywhere else the block runs unlimited rather than failing; the
    caller's post-hoc wall check and the controller-side lease take
    over (see the module docstring).

    The timer is armed with a repeating interval equal to the timeout:
    if a task body swallows the first :class:`_TaskTimeout` (a broad
    ``except BaseException`` handler) the alarm re-fires one period
    later, so an in-process (jobs=1) task cannot convert one caught
    alarm into an unlimited run.  The ``finally`` disarm clears both the
    pending expiry and the repeat interval.
    """
    if timeout_s is None or not _alarm_usable():
        yield
        return

    def _on_alarm(signum, frame):
        raise _TaskTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class _TaskOutcome:
    """What one task's attempt loop produced (picklable)."""

    index: int
    ok: bool = False
    result: object = None
    wall_s: float = 0.0
    metrics: MetricsSnapshot | None = None
    attempts: int = 0        # attempts executed here (excludes base)
    retries: int = 0         # failed attempts that were retried in place
    timeouts: int = 0        # attempts killed by the per-task timeout
    error_kind: str = ""     # "error" | "timeout" | "chaos"
    error: str = ""
    traceback: str = ""
    #: Optional trace context piggybacked for the live/export consumers:
    #: ``pid``, ``start_unix``/``end_unix`` wall-clock stamps, and (with
    #: ``--profile``) the attempt's collapsed-stack ``profile`` dict.
    #: ``None`` whenever observability is off (``REPRO_OBS=off``).
    telemetry: dict | None = None


def _attempt_task(
    fn: Callable,
    item,
    index: int,
    base_attempt: int,
    policy,
    chaos: ChaosPolicy | None,
    in_worker: bool,
) -> _TaskOutcome:
    """Run one task with in-place retries; never raises task errors.

    Retries stay on the executing process on purpose: the retry then
    sees exactly the memo-cache state a clean run would have, which is
    part of the merged-metric determinism contract.  Failed attempts
    call ``end_task`` purely to unwind the span stack — their metric
    deltas are discarded.

    Without a usable ``SIGALRM`` the deadline degrades to a post-hoc
    check: an attempt that returns after more than ``timeout_s`` of
    wall clock is discarded and counted as a timeout, exactly as if the
    alarm had fired.  Attempts that never return are the controller
    lease's problem.
    """
    outcome = _TaskOutcome(index=index)
    attempts_allowed = max(1, policy.max_retries + 1 - base_attempt)
    registry = get_registry()
    for n in range(attempts_allowed):
        attempt = base_attempt + n
        outcome.attempts = n + 1
        if n:
            delay = policy.backoff(index, attempt)
            if delay:
                time.sleep(delay)
        try:
            if chaos is not None:
                chaos.inject(index, attempt, in_worker=in_worker)
            mark = registry.begin_task()
            prof = profile_mod.start_profile() if profile_mod.enabled() \
                else None
            start_unix = time.time()
            try:
                start = time.perf_counter()
                with _deadline(policy.timeout_s):
                    result = fn(item)
                wall = time.perf_counter() - start
                if (
                    policy.timeout_s is not None
                    and wall > policy.timeout_s
                    and not _alarm_usable()
                ):
                    raise _TaskTimeout()
                snapshot = registry.end_task(mark)
            except BaseException:
                if prof is not None:
                    prof.disable()
                registry.end_task(mark)
                raise
        except _TaskTimeout:
            outcome.timeouts += 1
            outcome.error_kind = "timeout"
            outcome.error = f"task exceeded its {policy.timeout_s}s timeout"
            outcome.traceback = traceback_mod.format_exc()
        except ChaosError as exc:
            outcome.error_kind = "chaos"
            outcome.error = str(exc)
            outcome.traceback = traceback_mod.format_exc()
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            outcome.error_kind = "error"
            outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.traceback = traceback_mod.format_exc()
        else:
            outcome.ok = True
            outcome.result = result
            outcome.wall_s = wall
            outcome.metrics = snapshot
            if registry.enabled:
                telemetry = {
                    "pid": os.getpid(),
                    "start_unix": start_unix,
                    "end_unix": start_unix + wall,
                }
                if prof is not None:
                    telemetry["profile"] = profile_mod.collapse(prof)
                outcome.telemetry = telemetry
            return outcome
        if n + 1 < attempts_allowed:
            outcome.retries += 1
    return outcome


def _run_chunk(
    fn: Callable,
    entries: Sequence[tuple[int, int, object]],
    policy,
    chaos: ChaosPolicy | None,
    in_worker: bool,
) -> list[_TaskOutcome]:
    """Execute one chunk of entries in order (the unit of placement)."""
    return [
        _attempt_task(fn, item, index, base, policy, chaos, in_worker)
        for index, base, item in entries
    ]


# ---------------------------------------------------------------------
# Scheduler-facing event stream.


@dataclass(frozen=True)
class ChunkStarted:
    """A worker began executing a chunk (re-arms its lease)."""

    chunk_id: int
    worker: str = ""


@dataclass(frozen=True)
class TaskDone:
    """One task of a chunk finished (ok or exhausted); carries the outcome.

    ``worker`` names the executing worker when the backend knows it
    (``"inline"`` or a pool pid) — live telemetry attribution only,
    never scheduling state.
    """

    chunk_id: int
    outcome: _TaskOutcome = None
    worker: str = ""


@dataclass(frozen=True)
class ChunkDone:
    """Every task of the chunk has been reported."""

    chunk_id: int


@dataclass(frozen=True)
class ChunkFailed:
    """Chunk execution failed as a unit (e.g. its result would not
    unpickle); the scheduler fails its uncommitted tasks."""

    chunk_id: int
    error: Exception = None


@dataclass(frozen=True)
class PoolBroken:
    """The whole process pool died; the scheduler rebuilds and
    resubmits every listed chunk (``BrokenProcessPool`` semantics)."""

    chunk_ids: tuple = ()


class Executor:
    """Protocol all backends implement; see the module docstring.

    Constructed with the sweep-constant context (``fn``, ``policy``,
    ``chaos``, ``jobs``) so ``submit_chunk`` carries only
    the varying part: a chunk id and its entries.
    """

    name = "base"

    def __init__(self, *, fn, policy, chaos, jobs=1):
        self._fn = fn
        self._policy = policy
        self._chaos = chaos
        self._jobs = max(1, jobs)

    def submit_chunk(self, chunk_id: int, entries: Sequence) -> None:
        """Queue one chunk of ``(index, base_attempt, item)`` entries."""
        raise NotImplementedError

    def poll(self, timeout_s: float | None = None) -> list:
        """Advance the backend and return newly available events."""
        raise NotImplementedError

    def cancel(self, chunk_id: int) -> bool:
        """Stop tracking (and best-effort stop running) one chunk.

        True when the backend knew the chunk; after cancellation no
        further events for it are delivered.
        """
        raise NotImplementedError

    def cancel_pending(self, chunk_id: int) -> bool:
        """Cancel one chunk *only if it has not started executing*.

        Used by the drain path (SIGTERM): started chunks are left to
        finish and commit, unstarted ones are withdrawn so the process
        can exit early with a resumable checkpoint.  True when the
        chunk was withdrawn; False when it is already running (or
        unknown) and will still report events.
        """
        return False

    def heartbeat(self) -> dict:
        """Live-worker health, keyed by worker id (a string).

        Every backend reports the same schema — each value is a dict
        with ``worker`` (the same id), ``age_s`` (seconds since the
        worker was last heard from; ``0.0`` for the in-process and pool
        workers, whose liveness is implicit), and ``inflight_chunk``
        (the chunk id currently placed on the worker, or ``None`` when
        idle or unknown).  Observation-only: the scheduler never reads
        this; it feeds ``LiveStats`` and the metrics endpoint.
        """
        return {}

    def shutdown(self, kill: bool = False) -> None:
        """Release workers; ``kill`` terminates them without waiting."""
        raise NotImplementedError


# ---------------------------------------------------------------------
class InlineExecutor(Executor):
    """Serial in-process execution, one task per :meth:`poll`.

    Advancing a single task per poll is what preserves the old serial
    path's semantics: the scheduler absorbs (checkpoints, fail-fasts)
    between tasks, so an abort stops mid-chunk.  Chaos worker-kills are
    skipped (``in_worker=False``) — killing the controller process is
    never useful — which is exactly what lets a degraded run complete
    under any chaos policy.
    """

    name = "inline"

    def __init__(self, **context):
        super().__init__(**context)
        self._queue: deque = deque()
        self._current = None  # [chunk_id, entries, next_pos]

    def submit_chunk(self, chunk_id: int, entries: Sequence) -> None:
        self._queue.append((chunk_id, list(entries)))

    def poll(self, timeout_s: float | None = None) -> list:
        events: list = []
        if self._current is None:
            if not self._queue:
                return events
            chunk_id, entries = self._queue.popleft()
            self._current = [chunk_id, entries, 0]
            events.append(ChunkStarted(chunk_id, worker="inline"))
        chunk_id, entries, pos = self._current
        index, base, item = entries[pos]
        outcome = _attempt_task(
            self._fn, item, index, base, self._policy, self._chaos,
            in_worker=False,
        )
        events.append(TaskDone(chunk_id, outcome, worker="inline"))
        if pos + 1 >= len(entries):
            events.append(ChunkDone(chunk_id))
            self._current = None
        else:
            self._current[2] = pos + 1
        return events

    def cancel(self, chunk_id: int) -> bool:
        if self._current is not None and self._current[0] == chunk_id:
            self._current = None
            return True
        for queued in list(self._queue):
            if queued[0] == chunk_id:
                self._queue.remove(queued)
                return True
        return False

    def cancel_pending(self, chunk_id: int) -> bool:
        if self._current is not None and self._current[0] == chunk_id:
            return False  # mid-chunk: let it finish
        for queued in list(self._queue):
            if queued[0] == chunk_id:
                self._queue.remove(queued)
                return True
        return False

    def heartbeat(self) -> dict:
        inflight = self._current[0] if self._current is not None else None
        return {"inline": {"worker": "inline", "age_s": 0.0,
                           "inflight_chunk": inflight}}

    def shutdown(self, kill: bool = False) -> None:
        self._queue.clear()
        self._current = None


# ---------------------------------------------------------------------
def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
    """Best-effort SIGKILL of pool workers on abnormal exits, so an
    abort, a drain timeout, or a lease expiry is not held hostage by a
    long or hung task.  SIGKILL rather than SIGTERM: workers forked by
    the CLI inherit its drain handler and would ignore SIGTERM.  Reaches
    into executor internals, hence the broad guard."""
    try:
        processes = list((pool._processes or {}).values())
    except Exception:
        return
    for process in processes:
        try:
            process.kill()
        except Exception:
            pass


#: How often a pool worker checks that its parent is still alive.
_PARENT_POLL_S = 0.5


def _exit_with_parent() -> None:
    """Pool-worker initializer: end the worker once its parent is gone.

    A controller killed with SIGKILL never shuts its pool down; the
    workers are reparented and would wait on the call queue forever
    (the drain handler they inherit makes them ignore SIGTERM too).  A
    daemon thread watches the parent pid and exits the worker when it
    changes.
    """
    parent = os.getppid()

    def _watch():
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=_watch, daemon=True).start()


class LocalPoolExecutor(Executor):
    """Chunk futures on a lazily (re)built ``ProcessPoolExecutor``.

    A broken pool is reported once, as a single :class:`PoolBroken`
    event carrying every in-flight chunk id; the pool itself is torn
    down and a fresh one is built on the next ``submit_chunk`` — the
    scheduler owns the rebuild budget and the resubmission.
    """

    name = "local"

    def __init__(self, **context):
        super().__init__(**context)
        self._pool: ProcessPoolExecutor | None = None
        self._futures: dict = {}   # future -> chunk_id
        self._by_chunk: dict = {}  # chunk_id -> future
        self._needs_kill = False

    def submit_chunk(self, chunk_id: int, entries: Sequence) -> None:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._jobs, initializer=_exit_with_parent
            )
        future = self._pool.submit(
            _run_chunk, self._fn, list(entries), self._policy, self._chaos,
            True,
        )
        self._futures[future] = chunk_id
        self._by_chunk[chunk_id] = future

    def _chunk_events(self, chunk_id: int, outcomes) -> list:
        events = []
        for outcome in outcomes:
            telemetry = getattr(outcome, "telemetry", None) or {}
            pid = telemetry.get("pid")
            events.append(TaskDone(
                chunk_id, outcome,
                worker="" if pid is None else str(pid),
            ))
        events.append(ChunkDone(chunk_id))
        return events

    def poll(self, timeout_s: float | None = None) -> list:
        if not self._futures:
            return []
        done, _ = futures_wait(
            list(self._futures), timeout=timeout_s,
            return_when=FIRST_COMPLETED,
        )
        events: list = []
        broken_ids: list = []
        for future in done:
            chunk_id = self._futures.pop(future)
            self._by_chunk.pop(chunk_id, None)
            try:
                outcomes = future.result()
            except BrokenProcessPool:
                broken_ids.append(chunk_id)
            except Exception as exc:
                events.append(ChunkFailed(chunk_id, exc))
            else:
                events.extend(self._chunk_events(chunk_id, outcomes))
        if broken_ids:
            # The pool is dead: every other in-flight future is doomed
            # (or already holds a result).  Drain them so one PoolBroken
            # event carries the full set to resubmit.
            for future in list(self._futures):
                chunk_id = self._futures.pop(future)
                self._by_chunk.pop(chunk_id, None)
                try:
                    outcomes = future.result(timeout=10.0)
                except Exception:
                    broken_ids.append(chunk_id)
                else:
                    events.extend(self._chunk_events(chunk_id, outcomes))
            self._teardown(kill=True)
            events.append(PoolBroken(tuple(broken_ids)))
        return events

    def cancel(self, chunk_id: int) -> bool:
        future = self._by_chunk.pop(chunk_id, None)
        if future is None:
            return False
        self._futures.pop(future, None)
        if not future.cancel():
            # Already running: the worker may be hung on it.  Once no
            # tracked work remains, terminate the workers so the sweep
            # is not held hostage (old wave-expiry semantics).
            self._needs_kill = True
        if self._needs_kill and not self._futures:
            self._teardown(kill=True)
        return True

    def cancel_pending(self, chunk_id: int) -> bool:
        future = self._by_chunk.get(chunk_id)
        if future is None or not future.cancel():
            return False  # unknown or already picked up by a worker
        self._by_chunk.pop(chunk_id, None)
        self._futures.pop(future, None)
        return True

    def heartbeat(self) -> dict:
        if self._pool is None:
            return {}
        try:
            pids = sorted(
                pid for pid, proc in (self._pool._processes or {}).items()
                if proc.is_alive()
            )
        except Exception:
            return {}
        # Chunk placement inside the pool is the pool's own business, so
        # ``inflight_chunk`` is unknowable here; liveness is implicit in
        # the process being alive (age 0.0).
        return {
            str(pid): {"worker": str(pid), "age_s": 0.0,
                       "inflight_chunk": None}
            for pid in pids
        }

    def _teardown(self, kill: bool) -> None:
        pool, self._pool = self._pool, None
        self._needs_kill = False
        if pool is None:
            return
        if kill:
            _kill_pool_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, kill: bool = False) -> None:
        self._futures.clear()
        self._by_chunk.clear()
        self._teardown(kill=kill)


# ---------------------------------------------------------------------
# Backend selection.

_EXECUTORS = {
    "inline": InlineExecutor,
    "local": LocalPoolExecutor,
}


def resolve_executor(jobs: int | None = None) -> str:
    """The backend for ``jobs`` workers: ``inline`` for one, ``local``
    (the process pool) otherwise."""
    return "inline" if (jobs or 1) <= 1 else "local"


def make_executor(name: str, *, fn, policy, chaos, jobs=1) -> Executor:
    """Instantiate the named backend with the sweep-constant context."""
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        raise ConfigError(
            f"unknown executor {name!r} (expected one of "
            f"{sorted(_EXECUTORS)})"
        ) from None
    return cls(fn=fn, policy=policy, chaos=chaos, jobs=jobs)
