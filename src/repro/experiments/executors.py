"""Pluggable executor backends for the sweep engine.

The engine (:mod:`repro.experiments.engine`) schedules chunks of sweep
tasks; *how* a chunk actually runs is this module's concern.  An
:class:`Executor` turns ``submit_chunk`` calls into a stream of
:class:`ChunkStarted` / :class:`TaskDone` / :class:`ChunkDone` /
:class:`WorkerLost` events that the engine's backend-agnostic scheduler
loop consumes.  Three implementations ship:

* :class:`InlineExecutor` — serial, in-process, one task per ``poll``
  call so the scheduler can checkpoint and fail-fast *between* tasks
  exactly like the old ``_run_serial`` path.  Nothing is pickled;
  ``pdb``, profilers, and coverage keep working.
* :class:`LocalPoolExecutor` — today's ``ProcessPoolExecutor`` shape:
  chunk futures, ``BrokenProcessPool`` surfaced as a single
  :class:`PoolBroken` event so the scheduler can rebuild and resubmit.
* :class:`SocketExecutor` — long-lived worker processes speaking a
  localhost TCP protocol of length-prefixed pickled frames, standing in
  for the multi-host case.  Workers send heartbeats from a daemon
  thread and stream per-task results, so the controller detects a lost
  or silent worker (EOF, missed heartbeats), requeues its chunk onto
  a survivor without restarting the backend, and — within
  ``TaskPolicy.max_respawns`` — spawns a replacement worker so the
  sweep recovers full capacity.

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

Selection: :func:`resolve_executor` picks the backend — explicit
argument, then :func:`set_default_executor` (the CLI's ``--executor``),
then the ``REPRO_EXECUTOR`` environment variable, then ``inline`` for
``jobs=1`` and ``local`` otherwise.  When a backend fails for good
(every socket worker lost, pool rebuild budget exhausted) it raises
:class:`~repro.common.errors.ExecutorBrokenError` and the scheduler
degrades down :data:`DEGRADATION_CHAIN` (``socket -> local ->
inline``).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import selectors
import signal
import socket
import threading
import time
import traceback as traceback_mod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.common.errors import ChaosError, ConfigError, ExecutorBrokenError
from repro.experiments.chaos import ChaosPolicy
from repro.obs import profile as profile_mod
from repro.obs.metrics import MetricsSnapshot, get_registry

__all__ = [
    "EXECUTOR_ENV_VAR",
    "DEGRADATION_CHAIN",
    "ChunkStarted",
    "TaskDone",
    "ChunkDone",
    "ChunkFailed",
    "WorkerLost",
    "PoolBroken",
    "WorkerRespawned",
    "RespawnFailed",
    "Executor",
    "InlineExecutor",
    "LocalPoolExecutor",
    "SocketExecutor",
    "make_executor",
    "resolve_executor",
    "set_default_executor",
]

EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: Fallback order when a backend fails for good: each link degrades to
#: the next.  ``inline`` cannot fail (it is the in-process loop), so the
#: chain always terminates.
DEGRADATION_CHAIN = ("socket", "local", "inline")

#: Whether this platform can arm the in-worker interval-timer deadline.
#: Module-level so tests can monkeypatch the no-SIGALRM fallback.
_HAS_ALARM = hasattr(signal, "SIGALRM") and hasattr(signal, "setitimer")


# ---------------------------------------------------------------------
# Worker-side task execution: attempts, timeouts, chaos.
#
# A sweep entry is the tuple ``(index, base_attempt, item)``.
# ``base_attempt`` is nonzero only after a chaos kill (or heartbeat
# drop) was attributed to the task, so its rerun counts the consumed
# attempt and skips further first-attempt injections.


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
    true for pool/socket workers and for the inline in-process path.
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
    (``"inline"``, a pool pid, a socket worker id) — live telemetry
    attribution only, never scheduling state.
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
class WorkerLost:
    """A worker died (``crash``) or went silent (``heartbeat``); its
    chunks need requeueing onto a survivor."""

    worker: str
    chunk_ids: tuple = ()
    reason: str = "crash"


@dataclass(frozen=True)
class PoolBroken:
    """The whole process pool died; the scheduler rebuilds and
    resubmits every listed chunk (``BrokenProcessPool`` semantics)."""

    chunk_ids: tuple = ()


@dataclass(frozen=True)
class WorkerRespawned:
    """A replacement worker came up after a loss (socket backend);
    ``replaced`` names the worker it stands in for."""

    worker: str
    replaced: str = ""


@dataclass(frozen=True)
class RespawnFailed:
    """A scheduled replacement worker failed to come up (chaos
    ``respawn-fail`` or a real spawn error); the respawn budget was
    still consumed."""

    replaced: str = ""
    ordinal: int = 0


class Executor:
    """Protocol all backends implement; see the module docstring.

    Constructed with the sweep-constant context (``fn``, ``policy``,
    ``chaos``, ``jobs``) so ``submit_chunk`` carries only
    the varying part: a chunk id and its entries.
    """

    name = "base"
    #: Whether a cancelled/lost chunk can be resubmitted to a surviving
    #: worker (socket) or the backend only supports terminal
    #: cancellation (inline, local pool — matching the old wave-expiry
    #: semantics).
    supports_requeue = False

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
        worker was last heard from, monotonic clock; ``0.0`` for
        in-process or pool workers whose liveness is implicit), and
        ``inflight_chunk`` (the chunk id currently placed on the
        worker, or ``None`` when idle).  Backends may add keys — the
        socket backend adds ``tasks_done``, the worker's self-reported
        progress within its current chunk.  Observation-only: the
        scheduler never reads this; it feeds ``LiveStats`` and the
        metrics endpoint.
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
    supports_requeue = False

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
    """Best-effort terminate of pool workers on abnormal exits, so an
    abort or Ctrl-C is not held hostage by a long or hung task.  Reaches
    into executor internals, hence the broad guard."""
    try:
        processes = list((pool._processes or {}).values())
    except Exception:
        return
    for process in processes:
        try:
            process.terminate()
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
    supports_requeue = False

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
# Socket transport: 4-byte big-endian length prefix + pickled payload.

_FRAME_HEADER_BYTES = 4
_HB_INTERVAL_S = 0.25
_SEND_TIMEOUT_S = 10.0


def _send_frame(sock: socket.socket, obj, lock: threading.Lock | None = None):
    """Serialise ``obj`` and write one length-prefixed frame."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    payload = len(data).to_bytes(_FRAME_HEADER_BYTES, "big") + data
    if lock is None:
        sock.sendall(payload)
    else:
        with lock:
            sock.sendall(payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Blocking read of exactly ``n`` bytes; None on EOF."""
    buf = bytearray()
    while len(buf) < n:
        part = sock.recv(n - len(buf))
        if not part:
            return None
        buf += part
    return bytes(buf)


def _recv_frame(sock: socket.socket):
    """Blocking read of one frame; None on EOF."""
    header = _recv_exact(sock, _FRAME_HEADER_BYTES)
    if header is None:
        return None
    size = int.from_bytes(header, "big")
    data = _recv_exact(sock, size)
    if data is None:
        return None
    return pickle.loads(data)


class _FrameBuffer:
    """Reassembles frames from a non-blocking socket's byte stream."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list:
        """Absorb ``data``; return every now-complete frame."""
        self._buf += data
        frames = []
        while True:
            if len(self._buf) < _FRAME_HEADER_BYTES:
                break
            size = int.from_bytes(self._buf[:_FRAME_HEADER_BYTES], "big")
            end = _FRAME_HEADER_BYTES + size
            if len(self._buf) < end:
                break
            frames.append(pickle.loads(bytes(self._buf[_FRAME_HEADER_BYTES:end])))
            del self._buf[:end]
        return frames


def _socket_worker_main(host, port, worker_id, fn, policy, chaos,
                        hb_interval):
    """Entry point of one long-lived socket worker process.

    Connects back to the controller, heartbeats from a daemon thread
    (suppressed while chaos says this chunk drops heartbeats), and
    streams ``task_result`` frames as the chunk progresses — with
    chaos-injected duplicate and delayed frames when asked, so the
    controller's at-most-once commit is exercised for real.

    While observability is on, heartbeat frames piggyback a tiny
    telemetry dict — the in-flight chunk id and tasks completed within
    it — updated by the main loop and read by the beat thread (plain
    dict-key stores, safe under the GIL).  ``REPRO_OBS=off`` drops the
    piggyback entirely.
    """
    sock = socket.create_connection((host, port))
    send_lock = threading.Lock()
    suppress_hb = threading.Event()
    stop = threading.Event()
    telemetry_on = get_registry().enabled
    progress = {"chunk": None, "done": 0}
    _send_frame(sock, {"type": "hello", "worker": worker_id}, send_lock)

    def _beat():
        while not stop.wait(hb_interval):
            if suppress_hb.is_set():
                continue
            frame = {"type": "hb", "worker": worker_id}
            if telemetry_on:
                frame["telemetry"] = dict(progress)
            try:
                _send_frame(sock, frame, send_lock)
            except OSError:
                return

    threading.Thread(target=_beat, daemon=True).start()
    try:
        while True:
            frame = _recv_frame(sock)
            if frame is None or frame.get("type") == "shutdown":
                return
            if frame.get("type") != "run":
                continue
            chunk_id = frame["chunk_id"]
            entries = frame["entries"]
            first_index, first_base, _item = entries[0]
            if chaos is not None and chaos.drops_heartbeat(
                first_index, first_base
            ):
                suppress_hb.set()
            _send_frame(
                sock,
                {"type": "started", "chunk_id": chunk_id,
                 "worker": worker_id},
                send_lock,
            )
            if chaos is not None and chaos.hangs(first_index, first_base):
                # The worker stalls *after* accepting the chunk while
                # heartbeats keep flowing — only the chunk lease can
                # notice; the controller cancels (kills) us and the
                # chunk's rerun is clean (attempt bump consumes the
                # decision).
                time.sleep(chaos.hang_s)
            progress["chunk"] = chunk_id
            progress["done"] = 0
            for pos, (index, base, item) in enumerate(entries):
                outcome = _attempt_task(
                    fn, item, index, base, policy, chaos, in_worker=True,
                )
                if chaos is not None and chaos.delays_result(index, base):
                    time.sleep(chaos.frame_delay_s)
                result = {
                    "type": "task_result", "chunk_id": chunk_id,
                    "worker": worker_id, "outcome": outcome,
                }
                _send_frame(sock, result, send_lock)
                progress["done"] = pos + 1
                if chaos is not None and chaos.duplicates_result(index, base):
                    _send_frame(sock, result, send_lock)
            _send_frame(
                sock,
                {"type": "chunk_done", "chunk_id": chunk_id,
                 "worker": worker_id},
                send_lock,
            )
            progress["chunk"] = None
            suppress_hb.clear()
    except OSError:
        pass
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass


class SocketExecutor(Executor):
    """Long-lived worker processes over localhost TCP.

    The controller is single-threaded: a ``selectors`` loop accepts
    worker connections and reassembles their frames inside
    :meth:`poll`.  Liveness is judged *only* from heartbeat (and hello)
    frames — result frames do not count — so a worker whose heartbeat
    thread is muted is declared lost even while it is still streaming
    results, which is exactly the failure the at-most-once commit must
    absorb.  A lost worker's chunks requeue onto survivors, and — when
    ``TaskPolicy.max_respawns`` allows — a replacement process is
    spawned after ``respawn_backoff_s`` (same frame protocol, fresh
    worker id, cold caches), so the sweep recovers full capacity
    instead of only shrinking.  When the respawn budget is spent and no
    worker is left the executor raises
    :class:`~repro.common.errors.ExecutorBrokenError` so the scheduler
    degrades to the next backend.
    """

    name = "socket"
    supports_requeue = True

    def __init__(self, *, hb_interval=_HB_INTERVAL_S, hb_timeout=None,
                 **context):
        super().__init__(**context)
        self._hb_interval = hb_interval
        self._hb_timeout = hb_timeout if hb_timeout is not None \
            else hb_interval * 6.0
        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(self._jobs)
        self._listener.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ,
                                {"kind": "listener"})
        self._addr = self._listener.getsockname()
        self._ctx = multiprocessing.get_context()
        self._procs: dict = {}       # worker_id -> Process
        self._states: dict = {}      # worker_id -> connection state
        self._last_hb: dict = {}     # worker_id -> monotonic timestamp
        self._hb_meta: dict = {}     # worker_id -> piggybacked telemetry
        self._busy: dict = {}        # worker_id -> chunk_id
        self._assigned: dict = {}    # chunk_id -> worker_id
        self._queue: deque = deque()  # (chunk_id, entries)
        self._next_worker_id = self._jobs
        self._respawns_used = 0
        self._max_respawns = max(0, getattr(
            self._policy, "max_respawns", 0) or 0)
        self._respawn_backoff = max(0.0, getattr(
            self._policy, "respawn_backoff_s", 0.0) or 0.0)
        self._pending_spawns: list = []  # (due monotonic, replaced id)
        self._pending_events: list = []  # RespawnFailed queued for poll
        for worker_id in range(self._jobs):
            self._spawn_worker(worker_id)

    def _spawn_worker(self, worker_id: int) -> None:
        host, port = self._addr
        proc = self._ctx.Process(
            target=_socket_worker_main,
            args=(host, port, worker_id, self._fn, self._policy,
                  self._chaos, self._hb_interval),
            daemon=True,
        )
        proc.start()
        self._procs[worker_id] = proc

    def _schedule_respawn(self, replaced) -> None:
        """Book a replacement for a lost worker, if budget remains.

        The budget is consumed at scheduling time, so a chaos-vetoed
        respawn (``respawn-fail``) costs an attempt exactly like a real
        spawn failure would.
        """
        if replaced is None or self._respawns_used >= self._max_respawns:
            return
        ordinal = self._respawns_used
        self._respawns_used += 1
        if self._chaos is not None and self._chaos.fails_respawn(ordinal):
            self._pending_events.append(
                RespawnFailed(replaced=str(replaced), ordinal=ordinal))
            return
        due = time.monotonic() + self._respawn_backoff
        self._pending_spawns.append((due, replaced))

    def _spawn_due_replacements(self, events: list) -> None:
        now = time.monotonic()
        for entry in [e for e in self._pending_spawns if e[0] <= now]:
            self._pending_spawns.remove(entry)
            _due, replaced = entry
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            try:
                self._spawn_worker(worker_id)
            except OSError:
                events.append(RespawnFailed(
                    replaced=str(replaced),
                    ordinal=self._respawns_used - 1))
                continue
            events.append(WorkerRespawned(worker=str(worker_id),
                                          replaced=str(replaced)))

    # -- wiring --------------------------------------------------------
    def _accept(self) -> None:
        try:
            conn, _addr = self._listener.accept()
        except OSError:
            return
        conn.settimeout(_SEND_TIMEOUT_S)
        state = {"kind": "worker", "sock": conn, "buf": _FrameBuffer(),
                 "worker": None}
        self._selector.register(conn, selectors.EVENT_READ, state)

    def _drop_conn(self, state) -> None:
        try:
            self._selector.unregister(state["sock"])
        except (KeyError, ValueError):
            pass
        try:
            state["sock"].close()
        except OSError:
            pass

    def _kill_proc(self, worker_id) -> None:
        proc = self._procs.pop(worker_id, None)
        if proc is None:
            return
        try:
            proc.terminate()
            proc.join(timeout=1.0)
        except Exception:
            pass

    def _lose_worker(self, state, reason: str, events: list,
                     silent: bool = False) -> None:
        self._drop_conn(state)
        worker_id = state.get("worker")
        if worker_id is None:
            return
        self._states.pop(worker_id, None)
        self._last_hb.pop(worker_id, None)
        self._hb_meta.pop(worker_id, None)
        self._kill_proc(worker_id)
        chunk_id = self._busy.pop(worker_id, None)
        chunk_ids = ()
        if chunk_id is not None:
            self._assigned.pop(chunk_id, None)
            chunk_ids = (chunk_id,)
        if not silent:
            events.append(WorkerLost(worker=str(worker_id),
                                     chunk_ids=chunk_ids, reason=reason))
        self._schedule_respawn(worker_id)

    def _read_worker(self, state, events: list) -> None:
        try:
            data = state["sock"].recv(65536)
        except (OSError, socket.timeout):
            data = b""
        if not data:
            self._lose_worker(state, "crash", events)
            return
        for frame in state["buf"].feed(data):
            kind = frame.get("type")
            if kind == "hello":
                worker_id = frame["worker"]
                state["worker"] = worker_id
                self._states[worker_id] = state
                self._last_hb[worker_id] = time.monotonic()
            elif kind == "hb":
                worker_id = frame["worker"]
                self._last_hb[worker_id] = time.monotonic()
                meta = frame.get("telemetry")
                if meta:
                    self._hb_meta[worker_id] = meta
            elif kind == "started":
                events.append(ChunkStarted(frame["chunk_id"],
                                           worker=str(frame["worker"])))
            elif kind == "task_result":
                events.append(TaskDone(frame["chunk_id"], frame["outcome"],
                                       worker=str(frame["worker"])))
            elif kind == "chunk_done":
                chunk_id = frame["chunk_id"]
                self._busy.pop(frame["worker"], None)
                self._assigned.pop(chunk_id, None)
                events.append(ChunkDone(chunk_id))

    def _dispatch(self, events: list) -> None:
        while self._queue:
            idle = sorted(
                worker_id for worker_id in self._states
                if worker_id not in self._busy
            )
            if not idle:
                return
            worker_id = idle[0]
            chunk_id, entries = self._queue.popleft()
            state = self._states[worker_id]
            try:
                _send_frame(state["sock"], {
                    "type": "run", "chunk_id": chunk_id, "entries": entries,
                })
            except (OSError, socket.timeout):
                self._queue.appendleft((chunk_id, entries))
                self._lose_worker(state, "crash", events)
                continue
            self._busy[worker_id] = chunk_id
            self._assigned[chunk_id] = worker_id

    def _check_capacity(self) -> None:
        if not (self._queue or self._assigned):
            return
        if self._states:
            return
        if self._pending_spawns:
            return  # a replacement is booked but not yet started
        if any(proc.is_alive() for proc in self._procs.values()):
            return  # spawned but not yet connected
        raise ExecutorBrokenError(
            "socket backend lost every worker", backend=self.name
        )

    # -- Executor protocol ---------------------------------------------
    def submit_chunk(self, chunk_id: int, entries: Sequence) -> None:
        self._queue.append((chunk_id, list(entries)))

    def poll(self, timeout_s: float | None = None) -> list:
        events: list = list(self._pending_events)
        self._pending_events.clear()
        self._spawn_due_replacements(events)
        budget = self._hb_interval
        if timeout_s is not None:
            budget = max(0.0, min(timeout_s, self._hb_interval))
        for key, _mask in self._selector.select(budget):
            if key.data["kind"] == "listener":
                self._accept()
            else:
                self._read_worker(key.data, events)
        now = time.monotonic()
        for worker_id, last in list(self._last_hb.items()):
            if now - last > self._hb_timeout:
                state = self._states.get(worker_id)
                if state is not None:
                    self._lose_worker(state, "heartbeat", events)
        self._dispatch(events)
        if not events:
            # Only declare the backend dead on a quiet poll: pending
            # events (WorkerLost in particular) must reach the scheduler
            # first so it can requeue and attribute the losses.
            self._check_capacity()
        return events

    def cancel(self, chunk_id: int) -> bool:
        for queued in list(self._queue):
            if queued[0] == chunk_id:
                self._queue.remove(queued)
                return True
        worker_id = self._assigned.pop(chunk_id, None)
        if worker_id is None:
            return False
        # The assigned worker is hung or silent on this chunk: kill it
        # (scheduler-initiated, so no WorkerLost event) and let the
        # requeue land on a survivor.
        state = self._states.get(worker_id)
        if state is not None:
            self._lose_worker(state, "cancelled", [], silent=True)
        else:
            self._kill_proc(worker_id)
            self._busy.pop(worker_id, None)
            self._schedule_respawn(worker_id)
        return True

    def cancel_pending(self, chunk_id: int) -> bool:
        for queued in list(self._queue):
            if queued[0] == chunk_id:
                self._queue.remove(queued)
                return True
        return False

    def heartbeat(self) -> dict:
        now = time.monotonic()
        health = {}
        for worker_id, last in self._last_hb.items():
            meta = self._hb_meta.get(worker_id) or {}
            inflight = meta.get("chunk")
            if inflight is None:  # worker silent on placement: ask the
                inflight = self._busy.get(worker_id)  # controller's book
            entry = {"worker": str(worker_id), "age_s": now - last,
                     "inflight_chunk": inflight}
            if "done" in meta:
                entry["tasks_done"] = meta["done"]
            health[str(worker_id)] = entry
        return health

    def shutdown(self, kill: bool = False) -> None:
        for state in list(self._states.values()):
            if not kill:
                try:
                    _send_frame(state["sock"], {"type": "shutdown"})
                except (OSError, socket.timeout):
                    pass
            self._drop_conn(state)
        self._states.clear()
        self._last_hb.clear()
        self._hb_meta.clear()
        self._busy.clear()
        self._assigned.clear()
        self._queue.clear()
        self._pending_spawns.clear()
        self._pending_events.clear()
        for worker_id in list(self._procs):
            self._kill_proc(worker_id)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._selector.close()


# ---------------------------------------------------------------------
# Backend selection.

_EXECUTORS = {
    "inline": InlineExecutor,
    "local": LocalPoolExecutor,
    "socket": SocketExecutor,
}

_DEFAULT_EXECUTOR: str | None = None


def set_default_executor(name: str | None) -> None:
    """Set the process-wide backend (the CLI's ``--executor``).

    Outranks ``REPRO_EXECUTOR``; ``None`` restores environment/auto
    selection.
    """
    global _DEFAULT_EXECUTOR
    if name is not None and name not in _EXECUTORS:
        raise ConfigError(
            f"unknown executor {name!r} (expected one of "
            f"{sorted(_EXECUTORS)})"
        )
    _DEFAULT_EXECUTOR = name


def resolve_executor(executor: str | None = None,
                     jobs: int | None = None) -> str:
    """The backend name: argument, then :func:`set_default_executor`,
    then ``REPRO_EXECUTOR``, then ``inline`` for one worker and
    ``local`` otherwise."""
    name = executor or _DEFAULT_EXECUTOR
    if name is None:
        raw = os.environ.get(EXECUTOR_ENV_VAR, "").strip().lower()
        name = raw or None
    if name is None:
        return "inline" if (jobs or 1) <= 1 else "local"
    if name not in _EXECUTORS:
        raise ConfigError(
            f"unknown executor {name!r} (expected one of "
            f"{sorted(_EXECUTORS)})"
        )
    return name


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
