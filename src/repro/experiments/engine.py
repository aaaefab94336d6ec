"""Fault-tolerant parallel experiment execution engine.

Every figure/table driver is a sweep over independent ``(benchmark x chip
model x policy)`` simulations, so the drivers submit their task lists here
instead of running nested loops inline.  The engine provides:

* :func:`parallel_map` / :func:`run_sweep` — order-preserving map over a
  pluggable executor backend (:mod:`repro.experiments.executors`) with
  chunked submission (chunks keep a worker on one benchmark's tasks so
  its per-process artifact cache gets hits; see :mod:`repro.common.memo`);
* a worker-count policy: an explicit ``jobs`` argument wins, then the
  ``REPRO_JOBS`` environment variable, then ``os.cpu_count()``.  The
  backend follows from it: ``inline`` for one worker (a pure in-process
  loop — no executor processes, no pickling — so ``pdb``, profilers,
  and coverage keep working) and the ``local`` process pool otherwise;
* a backend-agnostic scheduler loop driven by per-chunk **leases**
  (deadline = the wave's worst-case serial budget): an expired lease
  cancels the chunk and commits its unfinished tasks as timeouts,
  results commit **at most once** per task key (a duplicate delivery
  is counted and dropped), and a pool that keeps breaking degrades
  down the chain ``local -> inline``;
* a resilience policy (:class:`TaskPolicy`): per-task retries with
  exponential backoff and deterministic jitter, a per-task timeout that
  kills hung attempts from inside the worker, fail-fast vs.
  collect-errors modes, transparent rebuild of a broken worker pool
  (``BrokenProcessPool``), and graceful degradation after repeated
  worker deaths;
* sweep checkpointing (:mod:`repro.experiments.checkpoint`): completed
  task results append to a JSONL file keyed by run id and task key, so an
  interrupted sweep resumes via ``--resume <run_id>`` and re-executes
  only the tasks that never finished;
* a chaos hook (:mod:`repro.experiments.chaos`, ``REPRO_CHAOS``) that
  injects worker-side failures, delays, and process kills so the recovery
  machinery is itself testable — mirroring how :mod:`repro.core.faults`
  injects faults into the simulated cores;
* per-task wall-clock, metric-delta, and failure accounting recorded as a
  :class:`SweepTiming` per sweep (stamped with the active run id) that
  ``experiments/report.py`` and the benchmark harness render.

Determinism: results are returned in task-submission order regardless of
completion, retry, or resume history.  Tasks are pure — a retried attempt
is bit-identical to a clean first run — and the metric deltas of failed
attempts are discarded, so merged sweep metrics are equal across any
worker count, retry history, or resume boundary.  Chaos injections fire
*before* a task's body and only on first attempts, which keeps even a
chaos-disturbed sweep bit-identical to an undisturbed serial one.

Failure accounting (failures/retries/timeouts/pool rebuilds) deliberately
stays **out** of the merged metric snapshots and in dedicated
:class:`SweepTiming` fields: the ``metrics`` section of a run manifest
must stay bit-identical between a faulted-and-recovered run and a clean
one, which it could not if recovery events were counted there.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence, TypeVar

from repro.common.errors import (
    ConfigError,
    ExecutorBrokenError,
    SweepAbortedError,
    SweepDrainedError,
    TaskError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.experiments import chaos as chaos_mod
from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments import executors as executors_mod
from repro.experiments.chaos import ChaosPolicy, hash01
from repro.experiments.executors import resolve_executor
from repro.obs import events
from repro.obs import export as export_mod
from repro.obs import live as live_mod
from repro.obs import profile as profile_mod
from repro.obs.metrics import MetricsSnapshot, merge_snapshots

# Worker-side execution moved to repro.experiments.executors in PR 7;
# aliased here because engine is their historical home and the runner,
# tests, and docs refer to them through this module.
from repro.experiments.executors import (  # noqa: F401
    _TaskOutcome,
    _TaskTimeout,
    _attempt_task,
    _deadline,
    _kill_pool_workers,
    _run_chunk,
)

__all__ = [
    "JOBS_ENV_VAR",
    "RETRIES_ENV_VAR",
    "TASK_TIMEOUT_ENV_VAR",
    "TaskPolicy",
    "SweepTiming",
    "resolve_jobs",
    "set_default_jobs",
    "set_default_policy",
    "policy_from_env",
    "resolve_policy",
    "resolve_executor",
    "parallel_map",
    "run_sweep",
    "run_metrics",
    "request_drain",
    "drain_requested",
    "clear_drain",
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
@dataclass(frozen=True)
class TaskPolicy:
    """How a sweep treats task failures, hangs, and worker deaths.

    ``max_retries`` counts *re*-executions per task beyond the first
    attempt.  ``timeout_s`` kills an attempt from inside the worker (a
    ``SIGALRM`` timer around the task body; enforcement needs a Unix
    main thread and otherwise degrades to no limit).  Backoff between a
    task's attempts grows exponentially from ``backoff_s`` and carries
    deterministic jitter derived from the task index, so retry storms
    from chunk-mates never synchronise yet stay reproducible.  With
    ``fail_fast`` (the default) the first exhausted task aborts the
    sweep with :class:`SweepAbortedError`; otherwise failures are
    collected, failed slots return ``None``, and the sweep completes.
    A pool that keeps dying is rebuilt ``max_pool_rebuilds`` times, then
    the remaining tasks run serially in-process (``degrade_serial``) or
    :class:`WorkerCrashError` is raised.  ``drain_timeout_s`` bounds how
    long a drain (SIGTERM) waits for in-flight chunks to finish before
    giving up on them.
    """

    max_retries: int = 0
    timeout_s: float | None = None
    backoff_s: float = 0.0
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 2.0
    fail_fast: bool = True
    max_pool_rebuilds: int = 3
    degrade_serial: bool = True
    drain_timeout_s: float = 30.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigError("backoff times must be >= 0")
        if self.max_pool_rebuilds < 0:
            raise ConfigError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )
        if self.drain_timeout_s <= 0:
            raise ConfigError(
                f"drain_timeout_s must be positive, got "
                f"{self.drain_timeout_s}"
            )

    def backoff(self, task_index: int, attempt: int) -> float:
        """Seconds to wait before ``attempt`` (>= 1) of ``task_index``.

        Exponential in the attempt number, capped at ``max_backoff_s``,
        with up to +50% jitter hashed from the task index — deterministic
        for a given sweep, decorrelated across tasks.
        """
        if self.backoff_s <= 0:
            return 0.0
        base = min(
            self.backoff_s * self.backoff_multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        return base * (1.0 + 0.5 * hash01(f"backoff:{task_index}:{attempt}"))


_BASE_POLICY = TaskPolicy()
_DEFAULT_POLICY: TaskPolicy | None = None

RETRIES_ENV_VAR = "REPRO_RETRIES"
TASK_TIMEOUT_ENV_VAR = "REPRO_TASK_TIMEOUT"


def set_default_policy(policy: TaskPolicy | None) -> None:
    """Set the process-wide resilience policy (the CLI's retry flags).

    Applies to every sweep that does not pass ``policy`` explicitly;
    ``None`` restores the environment-derived (or base) default.
    """
    global _DEFAULT_POLICY
    _DEFAULT_POLICY = policy


def policy_from_env() -> TaskPolicy | None:
    """The resilience policy implied by ``REPRO_RETRIES`` /
    ``REPRO_TASK_TIMEOUT``, or None when neither is set.

    Mirrors ``REPRO_JOBS``: environment knobs sit below explicit
    arguments and :func:`set_default_policy` (the CLI flags), above the
    built-in default.  Re-read on every resolution so tests and long
    processes see environment changes.
    """
    overrides: dict[str, object] = {}
    raw = os.environ.get(RETRIES_ENV_VAR, "").strip()
    if raw:
        try:
            overrides["max_retries"] = int(raw)
        except ValueError:
            raise ConfigError(
                f"{RETRIES_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    raw = os.environ.get(TASK_TIMEOUT_ENV_VAR, "").strip()
    if raw:
        try:
            overrides["timeout_s"] = float(raw)
        except ValueError:
            raise ConfigError(
                f"{TASK_TIMEOUT_ENV_VAR} must be a number, got {raw!r}"
            ) from None
    if not overrides:
        return None
    return replace(_BASE_POLICY, **overrides)


def resolve_policy(policy: TaskPolicy | None = None) -> TaskPolicy:
    """The effective policy: argument, then :func:`set_default_policy`,
    then the environment knobs, then the built-in default."""
    return policy or _DEFAULT_POLICY or policy_from_env() or _BASE_POLICY


# ---------------------------------------------------------------------
@dataclass
class SweepTiming:
    """Wall-clock and failure accounting of one sweep through the engine."""

    label: str
    jobs: int
    task_wall_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    run_id: str = ""
    metrics: MetricsSnapshot | None = None
    failures: int = 0        # tasks that exhausted every attempt
    retries: int = 0         # failed attempts that were retried
    timeouts: int = 0        # attempts killed by the per-task timeout
    pool_rebuilds: int = 0   # BrokenProcessPool recoveries
    resumed_tasks: int = 0   # tasks restored from a checkpoint
    degraded: bool = False   # fell down the backend chain mid-sweep
    empty: bool = False      # sweep had no tasks (not recorded)
    executor: str = ""       # backend the sweep started on
    backends: list[str] = field(default_factory=list)  # backends used, in order
    lease_expiries: int = 0  # chunk leases that expired at the controller
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


def timing_summary(
    run_id: str | None = None, include_metrics: bool = False
) -> list[dict]:
    """The recorded timings as plain dicts (JSON-serialisable).

    ``include_metrics`` adds each sweep's merged metric snapshot (for
    run manifests); the default stays compact for the results report.
    """
    rows = []
    for t in timings(run_id):
        row = {
            "label": t.label,
            "run_id": t.run_id,
            "tasks": t.tasks,
            "jobs": t.jobs,
            "cpu_s": round(t.cpu_s, 3),
            "wall_s": round(t.wall_s, 3),
            "speedup": round(t.speedup, 2),
            "failures": t.failures,
            "retries": t.retries,
            "timeouts": t.timeouts,
            "pool_rebuilds": t.pool_rebuilds,
            "resumed_tasks": t.resumed_tasks,
            "degraded": t.degraded,
            "executor": t.executor,
            "backends": list(t.backends),
            "lease_expiries": t.lease_expiries,
            "duplicate_results": t.duplicate_results,
        }
        if include_metrics:
            row["metrics"] = (t.metrics or MetricsSnapshot()).as_dict()
        rows.append(row)
    return rows


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


# ---------------------------------------------------------------------
# Controller side: chunk scheduling, lease supervision, backend
# degradation, checkpointing.  (Worker-side execution — the
# attempt loop, SIGALRM deadline, and chunk runner — lives in
# repro.experiments.executors and is re-exported above.)


class _SweepState:
    """Per-sweep bookkeeping shared by the serial and pool paths."""

    def __init__(
        self,
        tasks: Sequence,
        label: str,
        policy: TaskPolicy,
        timing: SweepTiming,
        ckpt: checkpoint_mod.SweepCheckpoint | None,
    ):
        self.tasks = tasks
        self.label = label
        self.policy = policy
        self.timing = timing
        self.ckpt = ckpt
        n = len(tasks)
        self.results: list = [None] * n
        self.walls: list[float] = [0.0] * n
        self.snapshots: list[MetricsSnapshot | None] = [None] * n
        self.failures: list[TaskError] = []
        # Live telemetry aggregate (None unless a consumer is attached;
        # every use below is observation-only).
        self.live: live_mod.LiveStats | None = None
        # At-most-once commit: task keys whose slot is already decided.
        # The first commit wins; every later arrival for the key is
        # counted as a duplicate and dropped.
        self.committed: set[str] = set()

    def is_committed(self, index: int) -> bool:
        """Whether the task at ``index`` already has a committed outcome."""
        return checkpoint_mod.task_key(self.tasks[index], index) in self.committed

    def restore(self, entry: tuple[int, int, object]) -> bool:
        """Fill one slot from the checkpoint; True when restored."""
        if self.ckpt is None:
            return False
        index, _base, item = entry
        key = checkpoint_mod.task_key(item, index)
        stored = self.ckpt.restore(key)
        if stored is None:
            return False
        self.results[index], self.walls[index], self.snapshots[index] = stored
        self.committed.add(key)
        self.timing.resumed_tasks += 1
        return True

    def absorb(self, outcome: _TaskOutcome, chunk_id: int | None = None,
               worker: str = "") -> None:
        """Fold one final task outcome into the sweep (and checkpoint).

        Commits at most once per task key: a duplicate arrival is
        counted and dropped, keeping results, metrics, and the
        checkpoint identical to a single clean delivery.

        ``chunk_id`` and ``worker`` are trace context for the live /
        export consumers only — scheduling never reads them, and every
        telemetry fold below is observation-only.
        """
        i = outcome.index
        key = checkpoint_mod.task_key(self.tasks[i], i)
        if key in self.committed:
            self.timing.duplicate_results += 1
            if self.live is not None:
                self.live.note_duplicate()
            events.emit(
                "duplicate_result_dropped",
                run_id=self.timing.run_id,
                label=self.label,
                task_index=i,
                task_key=key,
            )
            return
        self.committed.add(key)
        self.timing.retries += outcome.retries
        self.timing.timeouts += outcome.timeouts
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
            self._observe_commit(outcome, key, chunk_id, worker)
            return
        self.timing.failures += 1
        if self.live is not None:
            self.live.fold_task(
                i, False, 0.0, None, worker=worker,
                retries=outcome.retries, timeouts=outcome.timeouts,
            )
        message = (
            f"sweep {self.label!r} task {i} failed after "
            f"{outcome.attempts} attempt(s): {outcome.error}"
        )
        if outcome.error_kind == "timeout":
            cls = TaskTimeoutError
        else:
            cls = TaskError
        kwargs = dict(
            task_key=key,
            task_index=i,
            attempts=outcome.attempts,
            worker_traceback=outcome.traceback,
        )
        if cls is TaskTimeoutError:
            kwargs["timeout_s"] = self.policy.timeout_s or 0.0
        error = cls(message, **kwargs)
        self.failures.append(error)
        events.emit(
            "task_failed",
            run_id=self.timing.run_id,
            label=self.label,
            task_index=i,
            task_key=key,
            attempts=outcome.attempts,
            error_kind=outcome.error_kind,
            error=outcome.error,
        )
        if self.policy.fail_fast:
            raise SweepAbortedError(
                f"sweep {self.label!r} aborted: {message}",
                label=self.label,
                failures=self.failures,
            ) from error

    def _observe_commit(self, outcome: _TaskOutcome, key: str,
                        chunk_id: int | None, worker: str) -> None:
        """Feed one committed success to the telemetry consumers.

        Observation-only by construction: reads the outcome, writes only
        to the live aggregate, the trace collector, the profile
        accumulator, and the event sink — never to sweep state.
        """
        i = outcome.index
        telemetry = outcome.telemetry or {}
        if self.live is not None:
            self.live.fold_task(
                i, True, outcome.wall_s, outcome.metrics, worker=worker,
                retries=outcome.retries, timeouts=outcome.timeouts,
            )
        collector = export_mod.get_collector()
        if collector is not None and telemetry:
            collector.record(export_mod.TaskTrace(
                label=self.label,
                index=i,
                task_key=key,
                chunk_id=-1 if chunk_id is None else chunk_id,
                worker=worker,
                pid=telemetry.get("pid", 0),
                start_unix=telemetry.get("start_unix", 0.0),
                wall_s=outcome.wall_s,
                spans=getattr(outcome.metrics, "spans", None),
                run_id=self.timing.run_id,
            ))
        accumulator = profile_mod.get_accumulator()
        if accumulator is not None and telemetry.get("profile"):
            accumulator.fold(telemetry["profile"])
        events.emit(
            "task_done",
            run_id=self.timing.run_id,
            label=self.label,
            task_index=i,
            wall_s=round(outcome.wall_s, 6),
            worker=worker,
        )

    def absorb_chunk_error(self, chunk, exc: Exception) -> None:
        """An infrastructure failure lost a whole chunk (e.g. the result
        would not unpickle); every not-yet-committed task in it counts
        as failed."""
        for index, base, _item in chunk:
            if self.is_committed(index):
                continue
            self.absorb(_TaskOutcome(
                index=index,
                attempts=base + 1,
                error_kind="error",
                error=f"chunk execution failed: {type(exc).__name__}: {exc}",
            ))


def _chunked(entries: list, chunksize: int) -> list[list]:
    return [
        entries[i:i + chunksize] for i in range(0, len(entries), chunksize)
    ]


def _bump_killed_entries(chunk, chaos: ChaosPolicy | None):
    """After a pool crash, consume the first attempt of every entry the
    chaos policy would have killed, so its rerun is injection-free.  Both
    sides of the process boundary compute the same pure decision, which
    is what lets the controller attribute a crash it only observed as a
    ``BrokenProcessPool``.  Real (non-chaos) crashes resubmit unchanged.
    """
    if chaos is None:
        return list(chunk)
    return [
        (index, base + 1, item)
        if chaos.kills(index, base) else (index, base, item)
        for index, base, item in chunk
    ]


# Controller-deadline slack over the serial worst case: covers dispatch,
# pickling, and scheduler noise without masking a genuinely stuck worker.
_DEADLINE_SLACK = 1.25
_DEADLINE_GRACE_S = 2.0


# ---------------------------------------------------------------------
# Drain requests (SIGTERM): a process-wide flag the scheduler loop polls
# between events.  On a drain, in-flight chunks finish and commit,
# pending chunks are withdrawn, and the sweep raises
# :class:`SweepDrainedError` so the caller can exit with a resume hint.

_DRAIN = {"requested": False, "reason": ""}


def request_drain(reason: str = "signal") -> None:
    """Ask running (and subsequent) sweeps to drain and stop.

    Safe to call from a signal handler: sets a flag the scheduler loop
    polls — no locks, no I/O.  Stays set until :func:`clear_drain`, so
    a multi-sweep command stops after the sweep that noticed it.
    """
    _DRAIN["requested"] = True
    _DRAIN["reason"] = reason


def drain_requested() -> bool:
    """Whether a drain has been requested and not yet cleared."""
    return _DRAIN["requested"]


def clear_drain() -> None:
    """Reset the drain flag (the CLI does this between invocations)."""
    _DRAIN["requested"] = False
    _DRAIN["reason"] = ""


def _wave_budget(chunks, policy: TaskPolicy) -> float:
    """Worst-case wall budget for one submission wave.

    Every attempt of every entry at the per-attempt timeout plus maximal
    backoffs, run *serially* — a pessimistic bound that stays valid
    however the pool distributes chunks over workers (a queued chunk's
    wait time is someone else's run time, already counted).  Only
    meaningful when ``policy.timeout_s`` is set.
    """
    budget = 0.0
    for chunk in chunks:
        for _index, base, _item in chunk:
            attempts = max(1, policy.max_retries + 1 - base)
            budget += attempts * policy.timeout_s
            budget += (attempts - 1) * policy.max_backoff_s * 1.5
    return budget * _DEADLINE_SLACK + _DEADLINE_GRACE_S


def _drive_backend(fn, chunks, jobs, policy, chaos, state: _SweepState,
                   backend: str) -> list:
    """Run chunks to completion on one backend; return what it stranded.

    The scheduler is backend-agnostic: it submits chunks with a lease
    (deadline = the wave's worst-case serial budget, armed only when the
    policy carries a per-task timeout), consumes the executor's event
    stream, and supervises two failure paths —

    * **lease expiry**: the chunk is cancelled (a running pool chunk
      gets its workers killed) and its unfinished tasks are declared
      timed out by the controller;
    * **pool breakage**: counted against ``policy.max_pool_rebuilds``
      and resubmitted whole onto a rebuilt pool, with the chaos kills
      that caused it attributed so the rerun is injection-free.

    A chunk that is resubmitted whole re-runs from a cold cache for its
    task keys, so re-produced metric deltas are bit-identical and the
    at-most-once commit can drop whichever copy arrives second.
    Returns the chunks still unfinished when the backend broke for good
    (``[]`` on normal completion); raises :class:`WorkerCrashError`
    instead when ``policy.degrade_serial`` is off.
    """
    timing = state.timing
    executor = executors_mod.make_executor(
        backend, fn=fn, policy=policy, chaos=chaos,
        jobs=max(1, min(jobs, len(chunks))),
    )
    outstanding: dict[int, list] = {}
    leases: dict[int, float | None] = {}
    ids = itertools.count()
    pool_rebuilds = 0

    def submit_wave(wave) -> None:
        deadline = None
        if policy.timeout_s is not None:
            deadline = time.monotonic() + _wave_budget(wave, policy)
        for chunk in wave:
            chunk_id = next(ids)
            outstanding[chunk_id] = chunk
            leases[chunk_id] = deadline
            executor.submit_chunk(chunk_id, chunk)

    def expire_chunk(chunk) -> None:
        # The controller backstop fired: no result inside the worst-case
        # serial budget.  Raises SweepAbortedError via absorb when the
        # policy is fail-fast.
        for index, base, _item in chunk:
            if state.is_committed(index):
                continue
            state.absorb(_TaskOutcome(
                index=index,
                attempts=max(1, policy.max_retries + 1 - base),
                timeouts=1,
                error_kind="timeout",
                error=(
                    "controller deadline expired: task still unfinished "
                    f"after the wave's worst-case budget "
                    f"(per-attempt timeout {policy.timeout_s}s)"
                ),
            ))

    def handle_event(event) -> None:
        nonlocal pool_rebuilds
        if isinstance(event, executors_mod.ChunkStarted):
            # A worker picked the chunk up: re-arm its lease to the
            # chunk's own budget (tighter than the shared wave bound).
            if event.chunk_id in outstanding and policy.timeout_s is not None:
                leases[event.chunk_id] = time.monotonic() + _wave_budget(
                    [outstanding[event.chunk_id]], policy
                )
            if state.live is not None:
                state.live.chunk_started(event.chunk_id, event.worker)
        elif isinstance(event, executors_mod.TaskDone):
            state.absorb(event.outcome, chunk_id=event.chunk_id,
                         worker=event.worker)
        elif isinstance(event, executors_mod.ChunkDone):
            outstanding.pop(event.chunk_id, None)
            leases.pop(event.chunk_id, None)
        elif isinstance(event, executors_mod.ChunkFailed):
            chunk = outstanding.pop(event.chunk_id, None)
            leases.pop(event.chunk_id, None)
            if chunk is not None:
                state.absorb_chunk_error(chunk, event.error)
        elif isinstance(event, executors_mod.PoolBroken):
            pool_rebuilds += 1
            timing.pool_rebuilds += 1
            events.emit(
                "pool_rebuilt",
                run_id=timing.run_id,
                label=state.label,
                rebuilds=pool_rebuilds,
                unfinished_tasks=sum(
                    len(outstanding[cid]) for cid in event.chunk_ids
                    if cid in outstanding
                ),
            )
            wave = []
            for chunk_id in event.chunk_ids:
                chunk = outstanding.get(chunk_id)
                if chunk is None:
                    continue
                # Attribute chaos kills before any resubmission or
                # degradation handoff, so the rerun is injection-free.
                chunk = _bump_killed_entries(chunk, chaos)
                outstanding[chunk_id] = chunk
                wave.append(chunk_id)
            if pool_rebuilds > policy.max_pool_rebuilds:
                if not policy.degrade_serial:
                    raise WorkerCrashError(
                        f"sweep {state.label!r}: worker pool died "
                        f"{pool_rebuilds} times (max_pool_rebuilds="
                        f"{policy.max_pool_rebuilds})",
                        rebuilds=pool_rebuilds,
                    )
                raise ExecutorBrokenError(
                    f"worker pool died {pool_rebuilds} times",
                    backend=backend,
                )
            deadline = None
            if policy.timeout_s is not None:
                deadline = time.monotonic() + _wave_budget(
                    [outstanding[cid] for cid in wave], policy
                )
            for chunk_id in wave:
                leases[chunk_id] = deadline
                executor.submit_chunk(chunk_id, outstanding[chunk_id])

    remaining: list = []
    broken = False
    draining = False
    drain_deadline = 0.0
    stranded_tasks = 0
    try:
        submit_wave(chunks)
        while outstanding:
            if _DRAIN["requested"] and not draining:
                draining = True
                drain_deadline = time.monotonic() + policy.drain_timeout_s
                # Withdraw everything not yet running; what a worker
                # already picked up finishes and commits normally.
                for chunk_id in sorted(outstanding):
                    if executor.cancel_pending(chunk_id):
                        stranded_tasks += len(outstanding.pop(chunk_id))
                        leases.pop(chunk_id, None)
                events.emit(
                    "sweep_draining",
                    run_id=timing.run_id,
                    label=state.label,
                    reason=_DRAIN["reason"],
                    inflight_chunks=len(outstanding),
                    stranded_tasks=stranded_tasks,
                )
                if not outstanding:
                    break
            wait_s = None
            armed = [d for d in leases.values() if d is not None]
            if armed:
                wait_s = max(0.0, min(armed) - time.monotonic())
            if state.live is not None and (wait_s is None or wait_s > 0.5):
                # Live consumers need the loop back regularly for a
                # heartbeat fold / renderer tick even when no lease is
                # armed (local pool would otherwise block indefinitely
                # on its futures).
                wait_s = 0.5
            if wait_s is None or wait_s > 1.0:
                # Bounded wait so a drain request (SIGTERM) is noticed
                # within a second even with no lease armed and no live
                # consumer attached.
                wait_s = 1.0
            if draining:
                wait_s = min(wait_s, 0.25)
            for event in executor.poll(wait_s):
                handle_event(event)
            if state.live is not None:
                state.live.tick(executor)
            if draining and outstanding \
                    and time.monotonic() >= drain_deadline:
                # In-flight chunks outlived the drain timeout: give up
                # on them (their uncommitted tasks count as stranded —
                # the resume re-runs them) and let shutdown kill the
                # workers.
                break
            if not armed:
                continue
            now = time.monotonic()
            for chunk_id, deadline in list(leases.items()):
                if deadline is None or deadline > now:
                    continue
                if chunk_id not in outstanding:
                    leases.pop(chunk_id, None)
                    continue
                timing.lease_expiries += 1
                if state.live is not None:
                    state.live.lease_expired()
                events.emit(
                    "lease_expired",
                    run_id=timing.run_id,
                    label=state.label,
                    backend=backend,
                    chunk_id=chunk_id,
                    timeout_s=policy.timeout_s,
                )
                executor.cancel(chunk_id)
                chunk = outstanding.pop(chunk_id)
                leases.pop(chunk_id, None)
                expire_chunk(chunk)
        if draining:
            for chunk in outstanding.values():
                stranded_tasks += sum(
                    1 for index, _base, _item in chunk
                    if not state.is_committed(index)
                )
            raise SweepDrainedError(
                f"sweep {state.label!r} drained after "
                f"{_DRAIN['reason'] or 'drain request'}: "
                f"{len(state.committed)}/{len(state.tasks)} task(s) "
                f"committed, {stranded_tasks} stranded",
                label=state.label,
                run_id=timing.run_id,
                completed=len(state.committed),
                total=len(state.tasks),
                stranded=stranded_tasks,
            )
    except ExecutorBrokenError:
        broken = True
        remaining = [outstanding[cid] for cid in sorted(outstanding)]
    except BaseException:
        executor.shutdown(kill=True)
        raise
    executor.shutdown(kill=broken)
    return remaining


def _run_with_executors(fn, chunks, jobs, policy, chaos, state: _SweepState,
                        backend: str) -> None:
    """Drive the sweep down the degradation chain starting at ``backend``.

    A broken pool hands its unfinished chunks to the next link
    (``local -> inline``); ``inline`` is the in-process loop and cannot
    break, so the chain always terminates.
    """
    chain = executors_mod.DEGRADATION_CHAIN
    position = chain.index(backend)
    pending = [list(chunk) for chunk in chunks]
    while pending:
        name = chain[position]
        state.timing.backends.append(name)
        pending = _drive_backend(
            fn, pending, jobs, policy, chaos, state, name
        )
        if not pending:
            return
        position += 1
        state.timing.degraded = True
        events.emit(
            "sweep_degraded",
            run_id=state.timing.run_id,
            label=state.label,
            backend=name,
            fallback=chain[position],
            rebuilds=state.timing.pool_rebuilds,
            remaining_tasks=sum(len(c) for c in pending),
        )


# ---------------------------------------------------------------------
def run_sweep(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
    chunksize: int | None = None,
    label: str = "sweep",
    record: bool = True,
    policy: TaskPolicy | None = None,
    chaos: ChaosPolicy | None = None,
) -> tuple[list[R], SweepTiming]:
    """Map ``fn`` over ``items``, preserving order, with fault tolerance.

    ``fn`` must be a module-level callable and every item picklable when
    the work leaves the process (the ``local`` pool, used whenever more
    than one worker runs).  With ``jobs=1`` (the ``inline`` backend)
    nothing is pickled and everything runs in-process.
    ``chunksize`` controls how many consecutive tasks form one unit of
    worker placement; drivers pass the inner-loop length so one worker
    runs all of a benchmark's chip models and reuses its memoized trace.

    ``policy`` (default: :func:`set_default_policy`, else no retries,
    fail fast) governs retries, timeouts, error collection, and pool
    recovery; ``chaos`` (default: :func:`chaos.set_chaos`, else the
    ``REPRO_CHAOS`` environment variable) injects faults for testing.
    In collect-errors mode the returned list holds ``None`` for tasks
    that exhausted their attempts.

    An empty task list returns immediately with ``timing.empty`` set and
    records nothing, so reports never show zero-task sweeps.
    """
    tasks: Sequence[T] = list(items)
    policy = resolve_policy(policy)
    chaos = chaos if chaos is not None else chaos_mod.current_chaos()
    run_id = events.current_run_id()
    timing = SweepTiming(label=label, jobs=1, run_id=run_id)
    if not tasks:
        timing.empty = True
        timing.metrics = MetricsSnapshot()
        return [], timing
    jobs = min(resolve_jobs(jobs), max(1, len(tasks)))
    if chunksize is None:
        chunksize = max(1, -(-len(tasks) // (jobs * 4)))
    entries = [(i, 0, item) for i, item in enumerate(tasks)]
    chunks = _chunked(entries, chunksize)
    ckpt = checkpoint_mod.open_sweep(label, run_id, chaos=chaos)
    state = _SweepState(tasks, label, policy, timing, ckpt)
    # Chunk-granular restore: a chunk re-runs whole unless every one of
    # its tasks is checkpointed (see repro.experiments.checkpoint).
    pending_chunks = []
    for chunk in chunks:
        probe = timing.resumed_tasks
        if all(state.restore(entry) for entry in chunk):
            continue
        timing.resumed_tasks = probe
        pending_chunks.append(chunk)
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
    state.live = live_mod.sweep_begin(
        label, len(tasks), run_id=run_id, backend=backend, jobs=jobs
    )
    if state.live is not None and timing.resumed_tasks:
        # Checkpoint-restored slots are already committed; fold them so
        # the live totals (and merged_metrics) cover the whole sweep.
        for i in range(len(tasks)):
            if state.is_committed(i):
                state.live.fold_task(
                    i, True, state.walls[i], state.snapshots[i],
                    resumed=True,
                )
    start = time.perf_counter()
    try:
        if pending_chunks:
            _run_with_executors(fn, pending_chunks, jobs, policy, chaos,
                                state, backend)
        if ckpt is not None:
            # The sweep ran to completion: publish the crash-consistent
            # "this checkpoint is the full record" marker.
            ckpt.finalize(len(tasks), failures=timing.failures)
    except KeyboardInterrupt:
        events.emit(
            "sweep_interrupted",
            run_id=run_id,
            label=label,
            completed_tasks=sum(s is not None for s in state.snapshots),
            checkpointed=ckpt is not None,
        )
        raise
    except SweepDrainedError as exc:
        events.emit(
            "sweep_drained",
            run_id=run_id,
            label=label,
            reason=_DRAIN["reason"],
            completed_tasks=exc.completed,
            stranded_tasks=exc.stranded,
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
    if state.live is not None:
        live_mod.sweep_end(state.live)
    if record:
        _TIMINGS.append(timing)
        events.emit(
            "sweep",
            run_id=run_id,
            label=label,
            tasks=timing.tasks,
            jobs=jobs,
            wall_s=round(timing.wall_s, 3),
            failures=timing.failures,
            retries=timing.retries,
            timeouts=timing.timeouts,
            pool_rebuilds=timing.pool_rebuilds,
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
    policy: TaskPolicy | None = None,
    chaos: ChaosPolicy | None = None,
) -> list[R]:
    """:func:`run_sweep` without the timing handle (it is still recorded)."""
    results, _ = run_sweep(
        fn, items, jobs=jobs, chunksize=chunksize, label=label,
        policy=policy, chaos=chaos,
    )
    return results
