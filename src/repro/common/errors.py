"""Exception hierarchy for the repro library.

Every exception raised intentionally by this package derives from
:class:`ReproError` so callers can catch library errors without catching
programming mistakes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class QueueFullError(SimulationError):
    """A bounded inter-core queue was pushed while full."""


class QueueEmptyError(SimulationError):
    """A bounded inter-core queue was popped while empty."""


class FloorplanError(ReproError):
    """A floorplan is geometrically invalid (overlap, out-of-die block)."""


class ThermalModelError(ReproError):
    """The thermal solver was given an invalid stack or power map."""


class CalibrationError(ReproError):
    """A model could not be calibrated to its published anchor values."""


# ---------------------------------------------------------------------
# Sweep-execution failure taxonomy (repro.experiments.engine).  The
# engine mirrors the paper's detect-and-recover discipline: every task
# failure is classified, carries enough context to re-run the task, and
# is either retried, collected, or escalated to a sweep abort.


class TaskError(ReproError):
    """One sweep task exhausted its attempts.

    Carries the task's checkpoint key, its position in the sweep, how
    many attempts were executed, and the traceback captured inside the
    worker process (a plain string — the original exception object never
    crosses the process boundary).
    """

    def __init__(
        self,
        message: str,
        *,
        task_key: str = "",
        task_index: int | None = None,
        attempts: int = 1,
        worker_traceback: str = "",
    ):
        super().__init__(message)
        self.task_key = task_key
        self.task_index = task_index
        self.attempts = attempts
        self.worker_traceback = worker_traceback


class TaskTimeoutError(TaskError):
    """A task exceeded its per-task timeout on every allowed attempt."""

    def __init__(self, message: str, *, timeout_s: float = 0.0, **kwargs):
        super().__init__(message, **kwargs)
        self.timeout_s = timeout_s


class WorkerCrashError(ReproError):
    """The worker pool kept dying and serial degradation was disabled.

    Raised only when ``TaskPolicy.degrade_serial`` is off; with the
    default policy the engine falls back to in-process execution instead.
    """

    def __init__(self, message: str, *, rebuilds: int = 0):
        super().__init__(message)
        self.rebuilds = rebuilds


class ExecutorBrokenError(ReproError):
    """The process pool exceeded its rebuild budget.

    Raised *internally* by the scheduler to abandon the pool; the
    sweep then degrades down the backend chain (``local -> inline``).
    With degradation disabled the scheduler raises
    :class:`WorkerCrashError` instead.
    """

    def __init__(self, message: str, *, backend: str = ""):
        super().__init__(message)
        self.backend = backend


class SweepAbortedError(ReproError):
    """A fail-fast sweep stopped early; ``failures`` holds the task errors."""

    def __init__(self, message: str, *, label: str = "", failures=()):
        super().__init__(message)
        self.label = label
        self.failures = list(failures)


class SweepDrainedError(ReproError):
    """A sweep stopped early because a drain was requested (SIGTERM).

    Not a failure: every chunk already in flight was allowed to finish
    and commit to the checkpoint, pending chunks were cancelled before
    they started, and the run can be completed with ``--resume``.
    ``completed``/``total`` count tasks; ``stranded`` counts tasks whose
    chunks were cancelled unstarted.
    """

    def __init__(
        self,
        message: str,
        *,
        label: str = "",
        run_id: str = "",
        completed: int = 0,
        total: int = 0,
        stranded: int = 0,
    ):
        super().__init__(message)
        self.label = label
        self.run_id = run_id
        self.completed = completed
        self.total = total
        self.stranded = stranded


class ChaosError(ReproError):
    """A fault injected by the chaos hook (``REPRO_CHAOS``), not a real bug."""
