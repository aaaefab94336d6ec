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
# Sweep-execution failures (repro.experiments.engine).  Each task runs
# once; the first task error aborts the sweep, carrying enough context
# to re-run the task.


class TaskError(ReproError):
    """One sweep task raised.

    Carries the task's checkpoint key, its position in the sweep, and
    the traceback captured inside the worker process (a plain string —
    the original exception object never crosses the process boundary).
    """

    def __init__(
        self,
        message: str,
        *,
        task_key: str = "",
        task_index: int | None = None,
        worker_traceback: str = "",
    ):
        super().__init__(message)
        self.task_key = task_key
        self.task_index = task_index
        self.worker_traceback = worker_traceback


class SweepAbortedError(ReproError):
    """A sweep stopped at its first task error; ``failures`` holds it."""

    def __init__(self, message: str, *, label: str = "", failures=()):
        super().__init__(message)
        self.label = label
        self.failures = list(failures)
