"""Opt-in per-task cProfile with collapsed-stack (flamegraph) output.

``--profile`` (or ``REPRO_PROFILE=1``) makes every task attempt run
under :class:`cProfile.Profile` inside the worker.  The profile is
collapsed *in the worker* to a small ``stack -> seconds`` dict (no
pickling of profiler state across the process boundary), shipped back
on the ``TaskDone`` outcome's telemetry, and folded sweep-wide by the
:class:`ProfileAccumulator` the CLI installs.  The accumulated dict
writes out in collapsed-stack format — ``caller;callee count`` lines,
one per stack, counts in integer microseconds — which flamegraph.pl,
inferno, and speedscope all consume directly.

The collapse is a two-level call-graph approximation, not a full stack
sample: cProfile records (caller, callee) edges with per-callee self
time (``tt``), so each callee's self time is split across its callers
proportionally to call counts and emitted as ``caller;callee``; root
functions (no recorded caller) emit as bare ``name``.  That loses
deeper ancestry but keeps the worker-side cost tiny and the output
deterministic.

Profiling is observation-only and **off by default**: it never runs
when ``REPRO_OBS=off`` (the kill switch outranks it), and the runtime
cost when enabled is cProfile's usual several-fold slowdown — use it on
small sweeps.
"""

from __future__ import annotations

import cProfile
import os
from pathlib import Path

from repro.obs import metrics as metrics_mod

__all__ = [
    "PROFILE_ENV_VAR",
    "enabled",
    "start_profile",
    "collapse",
    "ProfileAccumulator",
    "set_accumulator",
    "get_accumulator",
]

PROFILE_ENV_VAR = "REPRO_PROFILE"
_TRUTHY = ("1", "true", "yes", "on")


def enabled() -> bool:
    """Whether per-task profiling is requested *and* obs is on."""
    raw = os.environ.get(PROFILE_ENV_VAR, "").strip().lower()
    return raw in _TRUTHY and metrics_mod.enabled()


def start_profile() -> cProfile.Profile:
    """A started profiler for one task attempt (worker side)."""
    prof = cProfile.Profile()
    prof.enable()
    return prof


def _func_name(func) -> str:
    """``module:func`` for Python frames, ``name`` for C builtins."""
    filename, lineno, name = func
    if filename == "~":
        return name.strip("<>")
    stem = Path(filename).stem
    return f"{stem}:{name}"


def collapse(prof: cProfile.Profile) -> dict[str, float]:
    """Collapse a finished profiler into ``stack -> self-seconds``.

    Two-level stacks: each function's self time splits across its
    recorded callers by call-count proportion (``caller;callee``);
    functions with no recorded caller emit as roots (``name``).
    """
    prof.disable()
    prof.create_stats()
    stacks: dict[str, float] = {}
    for func, (_cc, nc, tt, _ct, callers) in prof.stats.items():
        if tt <= 0.0:
            continue
        name = _func_name(func)
        if not callers:
            stacks[name] = stacks.get(name, 0.0) + tt
            continue
        total_calls = sum(c[0] for c in callers.values()) or nc or 1
        for caller_func, (caller_cc, *_rest) in callers.items():
            share = tt * (caller_cc / total_calls)
            if share <= 0.0:
                continue
            stack = f"{_func_name(caller_func)};{name}"
            stacks[stack] = stacks.get(stack, 0.0) + share
    return stacks


class ProfileAccumulator:
    """Folds per-task collapsed stacks into one sweep-wide profile."""

    def __init__(self):
        self.stacks: dict[str, float] = {}
        self.tasks = 0

    def fold(self, collapsed: dict[str, float]) -> None:
        self.tasks += 1
        for stack, seconds in collapsed.items():
            self.stacks[stack] = self.stacks.get(stack, 0.0) + seconds

    def write_collapsed(self, path: str | Path) -> Path:
        """Write ``stack count`` lines, counts in integer microseconds
        (flamegraph.pl needs integers); sub-microsecond stacks drop."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        lines = []
        for stack in sorted(self.stacks):
            micros = int(round(self.stacks[stack] * 1e6))
            if micros > 0:
                lines.append(f"{stack} {micros}")
        out.write_text("\n".join(lines) + ("\n" if lines else ""),
                       encoding="utf-8")
        return out


_ACCUMULATOR: ProfileAccumulator | None = None


def set_accumulator(acc: ProfileAccumulator | None) -> None:
    """Install (or clear) the process profile accumulator."""
    global _ACCUMULATOR
    _ACCUMULATOR = acc


def get_accumulator() -> ProfileAccumulator | None:
    """The installed profile accumulator, if any."""
    return _ACCUMULATOR
