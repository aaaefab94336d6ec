"""Deterministic fault injection for the sweep execution layer.

The simulated cores get their faults from :mod:`repro.core.faults`; this
module does the same for the machinery that *runs* the simulations, so
the engine's recovery paths (retries, pool rebuilds, serial degradation)
are themselves testable.  A :class:`ChaosPolicy` injects four kinds of
trouble:

* ``task-fail`` — raise :class:`~repro.common.errors.ChaosError` before
  the task body runs;
* ``worker-kill`` — ``os._exit`` the worker process (surfaces to the
  controller as a ``BrokenProcessPool``), only ever inside pool workers;
* ``task-delay`` — sleep before the task body runs;
* ``short-write`` — the checkpoint writer persists only a prefix of the
  JSONL line for the named task, simulating a crash torn mid-byte.

Two rules make chaos compatible with the engine's determinism contract
(results, merged metrics, and manifests bit-identical to an undisturbed
run):

1. **Injections happen before the task body.**  A chaos-failed attempt
   executes none of the task, so it warms no memo cache and produces no
   metric delta; the retry behaves exactly like a clean first run.
2. **Only first attempts are disturbed** (``attempt == 0``).  Retries
   and kill-recovery resubmissions always run clean, so every task
   eventually succeeds with a bit-identical result.

Decisions are pure functions of ``(seed, kind, task index)`` — both the
worker (to inject) and the controller (to attribute a pool crash to the
task chaos killed) compute them independently and agree.

Activate with the ``REPRO_CHAOS`` environment variable or the CLI's
``--chaos`` flag, e.g. ``worker-kill:0.1,task-fail:0.05``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from repro.common.errors import ChaosError, ConfigError

__all__ = [
    "CHAOS_ENV_VAR",
    "ChaosPolicy",
    "hash01",
    "set_chaos",
    "current_chaos",
]

CHAOS_ENV_VAR = "REPRO_CHAOS"


def hash01(text: str) -> float:
    """A deterministic hash of ``text`` mapped into ``[0, 1)``."""
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class ChaosPolicy:
    """Probabilities (and a seed) for the task and checkpoint injections."""

    fail_p: float = 0.0
    kill_p: float = 0.0
    delay_p: float = 0.0
    delay_s: float = 0.01
    short_write_p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("fail_p", "kill_p", "delay_p", "short_write_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"chaos {name} must be in [0, 1], got {p}")
        if self.delay_s < 0:
            raise ConfigError(f"chaos delay_s must be >= 0, got {self.delay_s}")

    def _roll(self, kind: str, index: int) -> float:
        return hash01(f"{self.seed}:{kind}:{index}")

    def fails(self, index: int, attempt: int) -> bool:
        """Whether the task at ``index`` gets an injected failure."""
        return attempt == 0 and self._roll("fail", index) < self.fail_p

    def kills(self, index: int, attempt: int) -> bool:
        """Whether the task at ``index`` gets its worker killed."""
        return attempt == 0 and self._roll("kill", index) < self.kill_p

    def delays(self, index: int, attempt: int) -> bool:
        """Whether the task at ``index`` gets an injected delay."""
        return attempt == 0 and self._roll("delay", index) < self.delay_p

    def short_writes(self, index: int) -> bool:
        """Whether the checkpoint append for task ``index`` persists
        only a line prefix (a simulated mid-byte crash).  Fired at most
        once per checkpoint file, and never on a file that already
        carries a torn line, so resumed runs converge."""
        return self._roll("short", index) < self.short_write_p

    def inject(self, index: int, attempt: int, in_worker: bool) -> None:
        """Apply this policy ahead of one task attempt.

        Called by the engine *before* the task body (and before its
        metric bracket).  Kills only fire inside pool workers — during
        serial (in-process) execution they are skipped, which is what
        lets a degraded or ``jobs=1`` run complete under any policy.
        """
        if self.delays(index, attempt):
            time.sleep(self.delay_s)
        if in_worker and self.kills(index, attempt):
            os._exit(17)
        if self.fails(index, attempt):
            raise ChaosError(
                f"chaos: injected failure for task {index} (attempt {attempt})"
            )

    # -- spec parsing --------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "ChaosPolicy":
        """Build a policy from a spec string.

        Comma-separated ``kind:value`` fields; kinds are ``task-fail``
        (or ``fail``), ``worker-kill`` (``kill``), ``task-delay``
        (``delay``, with an optional second value for the sleep in
        seconds), ``short-write`` (``short``), and ``seed``.  Example::

            worker-kill:0.1,short-write:0.2,seed:7
        """
        values: dict = {}
        for field in spec.split(","):
            field = field.strip()
            if not field:
                continue
            parts = field.split(":")
            kind = parts[0].strip().lower()
            try:
                if kind in ("task-fail", "fail"):
                    values["fail_p"] = float(parts[1])
                elif kind in ("worker-kill", "kill"):
                    values["kill_p"] = float(parts[1])
                elif kind in ("task-delay", "delay"):
                    values["delay_p"] = float(parts[1])
                    if len(parts) > 2:
                        values["delay_s"] = float(parts[2])
                elif kind in ("short-write", "short"):
                    values["short_write_p"] = float(parts[1])
                elif kind == "seed":
                    values["seed"] = int(parts[1])
                else:
                    raise ConfigError(
                        f"unknown chaos kind {kind!r} in {spec!r}"
                    )
            except (IndexError, ValueError):
                raise ConfigError(
                    f"malformed chaos field {field!r} in {spec!r} "
                    "(expected kind:value)"
                ) from None
        return cls(**values)


# ---------------------------------------------------------------------
_CHAOS: ChaosPolicy | None = None


def set_chaos(policy: ChaosPolicy | None) -> None:
    """Set the process-wide chaos policy (the CLI's ``--chaos``).

    Outranks ``REPRO_CHAOS``; ``None`` restores environment lookup.
    """
    global _CHAOS
    _CHAOS = policy


def current_chaos() -> ChaosPolicy | None:
    """The active policy: :func:`set_chaos`, else ``REPRO_CHAOS``, else none."""
    if _CHAOS is not None:
        return _CHAOS
    spec = os.environ.get(CHAOS_ENV_VAR, "").strip()
    if spec:
        return ChaosPolicy.parse(spec)
    return None
