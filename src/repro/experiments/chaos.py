"""Deterministic fault injection for the sweep execution layer.

The simulated cores get their faults from :mod:`repro.core.faults`; this
module does the same for the machinery that *runs* the simulations, so
the engine's recovery paths (pool rebuilds, serial degradation, torn
checkpoint lines) are themselves testable.  A :class:`ChaosPolicy`
injects two kinds of trouble:

* ``worker-kill`` — ``os._exit`` the worker process before the task body
  runs (surfaces to the controller as a ``BrokenProcessPool``), only
  ever inside pool workers;
* ``short-write`` — the checkpoint writer persists only a prefix of the
  JSONL line for the named task, simulating a crash torn mid-byte.

Two rules make chaos compatible with the engine's determinism contract
(results, merged metrics, and manifests bit-identical to an undisturbed
run):

1. **Kills happen before the task body.**  A killed attempt executes
   none of the task, so it warms no memo cache and produces no metric
   delta; the rerun behaves exactly like a clean first run.
2. **Only first attempts are disturbed** (``attempt == 0``).  Reruns
   after a kill always run clean, so every task eventually succeeds
   with a bit-identical result.

Decisions are pure functions of ``(seed, kind, task index)`` — both the
worker (to inject) and the controller (to attribute a pool crash to the
task chaos killed) compute them independently and agree.

Activate with the ``REPRO_CHAOS`` environment variable or the CLI's
``--chaos`` flag, e.g. ``worker-kill:0.1,short-write:0.2,seed:7``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from repro.common.errors import ConfigError

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
    """Probabilities (and a seed) for the worker and checkpoint injections."""

    kill_p: float = 0.0
    short_write_p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("kill_p", "short_write_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"chaos {name} must be in [0, 1], got {p}")

    def _roll(self, kind: str, index: int) -> float:
        return hash01(f"{self.seed}:{kind}:{index}")

    def kills(self, index: int, attempt: int) -> bool:
        """Whether the task at ``index`` gets its worker killed."""
        return attempt == 0 and self._roll("kill", index) < self.kill_p

    def short_writes(self, index: int) -> bool:
        """Whether the checkpoint append for task ``index`` persists
        only a line prefix (a simulated mid-byte crash).  Fired at most
        once per checkpoint file, and never on a file that already
        carries a torn line, so resumed runs converge."""
        return self._roll("short", index) < self.short_write_p

    # -- spec parsing --------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "ChaosPolicy":
        """Build a policy from a spec string.

        Comma-separated ``kind:value`` fields; kinds are ``worker-kill``
        (or ``kill``), ``short-write`` (``short``), and ``seed``.  Example::

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
                if kind in ("worker-kill", "kill"):
                    values["kill_p"] = float(parts[1])
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
