"""Run identity, an optional JSONL event sink, and run manifests.

A *run* is one top-level invocation — a CLI command, a
``generate_report`` call, a benchmark session.  :func:`begin_run` mints
a process-unique run id; the experiment engine stamps it onto every
:class:`~repro.experiments.engine.SweepTiming` it records, which is what
lets repeated runner invocations in one process keep their sweep
registries apart (``timing_summary(run_id=...)``).

The *event sink* is a line-oriented JSON log (one object per line) for
anything worth timestamping: run boundaries, sweep completions, manifest
writes.  It is off unless :func:`set_sink` is given a path (the CLI's
``--trace-out``), and :func:`emit` is a cheap no-op while off.

Flush policy: every :meth:`EventSink.emit` flushes its line so a
concurrent reader (``tail -f``) and crash post-mortems see all complete
recent events; a process killed mid-``write`` can still leave one torn
trailing line, which readers must skip.

The *run manifest* is the auditable summary written next to results:
run id, git SHA, command, seed/window/jobs, a configuration hash, the
run's merged metric snapshot, and one timing and resume-accounting row
per sweep.  Everything in ``manifest["metrics"]`` comes from
deterministic counters, so two manifests from the same sweep at
different worker counts are bit-identical there — the cross-process
audit the paper-reproduction workflow relies on.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import time
from pathlib import Path

__all__ = [
    "begin_run",
    "current_run_id",
    "EventSink",
    "set_sink",
    "emit",
    "git_sha",
    "config_hash",
    "build_manifest",
    "write_manifest",
]

_RUN_SEQ = itertools.count(1)
_CURRENT_RUN_ID: str | None = None
_SINK: "EventSink | None" = None
_GIT_SHA: str | None | bool = False  # False = not yet probed


def begin_run(command: str | None = None, run_id: str | None = None) -> str:
    """Start a new run; returns its process-unique id.

    Passing ``run_id`` adopts an existing identity instead of minting a
    new one — the resume path (``repro ... --resume <run_id>``) uses it
    so a continued run lands in the same checkpoint directory and its
    sweeps merge with the original run's accounting.
    """
    global _CURRENT_RUN_ID
    resumed = run_id is not None
    if run_id is None:
        run_id = f"run-{os.getpid()}-{next(_RUN_SEQ):04d}"
    _CURRENT_RUN_ID = run_id
    emit("run_begin", run_id=run_id, command=command, resumed=resumed)
    return run_id


def current_run_id() -> str:
    """The active run's id (a default run is begun on first use)."""
    if _CURRENT_RUN_ID is None:
        return begin_run()
    return _CURRENT_RUN_ID


# ---------------------------------------------------------------------
class EventSink:
    """Append-only JSONL event log, flushed per line.

    Each event is written and flushed as one line so external readers
    see it promptly and a killed process loses at most the line it was
    writing.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")

    def emit(self, kind: str, **fields) -> None:
        """Append one event line (non-serialisable values become strings)."""
        record = {"event": kind, "ts": round(time.time(), 6), **fields}
        self._fh.write(json.dumps(record, default=str) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Flush and close the underlying file."""
        self._fh.close()


def set_sink(path: str | Path | None) -> None:
    """Route events to a JSONL file, or (with ``None``) turn them off."""
    global _SINK
    if _SINK is not None:
        _SINK.close()
    _SINK = EventSink(path) if path is not None else None


def emit(kind: str, **fields) -> None:
    """Emit an event to the active sink (no-op when none is set)."""
    if _SINK is not None:
        _SINK.emit(kind, **fields)


# ---------------------------------------------------------------------
def git_sha() -> str | None:
    """The repository HEAD SHA, or ``None`` outside a git checkout."""
    global _GIT_SHA
    if _GIT_SHA is False:
        try:
            _GIT_SHA = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=5,
                check=True,
            ).stdout.strip()
        except Exception:
            _GIT_SHA = None
    return _GIT_SHA


def config_hash(payload) -> str:
    """A short stable hash of a JSON-serialisable configuration."""
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------
def build_manifest(
    command: str | None = None,
    seed: int | None = None,
    window: int | None = None,
    jobs: int | None = None,
    run_id: str | None = None,
    metrics: dict | None = None,
    sweeps: list[dict] | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble a run-manifest dictionary (see module docstring).

    ``metrics`` is the run's merged :class:`MetricsSnapshot` as a dict
    and ``sweeps`` the per-sweep timing rows — both usually come
    from :mod:`repro.experiments.engine` (``run_metrics`` /
    ``timing_summary``); they are parameters here so this module stays
    import-light.
    """
    config = {"command": command, "seed": seed, "window": window, "jobs": jobs}
    manifest = {
        "run_id": run_id or current_run_id(),
        "created_unix": round(time.time(), 3),
        "git_sha": git_sha(),
        "command": command,
        "seed": seed,
        "window": window,
        "jobs": jobs,
        "config_hash": config_hash(config),
        "metrics": metrics or {},
        "sweeps": sweeps or [],
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: str | Path, **kwargs) -> dict:
    """Build a manifest, write it as JSON, and emit a ``manifest`` event."""
    manifest = build_manifest(**kwargs)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    emit("manifest", run_id=manifest["run_id"], path=str(out))
    return manifest
