"""Resumable sweep checkpoints: completed task results persisted as JSONL.

When checkpointing is enabled (:func:`set_checkpoint_dir`, or the CLI's
``--checkpoint`` / ``--resume`` flags), the engine appends one line per
completed task to ``<dir>/<run_id>/<sweep_label>.jsonl`` as the sweep
progresses.  Each line carries the task's key, its position, its wall
time, and the pickled result + metric delta, so an interrupted run —
Ctrl-C, a dead worker, a crash, a power cut — restarts with
``--resume <run_id>`` and re-executes only the tasks that never
finished.  A line is a record only when it parses and carries ``key``,
``result`` and ``metrics``; readers skip any other line as torn.  The
CLI also stores each run's resume command (:func:`save_resume_command`).

Restoration is **chunk-granular**: a chunk (the engine's worker-placement
unit) is restored only when *every* task in it is checkpointed and
decodes; otherwise none of its tasks commits and the chunk re-runs
whole.  That is what keeps merged metrics bit-identical across a resume
boundary — per-worker memo caches warm up chunk-by-chunk, so re-running
a full chunk reproduces exactly the hit/miss pattern the uninterrupted
run would have produced.

Task keys combine the task's position in the sweep with a hash of its
description (``task_key()`` when the item provides one, ``repr``
otherwise), so a resume with different parameters simply misses the
checkpoint and re-runs — stale results are never resurrected.

Durability contract
-------------------
Every append is flushed as one line, so a killed process (``kill -9`` at
any byte boundary) leaves at worst one torn final line, which
restoration skips (the affected chunk re-runs).  The file is fsynced at
most every :data:`FSYNC_INTERVAL_S` seconds of appends and always by
:meth:`SweepCheckpoint.finalize` and :meth:`SweepCheckpoint.close`; that
bounds what an OS crash or power cut can lose to the last interval's
tasks, never the file.  When a sweep completes,
:meth:`SweepCheckpoint.finalize` publishes a ``<name>.jsonl.done`` marker
via tmp-file + fsync + atomic rename, so "this checkpoint is the
complete record of its sweep" is itself a crash-consistent fact.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import re
import time
from pathlib import Path

from repro.obs import events

__all__ = [
    "FSYNC_INTERVAL_S",
    "set_checkpoint_dir",
    "checkpoint_dir",
    "task_key",
    "SweepCheckpoint",
    "open_sweep",
    "scan_sweep",
    "save_resume_command",
    "load_resume_command",
]

_DIR: Path | None = None


def set_checkpoint_dir(path: str | Path | None) -> None:
    """Enable checkpointing under ``path`` (``None`` turns it off)."""
    global _DIR
    _DIR = Path(path) if path is not None else None


def checkpoint_dir() -> Path | None:
    """The active checkpoint root, if checkpointing is enabled."""
    return _DIR


def task_key(item, index: int) -> str:
    """A stable key for one sweep task: position + description hash."""
    describe = getattr(item, "task_key", None)
    body = describe() if callable(describe) else repr(item)
    digest = hashlib.sha256(body.encode()).hexdigest()[:16]
    return f"{index:05d}:{digest}"


#: Minimum seconds between the fsyncs of a checkpoint's appends.
FSYNC_INTERVAL_S = 2.0


def _done_path(path: Path) -> Path:
    return path.parent / (path.name + ".done")


def _encode(obj) -> str:
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def _decode(text: str):
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def _read_records(text: str) -> tuple[dict[str, dict], int]:
    """The records in a checkpoint's ``text``, keyed by task key, and the
    number of torn lines skipped."""
    records: dict[str, dict] = {}
    torn = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            record["result"], record["metrics"]
            records[record["key"]] = record
        except (ValueError, TypeError, KeyError):
            # A torn line from a hard kill mid-write; everything before
            # it is intact, the affected task re-runs.
            torn += 1
    return records, torn


class SweepCheckpoint:
    """Append-only JSONL checkpoint for one sweep of one run."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.finalized = _done_path(self.path).exists()
        text = ""
        if self.path.exists():
            text = self.path.read_text(encoding="utf-8")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.records, self.truncated_lines = _read_records(text)
        if self.truncated_lines:
            events.emit(
                "checkpoint_truncated",
                path=str(self.path),
                skipped_lines=self.truncated_lines,
                restored_records=len(self.records),
            )
        self._fh = self.path.open("a", encoding="utf-8")
        if text and not text.endswith("\n"):
            # Seal the torn line so the next append starts fresh.
            self._fh.write("\n")
        self._last_fsync = time.monotonic()

    def __contains__(self, key: str) -> bool:
        return key in self.records

    def _maybe_fsync(self, force: bool = False) -> None:
        now = time.monotonic()
        if force or now - self._last_fsync >= FSYNC_INTERVAL_S:
            os.fsync(self._fh.fileno())
            self._last_fsync = now

    def append(self, key: str, index: int, task: str, wall_s: float,
               result, metrics) -> None:
        """Persist one completed task (flushed; fsynced at most every
        :data:`FSYNC_INTERVAL_S`)."""
        record = {
            "key": key,
            "index": index,
            "task": task,
            "wall_s": round(wall_s, 6),
            "result": _encode(result),
            "metrics": _encode(metrics),
        }
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        self._maybe_fsync()
        self.records[key] = record

    def restore(self, key: str) -> tuple[object, float, object] | None:
        """The stored ``(result, wall_s, metrics)`` for ``key``, if any.

        A record whose payload does not decode (truncated base64 or
        pickle from a torn write) is treated as missing — the task
        simply re-runs — rather than aborting the resume.
        """
        record = self.records.get(key)
        if record is None:
            return None
        try:
            return (
                _decode(record["result"]),
                float(record["wall_s"]),
                _decode(record["metrics"]),
            )
        except Exception:
            self.records.pop(key, None)
            events.emit(
                "checkpoint_truncated",
                path=str(self.path),
                skipped_lines=1,
                task_key=key,
            )
            return None

    def finalize(self, tasks: int) -> None:
        """Atomically publish a ``<name>.jsonl.done`` completion marker.

        The JSONL itself is fsynced first, then the marker is written to
        a tmp file, fsynced, and renamed into place — a crash at any
        point leaves either no marker (sweep treated as interrupted,
        resumable) or a complete one, never a torn marker.
        """
        self._fh.flush()
        self._maybe_fsync(force=True)
        done = _done_path(self.path)
        tmp = done.parent / (done.name + ".tmp")
        payload = {
            "tasks": tasks,
            "records": len(self.records),
            "completed_unix": round(time.time(), 3),
        }
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, done)
        try:
            dir_fd = os.open(str(done.parent), os.O_RDONLY)
        except OSError:
            pass
        else:
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        self.finalized = True

    def close(self) -> None:
        """Flush, fsync, and close the underlying file."""
        try:
            self._fh.flush()
            self._maybe_fsync(force=True)
        except (OSError, ValueError):
            pass
        self._fh.close()


def open_sweep(label: str, run_id: str) -> SweepCheckpoint | None:
    """The checkpoint for one sweep, or ``None`` when checkpointing is off."""
    if _DIR is None:
        return None
    safe = re.sub(r"[^\w.-]+", "_", label) or "sweep"
    return SweepCheckpoint(_DIR / run_id / f"{safe}.jsonl")


def scan_sweep(path: str | Path) -> dict:
    """A read-only summary of one sweep checkpoint file.

    Unlike constructing :class:`SweepCheckpoint`, scanning opens nothing
    for writing, seals nothing, and decodes no pickled payloads — safe
    to run against a live or dead run's files.  Used by the partial
    report.
    """
    path = Path(path)
    summary = {
        "label": path.stem,
        "path": str(path),
        "tasks_committed": 0,
        "wall_s": 0.0,
        "truncated_lines": 0,
        "finalized": _done_path(path).exists(),
        "finalize_info": None,
    }
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return summary
    records, summary["truncated_lines"] = _read_records(text)
    summary["tasks_committed"] = len(records)
    summary["wall_s"] = round(
        sum(float(r.get("wall_s", 0.0)) for r in records.values()), 6
    )
    if summary["finalized"]:
        try:
            summary["finalize_info"] = json.loads(
                _done_path(path).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            summary["finalize_info"] = None
    return summary


def save_resume_command(root: str | Path, run_id: str, command: str) -> None:
    """Store the command line that resumes ``run_id`` as
    ``<root>/<run_id>/resume``: written to a tmp file and renamed into
    place, so a reader finds the whole line or none, even after a kill."""
    tmp = Path(root) / run_id / "resume.tmp"
    tmp.parent.mkdir(parents=True, exist_ok=True)
    tmp.write_text(command + "\n", encoding="utf-8")
    os.replace(tmp, tmp.parent / "resume")


def load_resume_command(root: str | Path, run_id: str) -> str | None:
    """The command :func:`save_resume_command` stored for ``run_id``, or
    ``None`` (a run driven through the library stores none)."""
    try:
        text = (Path(root) / run_id / "resume").read_text(encoding="utf-8")
    except OSError:
        return None
    return text.strip() or None
