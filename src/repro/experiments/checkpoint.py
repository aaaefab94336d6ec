"""Resumable sweep checkpoints: completed task results persisted as JSONL.

When checkpointing is enabled (:func:`set_checkpoint_dir`, or the CLI's
``--checkpoint`` / ``--resume`` flags), the engine appends one line per
completed task to ``<dir>/<run_id>/<sweep_label>.jsonl`` as the sweep
progresses.  Each line carries the task's key, its position, its wall
time, and the pickled result + metric delta, so an interrupted run —
Ctrl-C, a crash, a power cut — restarts with ``--resume <run_id>`` and
re-executes only the tasks that never finished.

Restoration is **chunk-granular**: a chunk (the engine's worker-placement
unit) is restored only when *every* task in it is checkpointed, and a
partially-completed chunk re-runs whole.  That is what keeps merged
metrics bit-identical across a resume boundary — per-worker memo caches
warm up chunk-by-chunk, so re-running a full chunk reproduces exactly the
hit/miss pattern the uninterrupted run would have produced.

Task keys combine the task's position in the sweep with a hash of its
description (``task_key()`` when the item provides one, ``repr``
otherwise), so a resume with different parameters simply misses the
checkpoint and re-runs — stale results are never resurrected.

Durability contract
-------------------
Appends are flushed line-by-line and fsynced on a policy set by the
``REPRO_CKPT_FSYNC`` environment variable:

* unset (default) — fsync at most every 2 seconds of appends; a hard
  kill loses at most the last interval's tasks, never the file;
* a number ``N`` — fsync when ``N`` seconds have passed since the last
  one (``0`` fsyncs every line: maximum durability, slowest);
* ``line``/``always`` — synonym for ``0``;
* ``off``/``never`` — flush only, trust the OS page cache.

A ``kill -9`` at any byte boundary leaves at worst one torn final line,
which restoration skips (the affected chunk re-runs).  When a sweep
completes, :meth:`SweepCheckpoint.finalize` publishes a
``<name>.jsonl.done`` marker via tmp-file + fsync + atomic rename, so
"this checkpoint is the complete record of its sweep" is itself a
crash-consistent fact.
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

from repro.common.errors import ConfigError
from repro.obs import events

__all__ = [
    "FSYNC_ENV_VAR",
    "set_checkpoint_dir",
    "checkpoint_dir",
    "task_key",
    "fsync_interval",
    "SweepCheckpoint",
    "open_sweep",
    "scan_sweep",
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


FSYNC_ENV_VAR = "REPRO_CKPT_FSYNC"
_DEFAULT_FSYNC_INTERVAL_S = 2.0


def fsync_interval() -> float | None:
    """The checkpoint durability policy from ``REPRO_CKPT_FSYNC``.

    ``None`` means never fsync (flush only), ``0.0`` means fsync every
    appended line, a positive value is the minimum number of seconds
    between fsyncs.  Unset defaults to ``2.0``.
    """
    raw = os.environ.get(FSYNC_ENV_VAR, "").strip().lower()
    if not raw:
        return _DEFAULT_FSYNC_INTERVAL_S
    if raw in ("off", "no", "never", "false"):
        return None
    if raw in ("line", "always", "on", "true"):
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"{FSYNC_ENV_VAR} must be a number of seconds, 'line', or "
            f"'off', got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigError(
            f"{FSYNC_ENV_VAR} must be >= 0, got {value}"
        )
    return value


def _done_path(path: Path) -> Path:
    return path.parent / (path.name + ".done")


def _encode(obj) -> str:
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def _decode(text: str):
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def _is_quarantine(record: dict) -> bool:
    """Whether ``record`` is a payload-free quarantine verdict.

    Older checkpoints may carry these lines; they commit nothing, so
    readers skip them and a resume re-runs the task.
    """
    return bool(record.get("quarantined"))


class SweepCheckpoint:
    """Append-only JSONL checkpoint for one sweep of one run."""

    def __init__(self, path: str | Path, chaos=None):
        self.path = Path(path)
        self.records: dict[str, dict] = {}
        self.truncated_lines = 0
        self.finalized = _done_path(self.path).exists()
        torn = False
        if self.path.exists():
            text = self.path.read_text(encoding="utf-8")
            torn = bool(text) and not text.endswith("\n")
            for line in text.splitlines():
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    record["key"]
                except (json.JSONDecodeError, TypeError, KeyError):
                    # A torn line from a hard kill mid-write; everything
                    # before it is intact, the affected task re-runs.
                    self.truncated_lines += 1
                    continue
                if not _is_quarantine(record):
                    self.records[record["key"]] = record
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.truncated_lines:
            events.emit(
                "checkpoint_truncated",
                path=str(self.path),
                skipped_lines=self.truncated_lines,
                restored_records=len(self.records),
            )
        self._fh = self.path.open("a", encoding="utf-8")
        if torn:
            # Seal the torn line so the next append starts fresh.
            self._fh.write("\n")
        self._fsync_interval = fsync_interval()
        self._last_fsync = time.monotonic()
        # Chaos short-write: armed only for files with no prior torn
        # line, and one-shot, so a resumed run converges instead of
        # tearing the same record forever.
        self._chaos = chaos
        self._short_write_armed = (
            chaos is not None
            and getattr(chaos, "short_write_p", 0.0) > 0.0
            and self.truncated_lines == 0
            and not torn
        )
        self._torn_tail = False

    def __contains__(self, key: str) -> bool:
        return key in self.records

    def _write_line(self, record: dict, index: int) -> bool:
        """Append one JSONL record, honouring the fsync policy and the
        chaos ``short-write`` fault.  Returns True when the full line
        (with newline) was written."""
        if self._torn_tail:
            # Seal our own chaos-torn line exactly like __init__ seals a
            # real crash's.
            self._fh.write("\n")
            self._torn_tail = False
        line = json.dumps(record) + "\n"
        if (
            self._short_write_armed
            and self._chaos.short_writes(index)
        ):
            self._short_write_armed = False
            self._torn_tail = True
            self._fh.write(line[: max(1, len(line) // 2)])
            self._fh.flush()
            self._maybe_fsync()
            return False
        self._fh.write(line)
        self._fh.flush()
        self._maybe_fsync()
        return True

    def _maybe_fsync(self, force: bool = False) -> None:
        if self._fsync_interval is None:
            return
        now = time.monotonic()
        if (
            force
            or self._fsync_interval == 0.0
            or now - self._last_fsync >= self._fsync_interval
        ):
            os.fsync(self._fh.fileno())
            self._last_fsync = now

    def append(self, key: str, index: int, task: str, wall_s: float,
               result, metrics) -> None:
        """Persist one completed task (flushed and fsynced per policy)."""
        record = {
            "key": key,
            "index": index,
            "task": task,
            "wall_s": round(wall_s, 6),
            "result": _encode(result),
            "metrics": _encode(metrics),
        }
        if self._write_line(record, index):
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

    def finalize(self, tasks: int, failures: int = 0) -> None:
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
            "failures": failures,
            "completed_unix": round(time.time(), 3),
        }
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload) + "\n")
            fh.flush()
            if self._fsync_interval is not None:
                os.fsync(fh.fileno())
        os.replace(tmp, done)
        if self._fsync_interval is not None:
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
        """Flush, fsync per policy, and close the underlying file."""
        try:
            self._fh.flush()
            self._maybe_fsync(force=True)
        except (OSError, ValueError):
            pass
        self._fh.close()


def open_sweep(label: str, run_id: str,
               chaos=None) -> SweepCheckpoint | None:
    """The checkpoint for one sweep, or ``None`` when checkpointing is off."""
    if _DIR is None:
        return None
    safe = re.sub(r"[^\w.-]+", "_", label) or "sweep"
    return SweepCheckpoint(_DIR / run_id / f"{safe}.jsonl", chaos=chaos)


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
    committed: dict[str, float] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            record["key"]
        except (json.JSONDecodeError, TypeError, KeyError):
            summary["truncated_lines"] += 1
            continue
        if not _is_quarantine(record):
            committed[record["key"]] = float(record.get("wall_s", 0.0))
    summary["tasks_committed"] = len(committed)
    summary["wall_s"] = round(sum(committed.values()), 6)
    if summary["finalized"]:
        try:
            summary["finalize_info"] = json.loads(
                _done_path(path).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            summary["finalize_info"] = None
    return summary
