"""Distributed trace export: sweep timelines as Chrome trace-event JSON.

Every committed task outcome carries trace context — ``run_id``,
``chunk_id``, ``task_key``, the executing worker and its pid, a
wall-clock start stamp, and the task's span tree (the same nested
name → :class:`~repro.obs.tracing.SpanNode` dicts the report renders).
The engine records each into the process :class:`TraceCollector`
(installed by the CLI's ``--trace-export``), and
:func:`write_chrome_trace` lays the collected records out as Chrome
trace-event JSON — the ``{"traceEvents": [...]}`` format Perfetto and
``chrome://tracing`` load directly.

Layout: one trace *process* per worker (pool pid or ``inline``), one
*thread* row per worker, ``"X"`` complete events with
microsecond ``ts``/``dur`` relative to the earliest task start.  Within
one worker row events are sorted by start and clamped so they never
overlap (a worker executes tasks sequentially; wall-clock stamps from
distinct OS processes can still jitter a few µs, so the clamp restores
the true ordering).  Each task event nests its span tree as child
events laid out sequentially inside the task interval, scaled down when
recorded span time exceeds the task's wall time (spans measure inclusive
perf-counter time; scheduling gaps can compress them).

Export is observation-only: records are built from data the outcome
already carries, and collection is skipped entirely when no collector
is installed.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "TaskTrace",
    "TraceCollector",
    "set_collector",
    "get_collector",
    "chrome_trace",
    "write_chrome_trace",
]


class TaskTrace:
    """Trace context + timing of one committed task execution."""

    __slots__ = ("label", "index", "task_key", "chunk_id", "worker",
                 "pid", "start_unix", "wall_s", "spans", "run_id")

    def __init__(self, label: str, index: int, task_key: str,
                 chunk_id: int, worker: str, pid: int,
                 start_unix: float, wall_s: float,
                 spans: dict | None = None, run_id: str = ""):
        self.label = label
        self.index = index
        self.task_key = task_key
        self.chunk_id = chunk_id
        self.worker = worker or "inline"
        self.pid = pid
        self.start_unix = start_unix
        self.wall_s = wall_s
        # ``spans`` accepts either a snapshot's root span-tree dict
        # (``SpanNode.to_dict()`` — name/count/wall_s/cpu_s/children)
        # or directly a ``{name: node_dict}`` children mapping.
        spans = spans or {}
        if "children" in spans and "name" in spans:
            spans = spans["children"]
        self.spans = spans
        self.run_id = run_id


class TraceCollector:
    """Accumulates :class:`TaskTrace` records across a CLI invocation."""

    def __init__(self):
        self.records: list[TaskTrace] = []

    def record(self, trace: TaskTrace) -> None:
        self.records.append(trace)


_COLLECTOR: TraceCollector | None = None


def set_collector(collector: TraceCollector | None) -> None:
    """Install (or clear) the process trace collector."""
    global _COLLECTOR
    _COLLECTOR = collector


def get_collector() -> TraceCollector | None:
    """The installed trace collector, if any."""
    return _COLLECTOR


def _span_events(spans: dict, start_us: float, dur_us: float,
                 pid: int, tid: int, depth: int = 0) -> list[dict]:
    """Lay one span-tree level out sequentially inside [start, start+dur].

    Spans at one level run back to back from the interval start; if
    their recorded total exceeds the interval (perf-counter inclusive
    time vs wall interval), they are scaled to fit so children never
    escape their parent in the rendered timeline.
    """
    if not spans or depth > 8 or dur_us <= 0.0:
        return []
    total_s = sum(node["wall_s"] for node in spans.values())
    scale = 1.0
    if total_s > 0 and total_s * 1e6 > dur_us:
        scale = dur_us / (total_s * 1e6)
    events = []
    cursor = start_us
    for name in sorted(spans):
        node = spans[name]
        span_us = node["wall_s"] * 1e6 * scale
        events.append({
            "name": name,
            "ph": "X",
            "ts": round(cursor, 3),
            "dur": round(span_us, 3),
            "pid": pid,
            "tid": tid,
            "args": {"count": node["count"],
                     "cpu_s": round(node["cpu_s"], 6)},
        })
        events.extend(_span_events(
            node.get("children") or {}, cursor, span_us, pid, tid,
            depth + 1))
        cursor += span_us
    return events


def chrome_trace(records: list[TaskTrace], run_id: str = "") -> dict:
    """Chrome trace-event JSON for the collected task records.

    One pid per distinct worker, one thread row per worker; task events
    are sorted and clamped per row so timestamps are monotonic and
    non-overlapping; span trees nest inside their task's interval.
    """
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms",
                "otherData": {"run_id": run_id}}
    t0 = min(r.start_unix for r in records)
    workers = sorted({r.worker for r in records})
    worker_pid = {w: i + 1 for i, w in enumerate(workers)}
    events: list[dict] = []
    for worker, pid in worker_pid.items():
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"worker {worker}"},
        })
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": 1,
            "args": {"name": "tasks"},
        })
        row = sorted(
            (r for r in records if r.worker == worker),
            key=lambda r: (r.start_unix, r.index),
        )
        prev_end = 0.0
        for rec in row:
            ts = (rec.start_unix - t0) * 1e6
            if ts < prev_end:  # clamp inter-process clock jitter
                ts = prev_end
            dur = max(rec.wall_s * 1e6, 0.001)
            events.append({
                "name": f"{rec.label}[{rec.index}]",
                "cat": "task",
                "ph": "X",
                "ts": round(ts, 3),
                "dur": round(dur, 3),
                "pid": pid,
                "tid": 1,
                "args": {
                    "run_id": rec.run_id or run_id,
                    "chunk_id": rec.chunk_id,
                    "task_key": rec.task_key,
                    "label": rec.label,
                    "os_pid": rec.pid,
                },
            })
            events.extend(_span_events(rec.spans, ts, dur, pid, 1))
            prev_end = ts + dur
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"run_id": run_id, "tasks": len(records),
                      "workers": len(workers)},
    }


def write_chrome_trace(path: str | Path, records: list[TaskTrace],
                       run_id: str = "") -> Path:
    """Write the Chrome trace-event JSON for ``records`` to ``path``."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(chrome_trace(records, run_id=run_id)),
                   encoding="utf-8")
    return out
