"""Live sweep telemetry: streaming aggregation, renderers, and scraping.

Everything in :mod:`repro.obs` up to this module is *post-hoc*: per-task
:class:`~repro.obs.metrics.MetricsSnapshot` deltas merge at sweep end
into ``SweepTiming.metrics`` and render in a static report.  This module
is the *while-it-runs* layer.  The experiment engine folds the telemetry
that workers already piggyback on their ``TaskDone`` events, plus the
executor's heartbeat view, into a :class:`LiveStats` aggregator — tasks
done/total, an ETA from a moving-window completion rate, per-worker
health (last-heartbeat age, in-flight chunk, tasks completed), lease
expiries — and three consumers sit on top:

* **listeners** (:func:`add_listener`): callbacks invoked on every fold
  and poll tick.  :class:`LiveRenderer` is the built-in one — the CLI's
  ``--progress=live`` ANSI dashboard, drawn by
  :func:`repro.viz.ascii.render_dashboard`;
* a **Prometheus endpoint** (:func:`start_metrics_server`, the CLI's
  ``--metrics-port`` / ``REPRO_METRICS_PORT``): a stdlib
  ``http.server`` daemon thread serving ``GET /metrics`` in text
  exposition format — live sweep gauges, per-worker heartbeat ages, and
  the sweep's folded counters/histograms — scrapeable mid-sweep;
* an **event follower** (:class:`EventFollower`, :func:`fold_event`):
  reconstructs ``LiveStats`` from another process's JSONL event stream
  (the ``--trace-out`` sink), which is what ``repro tail`` and
  ``repro top`` run on.  The follower only consumes complete lines — a
  partially-written trailing line is left buffered until its newline
  arrives (the same torn-line discipline as checkpoint restore).

Determinism contract: live aggregation is **observation-only**.  The
incremental fold uses the same commutative/associative merge operations
as :meth:`MetricsSnapshot.merge` (counters sum, gauges max, histograms
bucket-wise), so the displayed totals are order-independent; and the
per-task snapshots are additionally kept by index so
:meth:`LiveStats.merged_metrics` replays the exact submission-order
merge — bit-identical to the sweep's final ``SweepTiming.metrics``,
float-valued span times included.

``REPRO_OBS=off`` (or no consumer being registered) makes
:func:`sweep_begin` return ``None`` and the engine skips every live
call — the streaming path then costs one ``is None`` test per event.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.obs import metrics as metrics_mod
from repro.obs.metrics import MetricsSnapshot, merge_snapshots

__all__ = [
    "METRICS_PORT_ENV_VAR",
    "WorkerHealth",
    "LiveStats",
    "add_listener",
    "remove_listener",
    "telemetry_active",
    "sweep_begin",
    "current",
    "LiveRenderer",
    "MetricsServer",
    "start_metrics_server",
    "stop_metrics_server",
    "get_metrics_server",
    "resolve_metrics_port",
    "render_prometheus",
    "EventFollower",
    "resolve_events_path",
    "fold_event",
    "format_event",
]

METRICS_PORT_ENV_VAR = "REPRO_METRICS_PORT"

#: Completion stamps kept for the moving-window rate (ETA smoothing).
_RATE_WINDOW = 64
#: Seconds of completion history the rate is computed over.
_RATE_HORIZON_S = 30.0
#: Minimum seconds between heartbeat folds on the engine's poll ticks.
_HB_FOLD_INTERVAL_S = 0.2


class WorkerHealth:
    """Live view of one worker: heartbeat age, placement, throughput."""

    __slots__ = ("worker", "age_s", "inflight_chunk", "tasks_done")

    def __init__(self, worker: str):
        self.worker = worker
        self.age_s = 0.0
        self.inflight_chunk: int | None = None
        self.tasks_done = 0

    def as_dict(self) -> dict:
        return {
            "worker": self.worker,
            "age_s": round(self.age_s, 3),
            "inflight_chunk": self.inflight_chunk,
            "tasks_done": self.tasks_done,
        }


class LiveStats:
    """Streaming aggregate of one running sweep.

    Fold order does not matter: every incremental operation (counter
    sum, gauge max, histogram bucket add, completion count) is
    commutative and associative, so the totals shown mid-sweep are the
    same whatever order worker frames arrive in.  The final
    :meth:`merged_metrics` is bit-identical to the engine's post-hoc
    ``SweepTiming.metrics`` because it replays the same
    submission-order merge over the same per-task snapshots.
    """

    def __init__(self, label: str, total: int, run_id: str = "",
                 backend: str = "", jobs: int = 1):
        self.label = label
        self.run_id = run_id
        self.backend = backend
        self.jobs = jobs
        self.tasks_total = total
        self.tasks_done = 0       # committed outcomes (ok + failed)
        self.tasks_ok = 0
        self.failures = 0
        self.resumed = 0
        self.retries = 0
        self.timeouts = 0
        self.lease_expiries = 0
        self.duplicate_results = 0
        self.finished = False
        self.task_wall_s = 0.0
        self.started_mono = time.monotonic()
        self.started_unix = time.time()
        self.workers: dict[str, WorkerHealth] = {}
        # Incrementally folded instrument totals (live view).
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, tuple[tuple[float, ...], list[int]]] = {}
        # Per-index snapshots for the bit-identical final merge.
        self._snapshots: dict[int, MetricsSnapshot] = {}
        self._window: deque = deque(maxlen=_RATE_WINDOW)
        self._last_hb_fold = 0.0

    # -- folds (called by the engine controller) -----------------------
    def fold_task(self, index: int, ok: bool, wall_s: float,
                  snapshot: MetricsSnapshot | None, worker: str = "",
                  retries: int = 0, timeouts: int = 0,
                  resumed: bool = False) -> None:
        """Absorb one committed task outcome (or checkpoint restore)."""
        self.tasks_done += 1
        self.retries += retries
        self.timeouts += timeouts
        if ok:
            self.tasks_ok += 1
            self.task_wall_s += wall_s
        else:
            self.failures += 1
        if resumed:
            self.resumed += 1
        else:
            self._window.append(time.monotonic())
        if snapshot is not None:
            self._snapshots[index] = snapshot
            self._fold_snapshot(snapshot)
        if worker:
            self._worker(worker).tasks_done += 1
        _notify("task", self)

    def _fold_snapshot(self, snap: MetricsSnapshot) -> None:
        for name, value in snap.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in snap.gauges.items():
            prior = self.gauges.get(name)
            self.gauges[name] = value if prior is None else max(prior, value)
        for name, (edges, counts) in snap.histograms.items():
            held = self.histograms.get(name)
            if held is None or held[0] != edges:
                self.histograms[name] = (edges, list(counts))
            else:
                mine = held[1]
                for i, count in enumerate(counts):
                    mine[i] += count

    def _worker(self, worker: str) -> WorkerHealth:
        health = self.workers.get(worker)
        if health is None:
            health = self.workers[worker] = WorkerHealth(worker)
        return health

    def chunk_started(self, chunk_id: int, worker: str) -> None:
        if worker:
            self._worker(worker).inflight_chunk = chunk_id

    def lease_expired(self) -> None:
        self.lease_expiries += 1

    def note_duplicate(self) -> None:
        self.duplicate_results += 1

    def fold_heartbeat(self, heartbeat: dict) -> None:
        """Absorb one normalized ``Executor.heartbeat()`` mapping."""
        for worker, info in heartbeat.items():
            health = self._worker(str(worker))
            health.age_s = float(info.get("age_s", 0.0))
            health.inflight_chunk = info.get("inflight_chunk")

    def tick(self, executor=None) -> None:
        """One engine poll-loop tick: throttled heartbeat fold + notify."""
        now = time.monotonic()
        if executor is not None and now - self._last_hb_fold >= _HB_FOLD_INTERVAL_S:
            self._last_hb_fold = now
            try:
                self.fold_heartbeat(executor.heartbeat())
            except Exception:
                pass  # observation-only: a backend mid-teardown is fine
        _notify("tick", self)

    def end(self) -> None:
        self.finished = True
        _notify("sweep_end", self)

    # -- derived views -------------------------------------------------
    def rate(self) -> float:
        """Tasks/second over the recent completion window (0 when idle)."""
        if not self._window:
            return 0.0
        now = time.monotonic()
        recent = [t for t in self._window if now - t <= _RATE_HORIZON_S]
        if not recent:
            return 0.0
        span = now - recent[0]
        if span <= 0.0:
            # Everything stamped "now" (first live sample): average over
            # the whole sweep instead of dividing by a degenerate span.
            return self.tasks_done / max(self.elapsed_s(), 1e-6)
        return len(recent) / span

    def eta_s(self) -> float | None:
        """Estimated seconds to completion, or ``None`` with no rate yet."""
        remaining = max(0, self.tasks_total - self.tasks_done)
        if remaining == 0:
            return 0.0
        rate = self.rate()
        if rate <= 0.0:
            return None
        return remaining / rate

    def elapsed_s(self) -> float:
        return time.monotonic() - self.started_mono

    def merged_metrics(self) -> MetricsSnapshot:
        """The per-task snapshots merged in submission (index) order —
        the exact sequence ``run_sweep`` merges, so the result is
        bit-identical to the final ``SweepTiming.metrics``."""
        return merge_snapshots(
            self._snapshots[i] for i in sorted(self._snapshots)
        )

    def as_row(self) -> dict:
        """A plain-dict view for renderers and the metrics endpoint."""
        eta = self.eta_s()
        return {
            "label": self.label,
            "run_id": self.run_id,
            "backend": self.backend,
            "jobs": self.jobs,
            "tasks_total": self.tasks_total,
            "tasks_done": self.tasks_done,
            "tasks_ok": self.tasks_ok,
            "failures": self.failures,
            "resumed": self.resumed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "lease_expiries": self.lease_expiries,
            "duplicate_results": self.duplicate_results,
            "elapsed_s": round(self.elapsed_s(), 3),
            "rate_per_s": round(self.rate(), 3),
            "eta_s": None if eta is None else round(eta, 1),
            "finished": self.finished,
            "workers": [
                self.workers[w].as_dict() for w in sorted(self.workers)
            ],
        }


# ---------------------------------------------------------------------
# Listener bus + engine attachment point.

_LISTENERS: list = []
_ACTIVE: LiveStats | None = None
# Process-lifetime monotone totals for the metrics endpoint.
_RUN_TOTALS = {"sweeps": 0, "tasks_done": 0, "failures": 0}


def add_listener(listener) -> None:
    """Register a ``listener(kind, stats)`` callback for live updates.

    ``kind`` is ``"begin"``, ``"task"``, ``"tick"``, or ``"sweep_end"``.
    Listener exceptions are swallowed — rendering must never disturb a
    sweep.
    """
    if listener not in _LISTENERS:
        _LISTENERS.append(listener)


def remove_listener(listener) -> None:
    """Unregister a previously added listener (missing is a no-op)."""
    try:
        _LISTENERS.remove(listener)
    except ValueError:
        pass


def _notify(kind: str, stats: "LiveStats") -> None:
    for listener in _LISTENERS:
        try:
            listener(kind, stats)
        except Exception:
            pass


def telemetry_active() -> bool:
    """Whether any live consumer wants per-sweep streaming aggregation."""
    return bool(_LISTENERS or _SERVER is not None)


def sweep_begin(label: str, total: int, run_id: str = "",
                backend: str = "", jobs: int = 1) -> LiveStats | None:
    """Begin live aggregation for one sweep, or ``None`` when inactive.

    Inactive means no consumer is registered (no listener, no metrics
    server) or observability is off (``REPRO_OBS=off``) — the engine
    then skips every live call, keeping the streaming path at its
    near-zero disabled cost.
    """
    global _ACTIVE
    if not telemetry_active() or not metrics_mod.enabled():
        return None
    stats = LiveStats(label, total, run_id=run_id, backend=backend, jobs=jobs)
    _ACTIVE = stats
    _RUN_TOTALS["sweeps"] += 1
    _notify("begin", stats)
    return stats


def sweep_end(stats: LiveStats) -> None:
    """Finish one sweep's live aggregation (stats stay scrapeable)."""
    _RUN_TOTALS["tasks_done"] += stats.tasks_done
    _RUN_TOTALS["failures"] += stats.failures
    stats.end()


def current() -> LiveStats | None:
    """The most recent live sweep's stats (kept after it finishes)."""
    return _ACTIVE


# ---------------------------------------------------------------------
class LiveRenderer:
    """Listener drawing the in-terminal dashboard (``--progress=live``).

    Renders through :func:`repro.viz.ascii.render_dashboard` at most
    every ``interval_s``; on a TTY the previous frame is overwritten
    with ANSI cursor movement, elsewhere (pipes, logs) a compact
    one-line summary is appended instead so output stays greppable.
    """

    def __init__(self, stream=None, interval_s: float = 0.2,
                 ansi: bool | None = None):
        import sys

        self._stream = stream if stream is not None else sys.stderr
        self._interval = interval_s
        self._last = 0.0
        self._frame_lines = 0
        if ansi is None:
            ansi = bool(getattr(self._stream, "isatty", lambda: False)())
        self._ansi = ansi

    def __call__(self, kind: str, stats: LiveStats) -> None:
        now = time.monotonic()
        if kind not in ("begin", "sweep_end") and \
                now - self._last < self._interval:
            return
        self._last = now
        from repro.viz.ascii import render_dashboard

        row = stats.as_row()
        if self._ansi:
            text = render_dashboard(row)
            lines = text.count("\n") + 1
            if self._frame_lines:
                self._stream.write(f"\x1b[{self._frame_lines}F\x1b[J")
            self._stream.write(text + "\n")
            self._frame_lines = 0 if kind == "sweep_end" else lines
        else:
            eta = row["eta_s"]
            self._stream.write(
                f"[{row['label']}] {row['tasks_done']}/{row['tasks_total']} "
                f"tasks, {row['rate_per_s']:.2f}/s, "
                f"eta {'—' if eta is None else f'{eta:.0f}s'}, "
                f"failures {row['failures']}, workers {len(row['workers'])}"
                + (" (done)" if row["finished"] else "") + "\n"
            )
        self._stream.flush()


# ---------------------------------------------------------------------
# Prometheus text-format exposition endpoint (stdlib http.server).

_SERVER: "MetricsServer | None" = None
_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _san(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _label_escape(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", " ")


def render_prometheus() -> str:
    """The current process's telemetry in Prometheus text exposition.

    Always includes the run-level monotone totals; while a sweep is (or
    just was) live, also its progress gauges, per-worker heartbeat ages,
    and the folded per-sweep counters and histograms.
    """
    lines = [
        "# HELP repro_up Whether the repro process is serving metrics.",
        "# TYPE repro_up gauge",
        "repro_up 1",
        "# TYPE repro_run_sweeps_total counter",
        f"repro_run_sweeps_total {_RUN_TOTALS['sweeps']}",
        "# TYPE repro_run_tasks_done_total counter",
        f"repro_run_tasks_done_total {_RUN_TOTALS['tasks_done']}",
        "# TYPE repro_run_failures_total counter",
        f"repro_run_failures_total {_RUN_TOTALS['failures']}",
    ]
    stats = _ACTIVE
    if stats is None:
        return "\n".join(lines) + "\n"
    sweep = (
        f'sweep="{_label_escape(stats.label)}",'
        f'run_id="{_label_escape(stats.run_id)}",'
        f'backend="{_label_escape(stats.backend)}"'
    )
    row = stats.as_row()
    gauge_fields = (
        ("tasks_total", "Tasks submitted to the sweep."),
        ("tasks_done", "Tasks with a committed outcome."),
        ("tasks_ok", "Tasks that committed successfully."),
        ("failures", "Tasks that exhausted every attempt."),
        ("resumed", "Tasks restored from a checkpoint."),
        ("retries", "Failed attempts retried in place."),
        ("timeouts", "Attempts killed by the per-task timeout."),
        ("lease_expiries", "Chunk leases expired at the controller."),
        ("duplicate_results", "Late or duplicated commits dropped."),
        ("elapsed_s", "Seconds since the sweep began."),
        ("rate_per_s", "Moving-window completion rate."),
    )
    for name, help_text in gauge_fields:
        lines.append(f"# HELP repro_sweep_{name} {help_text}")
        lines.append(f"# TYPE repro_sweep_{name} gauge")
        lines.append(f"repro_sweep_{name}{{{sweep}}} {row[name]}")
    eta = row["eta_s"]
    lines.append("# TYPE repro_sweep_eta_seconds gauge")
    lines.append(
        f"repro_sweep_eta_seconds{{{sweep}}} "
        f"{'NaN' if eta is None else eta}"
    )
    lines.append("# TYPE repro_worker_heartbeat_age_seconds gauge")
    lines.append("# TYPE repro_worker_tasks_done gauge")
    for health in (stats.workers[w] for w in sorted(stats.workers)):
        worker = f'{sweep},worker="{_label_escape(health.worker)}"'
        lines.append(
            f"repro_worker_heartbeat_age_seconds{{{worker}}} "
            f"{health.age_s:.3f}"
        )
        lines.append(
            f"repro_worker_tasks_done{{{worker}}} {health.tasks_done}"
        )
    for name in sorted(stats.counters):
        metric = f"repro_metric_{_san(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{{{sweep}}} {stats.counters[name]}")
    for name in sorted(stats.gauges):
        metric = f"repro_metric_{_san(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{{{sweep}}} {stats.gauges[name]}")
    for name in sorted(stats.histograms):
        edges, counts = stats.histograms[name]
        metric = f"repro_metric_{_san(name)}"
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for edge, count in zip(edges, counts):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{{sweep},le="{edge}"}} {cumulative}'
            )
        cumulative += counts[len(edges)]
        lines.append(f'{metric}_bucket{{{sweep},le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_count{{{sweep}}} {cumulative}")
    return "\n".join(lines) + "\n"


class _MetricsHandler(BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 (http.server API)
        if self.path.split("?", 1)[0] not in ("/metrics", "/"):
            self.send_error(404)
            return
        body = render_prometheus().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # scrapes are not user-facing output
        pass


class MetricsServer:
    """Prometheus exposition endpoint on a daemon thread.

    ``port=0`` binds an ephemeral port; :attr:`port` reports the real
    one.  The handler reads module state under the GIL — the controller
    updates plain ints and dict entries, so a scrape mid-update sees a
    consistent-enough snapshot (Prometheus semantics tolerate this).
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1"):
        self._httpd = ThreadingHTTPServer((host, port), _MetricsHandler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            daemon=True, name="repro-metrics",
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=2.0)


def start_metrics_server(port: int = 0) -> MetricsServer:
    """Start (or return the already-running) metrics endpoint."""
    global _SERVER
    if _SERVER is None:
        _SERVER = MetricsServer(port=port)
    return _SERVER


def stop_metrics_server() -> None:
    """Stop the metrics endpoint, if one is running."""
    global _SERVER
    if _SERVER is not None:
        _SERVER.close()
        _SERVER = None


def get_metrics_server() -> MetricsServer | None:
    """The running metrics endpoint, if any."""
    return _SERVER


def resolve_metrics_port(port: int | None = None) -> int | None:
    """The endpoint port: argument, then ``REPRO_METRICS_PORT``, else
    ``None`` (no endpoint).  ``0`` asks for an ephemeral port."""
    if port is not None:
        return port
    raw = os.environ.get(METRICS_PORT_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        from repro.common.errors import ConfigError

        raise ConfigError(
            f"{METRICS_PORT_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


# ---------------------------------------------------------------------
# Following another process's run: JSONL event stream -> LiveStats.


def resolve_events_path(path: str | Path) -> Path:
    """``path`` itself when it is a file; for a directory, the most
    recently modified ``*.jsonl`` inside it (a run/checkpoint dir)."""
    p = Path(path)
    if p.is_dir():
        candidates = sorted(
            p.glob("**/*.jsonl"),
            key=lambda f: f.stat().st_mtime,
            reverse=True,
        )
        if not candidates:
            from repro.common.errors import ConfigError

            raise ConfigError(f"no .jsonl event stream under {p}")
        return candidates[0]
    return p


class EventFollower:
    """Incremental reader of a JSONL event stream being appended to.

    Each :meth:`poll` returns the events whose lines are *complete* —
    a partially-written trailing line (no newline yet, the writer is
    mid-append or died mid-write) stays buffered and is retried on the
    next poll, so a follower never parses torn JSON.  Complete lines
    that still fail to parse (a hard kill mid-flush) are counted in
    :attr:`skipped` and dropped, mirroring checkpoint restore.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.skipped = 0
        self._offset = 0
        self._tail = b""

    def poll(self) -> list[dict]:
        """Newly completed events since the last poll (possibly [])."""
        try:
            with self.path.open("rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except FileNotFoundError:
            return []
        if not data:
            return []
        self._offset += len(data)
        data = self._tail + data
        lines = data.split(b"\n")
        self._tail = lines.pop()  # b"" when data ended on a newline
        events = []
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self.skipped += 1
                continue
            if isinstance(record, dict):
                events.append(record)
            else:
                self.skipped += 1
        return events


def _window_stamp(stats: LiveStats, record: dict) -> None:
    """Add a completion to the rate window at the time it *happened*.

    A follower replaying a backlog (``repro top`` on a finished or
    far-ahead run) would otherwise stamp every historical completion
    "now" and report an absurd instantaneous rate; translating the
    event's wall-clock ``ts`` onto the local monotonic timeline keeps
    the window truthful both live (ts ≈ now) and on replay (old stamps
    age straight out of the rate horizon).
    """
    ts = record.get("ts")
    if ts is None:
        stats._window.append(time.monotonic())
    else:
        stats._window.append(time.monotonic() - (time.time() - float(ts)))


def fold_event(stats: LiveStats | None, record: dict) -> LiveStats | None:
    """Fold one sink event into a follower-side :class:`LiveStats`.

    Returns the (possibly new) stats object: a ``sweep_begin`` event
    starts a fresh aggregate, everything else updates the current one.
    Events that carry no live information pass through unchanged.
    """
    kind = record.get("event")
    if kind == "sweep_begin":
        stats = LiveStats(
            record.get("label", "sweep"),
            int(record.get("tasks", 0)),
            run_id=record.get("run_id", ""),
            backend=record.get("executor", ""),
            jobs=int(record.get("jobs", 1)),
        )
        return stats
    if stats is None:
        return None
    if kind == "task_done":
        stats.tasks_done += 1
        stats.tasks_ok += 1
        stats.task_wall_s += float(record.get("wall_s", 0.0))
        if record.get("resumed"):
            stats.resumed += 1
        else:
            _window_stamp(stats, record)
        worker = str(record.get("worker", "") or "")
        if worker:
            stats._worker(worker).tasks_done += 1
    elif kind == "task_failed":
        stats.tasks_done += 1
        stats.failures += 1
        _window_stamp(stats, record)
    elif kind == "lease_expired":
        stats.lease_expiries += 1
    elif kind == "duplicate_result_dropped":
        stats.duplicate_results += 1
    elif kind == "sweep":
        stats.finished = True
    return stats


_EVENT_SUMMARY_FIELDS = (
    "run_id", "label", "task_index", "worker", "reason",
    "chunk_id", "tasks", "executor", "wall_s", "failures",
    "stranded_tasks", "error", "path",
)


def format_event(record: dict) -> str:
    """One sink event as a compact single line (``repro tail`` output)."""
    kind = record.get("event", "?")
    ts = record.get("ts")
    clock = time.strftime("%H:%M:%S", time.localtime(ts)) if ts else "--:--:--"
    parts = [
        f"{field}={record[field]}"
        for field in _EVENT_SUMMARY_FIELDS
        if record.get(field) not in (None, "")
    ]
    return f"{clock} {kind:<24s} {' '.join(parts)}".rstrip()
