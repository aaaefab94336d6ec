"""repro.obs — the structured telemetry layer.

Four small modules, one switch:

* :mod:`repro.obs.metrics` — the process-local :class:`MetricsRegistry`
  (counters / gauges / fixed-bucket histograms) and its mergeable,
  picklable :class:`MetricsSnapshot`;
* :mod:`repro.obs.tracing` — nested ``span("...")`` timers building a
  per-task span tree with wall/CPU time and entry counts, and
  :func:`~repro.obs.tracing.span_self_times`, the per-span self-time
  table (plus the task time no span covers) that the report and the
  ``--metrics`` manifest carry;
* :mod:`repro.obs.events` — run ids, an optional JSONL event sink
  (flushed per line), and the per-run manifest written next to results;
* :mod:`repro.obs.log` — the single ``repro`` stdlib-logging hierarchy
  all user-facing text flows through.

``REPRO_OBS=off`` in the environment turns every instrument call into a
no-op (``benchmarks/bench_obs_overhead.py`` asserts the instrumented
path stays within a small budget of that baseline).

The experiment engine is the integration point: each task runs between
``registry.begin_task()`` / ``end_task()`` so its metric *delta* and
span tree travel back across the process boundary with its result, and
``run_sweep`` merges the per-task snapshots deterministically — a
parallel sweep's merged metrics equal the serial sweep's exactly.
"""

from repro.obs.metrics import (
    BucketHistogram,
    Counter,
    Gauge,
    MetricsRegistry,
    MetricsSnapshot,
    OBS_ENV_VAR,
    enabled,
    get_registry,
    merge_snapshots,
    reset,
    set_enabled,
)
from repro.obs.tracing import span

__all__ = [
    "OBS_ENV_VAR",
    "Counter",
    "Gauge",
    "BucketHistogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "get_registry",
    "merge_snapshots",
    "enabled",
    "set_enabled",
    "reset",
    "span",
]
