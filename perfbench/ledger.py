"""Per-layer ledger of the traced benchmark run.

The traced run wraps the public entry points of each layer module in the
benchmark's own code -- nothing inside ``repro`` is edited -- and records
one span per call: its name, start, end, parent span and operation id (the
simulation or thermal solve it belongs to).  Spans stay in memory and are
written out once, when the run ends.

A span's self time is its duration minus the part of it that its child
spans cover.  A layer's self time is the sum over the layer's spans.  The
drivers' own code between layer calls belongs to no layer and is reported
as ``ledger.unattributed_s``; ``ledger.coverage`` is the share of the traced
host time that the layers account for.

Layer table: the layer's metrics, and which end-to-end metric a change to
the layer should move, on which workload.

======================  ==========================================  ===========================================
layer                   metrics                                     should move
======================  ==========================================  ===========================================
repro.isa.trace         trace.generate_s, trace.instructions        op_p50_s on fig6-sweep; sim_kips on
                                                                    rmt-long
repro.common.memo       memo.{trace,schedule,branch,preload,grid}   wall_s on fig6-sweep, where each stream
                        .hit_ratio                                  serves 4 chips; rmt-long has no reuse
repro.core.memory +     memory.preload_s, memory.preloads,          preload: op_p50_s/wall_s on fig6-sweep,
repro.cache             memory.access_window_s, memory.events,      small on rmt-long; access_window: sim_kips
                        l1d.miss_ratio, l2.miss_ratio               on both simulation workloads
repro.core.branch       branch.pretrain_s, branch.update_window_s,  pretrain: fig6-sweep; update_window:
                        branch.mispredict_ratio                     sim_kips on both simulation workloads
repro.core.leading      leading.schedule_s, leading.prepass_s,      scan: sim_kips/op_p50_s on rmt-long first,
                        leading.scan_s, leading.scan_ns_per_row,    fig6-sweep second; nothing on
                        leading.rows, leading.end_kernel_s          thermal-sweep
repro.core.rmt          rmt.gate_s, rmt.backpressure_commits        sim_kips on rmt-long
repro.core.checker      checker.consume_s, checker.rows,            sim_kips on rmt-long; half of fig6-sweep's
                        checker.scalar_rows                         operations
repro.thermal +         thermal.factorize_s, thermal.factorizations factorize: wall_s and peak_rss_mb on
repro.floorplan         thermal.solve_s, thermal.solves,            thermal-sweep; solve and map:
                        thermal.map_s, floorplan.build_s            op_p50_s/op_tail_s on thermal-sweep;
                                                                    nothing on the simulation workloads
repro.experiments       runner.task_self_s                          op_p50_s on fig6-sweep
.runner
repro.experiments       engine.overhead_s, engine.efficiency,       wall_s on fig6-sweep, the only jobs=2
.engine + executors     engine.retries (from the untraced run)      workload; about 0 on the inline workloads
======================  ==========================================  ===========================================

``sim_kips`` is printed, not gated: it is the simulated instruction count
over ``wall_s``, so on a fixed workload it moves exactly with ``wall_s``.

Counts come from the program's own counters (the traced sweeps' merged
metrics, as ``engine.run_metrics()`` merges them, and
``memo.get_cache().stats``) and from the simulated windows.  Only where no
counter exists -- memory events and branch mispredictions -- are they read
from the arguments and results at the wrapped boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "EntryPoint",
    "LAYER_OF_PREFIX",
    "ENTRY_POINTS",
    "PER_LAYER_METRICS",
    "Tracer",
    "self_times",
    "summarize",
    "layer_metrics",
]


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped call: ``module:attr`` recorded as span ``name``.

    ``attr`` is a module function or ``Class.method``.  ``count`` maps
    ``(args, result)`` to the work the call did (an int, or a pair whose
    second item is a sub-count such as mispredictions).  ``op`` marks
    the call that starts an operation, so nested spans carry its id.
    ``optional`` entry points are wrapped only when they exist.
    """

    module: str
    attr: str
    name: str
    count: Callable | None = None
    op: bool = False
    optional: bool = False


def _events(args, result):
    return len(args[1])


def _flags(args, result):
    return len(result), sum(result)


# The first dotted part of a span name names its layer; ``driver`` spans
# (the workload's own driver calls) belong to none.
LAYER_OF_PREFIX = {
    "trace": "trace",
    "memo": "memo",
    "memory": "memory",
    "branch": "branch",
    "leading": "leading",
    "rmt": "rmt",
    "checker": "checker",
    "thermal": "thermal",
    "floorplan": "thermal",
    "runner": "runner",
    "engine": "engine",
}

ENTRY_POINTS = (
    # repro.isa.trace.  The lockstep batch path is due to be deleted; its
    # time folds into trace.generate_s so that the cut renames no metric.
    EntryPoint("repro.isa.trace", "TraceGenerator.__init__", "trace.generate"),
    EntryPoint("repro.isa.trace", "TraceGenerator.generate_arrays",
               "trace.generate"),
    EntryPoint("repro.isa.trace", "generate_arrays_batch", "trace.generate",
               optional=True),
    # repro.common.memo
    EntryPoint("repro.common.memo", "ArtifactCache.trace_arrays",
               "memo.trace_arrays"),
    EntryPoint("repro.common.memo", "ArtifactCache.prime_trace_batch",
               "memo.prime_trace_batch", optional=True),
    EntryPoint("repro.common.memo", "ArtifactCache.trace_schedule",
               "memo.trace_schedule"),
    EntryPoint("repro.common.memo", "ArtifactCache.branch_stream_view",
               "memo.branch_stream_view"),
    EntryPoint("repro.common.memo", "ArtifactCache.pretrained_predictor",
               "memo.pretrained_predictor"),
    EntryPoint("repro.common.memo", "ArtifactCache.preload_plan",
               "memo.preload_plan"),
    EntryPoint("repro.common.memo", "ArtifactCache.thermal_model",
               "memo.thermal_model"),
    EntryPoint("repro.common.memo", "ArtifactCache.solve_floorplan",
               "memo.solve_floorplan"),
    # repro.core.memory + repro.cache
    EntryPoint("repro.core.memory", "MemoryHierarchy.__init__",
               "memory.build"),
    EntryPoint("repro.core.memory", "MemoryHierarchy.preload_profile",
               "memory.preload"),
    EntryPoint("repro.cache.nuca", "NucaCache.preload_plan",
               "memory.preload_plan"),
    EntryPoint("repro.cache.sram", "SetAssociativeCache.preload_plan",
               "memory.preload_plan"),
    EntryPoint("repro.core.memory", "MemoryHierarchy.access_window",
               "memory.access_window", count=_events),
    # repro.core.branch (pretraining lives on the trace generator)
    EntryPoint("repro.isa.trace", "TraceGenerator.pretrain_predictor",
               "branch.pretrain"),
    EntryPoint("repro.core.branch", "BranchPredictor.__init__",
               "branch.pretrain"),
    EntryPoint("repro.core.branch", "BranchPredictor.clone",
               "branch.pretrain"),
    EntryPoint("repro.core.branch", "BranchStreamView.update_window",
               "branch.update_window", count=_flags),
    EntryPoint("repro.core.branch", "BranchPredictor.update_window",
               "branch.update_window"),
    # repro.core.leading
    EntryPoint("repro.core.leading", "build_trace_schedule",
               "leading.schedule"),
    EntryPoint("repro.core.leading", "LeadingCoreTiming.run", "leading.run"),
    EntryPoint("repro.core.leading", "LeadingCoreTiming.prepare_window",
               "leading.prepass"),
    EntryPoint("repro.core.leading", "LeadingCoreTiming.advance_window",
               "leading.scan"),
    EntryPoint("repro.core.leading", "LeadingCoreTiming.end_kernel",
               "leading.end_kernel"),
    # repro.core.rmt
    EntryPoint("repro.core.rmt", "RmtSimulator.run", "rmt.run"),
    EntryPoint("repro.core.rmt", "RmtSimulator.advance_window", "rmt.gate"),
    EntryPoint("repro.core.rmt", "RmtSimulator.end_windows", "rmt.end"),
    # repro.core.checker
    EntryPoint("repro.core.checker", "InOrderCheckerTiming.consume_window",
               "checker.consume_window"),
    EntryPoint("repro.core.checker", "InOrderCheckerTiming.consume_op",
               "checker.consume_op"),
    # repro.thermal + repro.floorplan
    EntryPoint("repro.thermal.grid", "GridThermalModel.__init__",
               "thermal.factorize"),
    EntryPoint("repro.thermal.grid", "GridThermalModel.solve",
               "thermal.solve"),
    EntryPoint("repro.thermal.hotspot", "ChipThermalModel.__init__",
               "thermal.model"),
    EntryPoint("repro.thermal.hotspot", "ChipThermalModel.solve",
               "thermal.map", op=True),
    EntryPoint("repro.floorplan.layouts", "build_floorplan",
               "floorplan.build"),
    EntryPoint("repro.floorplan.layouts", "Floorplan.scaled_power",
               "floorplan.build"),
    # repro.experiments.runner
    EntryPoint("repro.experiments.runner", "simulate_leading", "runner.task",
               op=True),
    EntryPoint("repro.experiments.runner", "simulate_rmt", "runner.task",
               op=True),
    EntryPoint("repro.experiments.runner", "prime_sim_tasks", "runner.prime",
               optional=True),
    # repro.experiments.engine (+ executors, which run inside it)
    EntryPoint("repro.experiments.engine", "run_sweep", "engine.sweep"),
)


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER_METRICS = (
    ("trace.generate_s", "s", "lower"),
    ("trace.instructions", "count", "lower"),
    ("memo.trace.hit_ratio", "ratio", "higher"),
    ("memo.schedule.hit_ratio", "ratio", "higher"),
    ("memo.branch.hit_ratio", "ratio", "higher"),
    ("memo.preload.hit_ratio", "ratio", "higher"),
    ("memo.grid.hit_ratio", "ratio", "higher"),
    ("memory.preload_s", "s", "lower"),
    ("memory.preloads", "count", "lower"),
    ("memory.access_window_s", "s", "lower"),
    ("memory.events", "count", "lower"),
    ("l1d.miss_ratio", "ratio", "lower"),
    ("l2.miss_ratio", "ratio", "lower"),
    ("branch.pretrain_s", "s", "lower"),
    ("branch.update_window_s", "s", "lower"),
    ("branch.mispredict_ratio", "ratio", "lower"),
    ("leading.schedule_s", "s", "lower"),
    ("leading.prepass_s", "s", "lower"),
    ("leading.scan_s", "s", "lower"),
    ("leading.scan_ns_per_row", "ns/row", "lower"),
    ("leading.rows", "count", "lower"),
    ("leading.end_kernel_s", "s", "lower"),
    ("rmt.gate_s", "s", "lower"),
    ("rmt.backpressure_commits", "count", "lower"),
    ("checker.consume_s", "s", "lower"),
    ("checker.rows", "count", "lower"),
    ("checker.scalar_rows", "count", "lower"),
    ("thermal.factorize_s", "s", "lower"),
    ("thermal.factorizations", "count", "lower"),
    ("thermal.solve_s", "s", "lower"),
    ("thermal.solves", "count", "lower"),
    ("thermal.map_s", "s", "lower"),
    ("floorplan.build_s", "s", "lower"),
    ("runner.task_self_s", "s", "lower"),
    ("engine.overhead_s", "s", "lower"),
    ("engine.efficiency", "ratio", "higher"),
    ("engine.retries", "count", "lower"),
) + tuple(
    (f"layer.{layer}.self_s", "s", "lower")
    for layer in dict.fromkeys(LAYER_OF_PREFIX.values())
) + (
    ("ledger.host_s", "s", "lower"),
    ("ledger.unattributed_s", "s", "lower"),
    ("ledger.coverage", "ratio", "higher"),
    ("tracing.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``records`` holds one ``[name, start, end, parent, op, count]`` list
    per call, in call order; ``parent`` is the index of the enclosing
    span (-1 for a root) and ``op`` the operation id (-1 outside any
    operation).
    """

    def __init__(self):
        self.records: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._next_op = 0

    def wrap(self, entry: EntryPoint, fn: Callable) -> Callable:
        """``fn`` with a span named ``entry.name`` around every call."""
        records = self.records
        stack = self._stack
        clock = time.perf_counter
        name, count, starts_op = entry.name, entry.count, entry.op

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = starts_op and self._op < 0
            if opened:
                self._op = self._next_op
                self._next_op += 1
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, 0]
            stack.append(len(records))
            records.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if opened:
                    self._op = -1
            if count is not None:
                record[5] = count(args, result)
            return result

        return wrapper

    def root(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a root span (a workload's driver call)."""
        return self.wrap(EntryPoint("", "", name), fn)(*args, **kwargs)

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block.

        A module function is replaced wherever a ``repro`` module bound
        it by name (``from x import f``), so callers that imported it
        directly are traced too.  Everything is restored on exit.
        """
        patches: list[tuple[object, str, object]] = []
        try:
            for entry in ENTRY_POINTS:
                module = importlib.import_module(entry.module)
                owner_name, _, attr = entry.attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                if attr not in vars(owner):
                    if entry.optional:
                        continue
                    raise AttributeError(
                        f"{entry.module}.{entry.attr} no longer exists"
                    )
                original = vars(owner)[attr]
                wrapper = self.wrap(entry, original)
                if owner_name:
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("repro")
                            and getattr(mod, attr, None) is original):
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Self time of every span in ``spans``.

    ``spans`` is a sequence of ``(start, end, parent)`` triples (parent is
    an index into ``spans``, -1 for a root).  A span's self time is its
    duration minus the union of its children's intervals, each clipped
    to the span, so overlapping or overhanging children are not counted
    twice.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, (_start, _end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for (start, end, _parent), kids in zip(spans, children):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(
            (max(spans[k][0], start), min(spans[k][1], end)) for k in kids
        ):
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((end - start) - covered)
    return out


@dataclass
class SpanTotals:
    """Per-name totals over one traced run."""

    calls: int = 0
    self_s: float = 0.0
    count: int = 0
    extra: int = 0


def summarize(records) -> tuple[dict[str, SpanTotals], float]:
    """Per-name totals and the traced host time (sum of root spans)."""
    selfs = self_times([(r[1], r[2], r[3]) for r in records])
    totals: dict[str, SpanTotals] = {}
    host = 0.0
    for record, own in zip(records, selfs):
        name, start, end, parent, _op, count = record
        entry = totals.setdefault(name, SpanTotals())
        entry.calls += 1
        entry.self_s += own
        if isinstance(count, tuple):
            entry.count += count[0]
            entry.extra += count[1]
        else:
            entry.count += count
        if parent < 0:
            host += end - start
    return totals, host


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict[str, SpanTotals], host_s: float,
                  counters: dict[str, float], memo_stats: dict,
                  instructions: int, engine_sweeps,
                  overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric, by name (see :data:`PER_LAYER_METRICS`).

    ``counters`` are the traced sweeps' merged program counters,
    ``memo_stats`` the traced pass's ``memo.get_cache().stats``,
    ``instructions`` the traced pass's simulated instructions (every
    simulation's window, warm-up plus measured; the leading core scans
    each once) and ``engine_sweeps`` the untraced run's ``SweepTiming``
    records.
    """
    def self_s(*names):
        return sum(totals[n].self_s for n in names if n in totals)

    def calls(name):
        return totals[name].calls if name in totals else 0

    def count(name):
        return totals[name].count if name in totals else 0

    layers = {layer: 0.0 for layer in LAYER_OF_PREFIX.values()}
    for name, entry in totals.items():
        layer = LAYER_OF_PREFIX.get(name.split(".", 1)[0])
        if layer is not None:
            layers[layer] += entry.self_s
    attributed = sum(layers.values())

    l2_hits = sum(v for k, v in counters.items()
                  if k.startswith("nuca.") and k.endswith(".hits"))
    l2_misses = sum(v for k, v in counters.items()
                    if k.startswith("nuca.") and k.endswith(".misses"))
    l1_hits = counters.get("l1d.hits", 0)
    l1_misses = counters.get("l1d.misses", 0)
    flags = totals.get("branch.update_window", SpanTotals())
    checked = counters.get("rmt.checker_instructions", 0)

    task_s = sum(sum(t.task_wall_s) for t in engine_sweeps)
    jobs_wall_s = sum(t.jobs * t.wall_s for t in engine_sweeps)
    overhead_s = sum(t.wall_s - sum(t.task_wall_s) / t.jobs
                     for t in engine_sweeps)

    metrics = {
        "trace.generate_s": self_s("trace.generate"),
        "trace.instructions": counters.get("trace.instructions_generated", 0),
        "memory.preload_s": self_s("memory.preload", "memory.preload_plan"),
        "memory.preloads": calls("memory.preload"),
        "memory.access_window_s": self_s("memory.access_window"),
        "memory.events": count("memory.access_window"),
        "l1d.miss_ratio": _ratio(l1_misses, l1_hits + l1_misses),
        "l2.miss_ratio": _ratio(l2_misses, l2_hits + l2_misses),
        "branch.pretrain_s": self_s("branch.pretrain"),
        "branch.update_window_s": self_s("branch.update_window"),
        "branch.mispredict_ratio": _ratio(flags.extra, flags.count),
        "leading.schedule_s": self_s("leading.schedule"),
        "leading.prepass_s": self_s("leading.prepass"),
        "leading.scan_s": self_s("leading.scan"),
        "leading.scan_ns_per_row": _ratio(self_s("leading.scan") * 1e9,
                                          instructions),
        "leading.rows": instructions,
        "leading.end_kernel_s": self_s("leading.end_kernel"),
        "rmt.gate_s": self_s("rmt.gate"),
        "rmt.backpressure_commits": counters.get("rmt.backpressure_commits", 0),
        "checker.consume_s": self_s("checker.consume_window",
                                    "checker.consume_op"),
        "checker.rows": checked,
        "checker.scalar_rows": checked
        - counters.get("rmt.consume_window_rows", 0),
        "thermal.factorize_s": self_s("thermal.factorize"),
        "thermal.factorizations": calls("thermal.factorize"),
        "thermal.solve_s": self_s("thermal.solve"),
        "thermal.solves": calls("thermal.solve"),
        "thermal.map_s": self_s("thermal.map"),
        "floorplan.build_s": self_s("floorplan.build"),
        "runner.task_self_s": self_s("runner.task"),
        "engine.overhead_s": overhead_s,
        "engine.efficiency": _ratio(task_s, jobs_wall_s),
        "engine.retries": sum(t.retries for t in engine_sweeps),
        "ledger.host_s": host_s,
        "ledger.unattributed_s": host_s - attributed,
        "ledger.coverage": _ratio(attributed, host_s),
        "tracing.overhead_frac": overhead_frac,
    }
    for name in ("trace", "schedule", "branch", "preload", "grid"):
        metrics[f"memo.{name}.hit_ratio"] = memo_stats[name].hit_rate
    for layer, seconds in layers.items():
        metrics[f"layer.{layer}.self_s"] = seconds
    return {name: float(metrics[name]) for name, _u, _b in PER_LAYER_METRICS}
