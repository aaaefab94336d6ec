"""Keyed memoization of immutable simulation artifacts.

``runner._prepare`` historically re-ran trace generation, cache
preloading, and predictor pretraining for every single simulation, even
when the ``(profile, seed, window)`` key was identical across a sweep's
inner loop (``fig6_performance`` regenerates the same trace four times
per benchmark).  This module caches the artifacts that are safe to
share and rebuilds the ones that are not:

* **traces** — stored columnar (:class:`~repro.isa.soa.TraceArrays`,
  frozen read-only), so one generated stream is shared, shorter windows
  are zero-copy slices, and pickling across the process pool ships nine
  arrays instead of thousands of objects.  The generator is kept alive
  per ``(profile, seed)`` so a longer request extends the existing
  stream instead of starting over (chunked generation makes prefixes
  stable).
* **pretrained branch predictors** — pretraining replays thousands of
  outcomes through pure-Python tables; the cache trains once and hands
  out :meth:`~repro.core.branch.BranchPredictor.clone` copies, because
  predictors mutate during simulation.
* **thermal models** — :class:`~repro.thermal.hotspot.ChipThermalModel`
  factorises its grid solver at construction.  Factorisation depends
  only on geometry (stack, die size, block rectangles), never on power,
  so models are cached by geometry key and re-solved per power
  assignment; the inner :class:`~repro.thermal.grid.GridThermalModel` is
  additionally shared between floorplans with identical stacks.

Mutable per-run state — ``MemoryHierarchy``, queue occupancy, DFS
controllers — is deliberately *not* cached: it is rebuilt for every
simulation, which is what keeps parallel and serial sweeps bit-identical.
Cache warm state needs no memo either: a preload stores a profile's
resident line runs and each set's row follows from them in closed form
(``MemoryHierarchy.preload_profile``).

Caches are process-local.  Parallel workers each build their own (the
engine's chunked submission keeps one benchmark's tasks on one worker so
the warm cache gets hits).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.obs.metrics import get_registry
from repro.workloads.profiles import WorkloadProfile

__all__ = ["MemoStats", "ArtifactCache", "get_cache", "clear_cache"]

# Traces dominate the cache's footprint (hundreds of bytes per dynamic
# instruction), so only the most recently used streams are kept.  The
# sweep drivers iterate benchmark-major, which makes even a small LRU
# window hit on every inner-loop re-request.
_TRACE_LRU_ENTRIES = 4


@dataclass
class MemoStats:
    """Hit/miss counts for one artifact category."""

    hits: int = 0
    misses: int = 0

    @property
    def requests(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0


@dataclass
class _TraceEntry:
    generator: object
    arrays: object = None  # TraceArrays; grown by prefix-stable extension


class ArtifactCache:
    """Process-local cache of reusable simulation artifacts."""

    def __init__(self, max_trace_entries: int = _TRACE_LRU_ENTRIES):
        self._max_trace_entries = max_trace_entries
        self._traces: OrderedDict[tuple, _TraceEntry] = OrderedDict()
        self._predictors: dict[tuple, object] = {}
        self._thermal_models: dict[tuple, object] = {}
        self._grids: dict[tuple, object] = {}
        self._schedules: dict[tuple, tuple[int, object]] = {}
        self._branch_streams: dict[tuple, object] = {}
        self.stats: dict[str, MemoStats] = {
            "trace": MemoStats(),
            "predictor": MemoStats(),
            "thermal": MemoStats(),
            "grid": MemoStats(),
            "preload": MemoStats(),
            "schedule": MemoStats(),
            "branch": MemoStats(),
        }

    def _record(self, category: str, hit: bool) -> None:
        """Count one lookup, mirrored into the process metrics registry."""
        stats = self.stats[category]
        if hit:
            stats.hits += 1
            get_registry().counter(f"memo.{category}.hits").inc()
        else:
            stats.misses += 1
            get_registry().counter(f"memo.{category}.misses").inc()

    def clear(self) -> None:
        """Drop every cached artifact and reset the statistics."""
        self._traces.clear()
        self._predictors.clear()
        self._thermal_models.clear()
        self._grids.clear()
        self._schedules.clear()
        self._branch_streams.clear()
        for stats in self.stats.values():
            stats.hits = 0
            stats.misses = 0

    # -- traces --------------------------------------------------------
    def trace_arrays(self, profile: WorkloadProfile, seed: int, count: int):
        """The first ``count`` instructions of ``(profile, seed)``'s stream
        as a frozen (read-only) :class:`~repro.isa.soa.TraceArrays`.

        The columnar form is what the cache stores: extension for a longer
        request is an array concat (chunked generation keeps prefixes
        identical to a fresh ``generate_arrays(count)``), shorter requests
        are zero-copy slices, and the frozen flag guarantees no consumer
        can corrupt the shared stream.
        """
        from repro.isa.soa import TraceArrays
        from repro.isa.trace import TraceGenerator

        key = (profile, seed)
        entry = self._traces.get(key)
        if entry is None:
            entry = _TraceEntry(
                generator=TraceGenerator(profile, seed=seed),
                arrays=TraceArrays.empty(),
            )
            self._traces[key] = entry
            if len(self._traces) > self._max_trace_entries:
                self._traces.popitem(last=False)
        self._traces.move_to_end(key)
        if len(entry.arrays) >= count:
            self._record("trace", hit=True)
        else:
            self._record("trace", hit=False)
            extension = entry.generator.generate_arrays(
                count - len(entry.arrays)
            )
            entry.arrays = TraceArrays.concat(
                [entry.arrays, extension]
            ).freeze()
        return entry.arrays[:count]

    # -- cache preload plans -------------------------------------------
    # No caller since preloads became closed-form; perfbench's ledger wraps it.
    def preload_plan(self, key: tuple, compute):
        """``compute()``, counted as a ``preload`` miss (nothing is kept)."""
        self._record("preload", hit=False)
        return compute()

    # -- trace schedules -----------------------------------------------
    def trace_schedule(self, profile: WorkloadProfile, seed: int,
                       count: int, config):
        """A :class:`~repro.core.leading.TraceSchedule` covering the
        first ``count`` rows of ``(profile, seed)``'s stream.

        Schedules are pure functions of the trace order and the queue
        geometry, and they are prefix-stable — a schedule built over a
        longer prefix is valid for any shorter run — so one entry per
        ``(stream, geometry)`` serves every simulation of that pair,
        rebuilt only when a longer window is requested.
        """
        from repro.core.leading import build_trace_schedule

        key = (
            profile, seed, config.rob_size, config.lsq_size,
            config.int_issue_queue_size, config.fp_issue_queue_size,
        )
        entry = self._schedules.get(key)
        if entry is not None and entry[0] >= count:
            self._record("schedule", hit=True)
            return entry[1]
        self._record("schedule", hit=False)
        schedule = build_trace_schedule(
            self.trace_arrays(profile, seed, count), config
        )
        self._schedules[key] = (count, schedule)
        return schedule

    # -- branch predictors ---------------------------------------------
    def branch_stream_view(self, profile: WorkloadProfile, seed: int):
        """A cursor over ``(profile, seed)``'s memoized branch stream.

        The first request pretrains a predictor (via
        :meth:`pretrained_predictor`, so the master cache is shared) and
        wraps it in a :class:`~repro.core.branch.BranchStream`; every
        request returns a fresh zero-cost
        :class:`~repro.core.branch.BranchStreamView`.  The view resolves
        branches through the shared stream, so K same-stream simulations
        replay the predictor once instead of cloning its tables K times.
        """
        from repro.core.branch import BranchStream

        key = (profile, seed)
        stream = self._branch_streams.get(key)
        if stream is None:
            self._record("branch", hit=False)
            stream = BranchStream(self.pretrained_predictor(profile, seed))
            self._branch_streams[key] = stream
        else:
            self._record("branch", hit=True)
        return stream.view()

    def pretrained_predictor(self, profile: WorkloadProfile, seed: int):
        """A freshly cloned, pretrained predictor for ``(profile, seed)``.

        The master copy is trained once and never simulated; every caller
        receives an independent clone, so one run's updates cannot leak
        into another.
        """
        from repro.core.branch import BranchPredictor
        from repro.isa.trace import TraceGenerator

        key = (profile, seed)
        master = self._predictors.get(key)
        if master is None:
            self._record("predictor", hit=False)
            master = BranchPredictor()
            TraceGenerator(profile, seed=seed).pretrain_predictor(master)
            self._predictors[key] = master
        else:
            self._record("predictor", hit=True)
        return master.clone()

    # -- thermal models ------------------------------------------------
    @staticmethod
    def _geometry_key(floorplan, config) -> tuple:
        blocks = tuple(
            (b.name, b.die, b.rect.x, b.rect.y, b.rect.width, b.rect.height)
            for b in floorplan.blocks
        )
        return (
            floorplan.num_dies,
            floorplan.die_width_mm,
            floorplan.die_height_mm,
            blocks,
            config,
        )

    def _grid_factory(self, **kwargs):
        """Build (or reuse) a grid solver keyed by its full geometry."""
        from repro.thermal.grid import GridThermalModel

        key = (
            tuple(kwargs["layers"]),
            kwargs["width_m"],
            kwargs["height_m"],
            kwargs["rows"],
            kwargs["cols"],
            kwargs["sink_r_k_mm2_per_w"],
            kwargs["secondary_r_k_mm2_per_w"],
            kwargs["ambient_c"],
        )
        grid = self._grids.get(key)
        if grid is None:
            self._record("grid", hit=False)
            grid = GridThermalModel(**kwargs)
            self._grids[key] = grid
        else:
            self._record("grid", hit=True)
        return grid

    def thermal_model(self, floorplan, config=None):
        """A :class:`ChipThermalModel` for ``floorplan``'s geometry.

        Cached by geometry, *not* power: callers must pass their block
        powers to ``solve`` (or use :meth:`solve_floorplan`).  The grid
        factorisation therefore happens once per stack geometry per
        process, however many power assignments are swept over it.
        """
        from repro.common.config import ThermalConfig
        from repro.thermal.hotspot import ChipThermalModel

        config = config or ThermalConfig()
        key = self._geometry_key(floorplan, config)
        model = self._thermal_models.get(key)
        if model is None:
            self._record("thermal", hit=False)
            model = ChipThermalModel(
                floorplan, config, grid_factory=self._grid_factory
            )
            self._thermal_models[key] = model
        else:
            self._record("thermal", hit=True)
        return model

    def solve_floorplan(self, floorplan, config=None, overrides=None):
        """Solve ``floorplan`` with its own powers on the cached model.

        Equivalent to ``ChipThermalModel(floorplan, config).solve(overrides)``
        but reuses the factorisation for any floorplan sharing the
        geometry; the power map (block powers and distributed wire power)
        is taken from the floorplan being solved, not the cached one, with
        ``overrides`` replacing individual block powers on top.
        """
        model = self.thermal_model(floorplan, config)
        powers = {b.name: b.power_w for b in floorplan.blocks}
        if overrides:
            powers.update(overrides)
        saved = model.floorplan.distributed_power_w
        model.floorplan.distributed_power_w = floorplan.distributed_power_w
        try:
            return model.solve(powers)
        finally:
            model.floorplan.distributed_power_w = saved


_GLOBAL_CACHE = ArtifactCache()


def get_cache() -> ArtifactCache:
    """This process's shared artifact cache."""
    return _GLOBAL_CACHE


def clear_cache() -> None:
    """Drop all artifacts from the process-wide cache."""
    _GLOBAL_CACHE.clear()
