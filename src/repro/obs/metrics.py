"""Process-local metrics registry: counters, gauges, bucket histograms.

Designed for simulator inner loops: every instrument is a tiny
``__slots__`` object doing a plain attribute update — no locks (each
process owns its registry), no string formatting, no time lookups.
Components fetch instruments once (``m.counter("rmt.backpressure")``)
and update them directly, or publish totals once per simulation.

Three primitives:

* :class:`Counter` — monotone event count (merge: **sum**);
* :class:`Gauge` — last-set level (merge: **max**, the only
  order-independent choice, which is what keeps parallel == serial);
* :class:`BucketHistogram` — counts over fixed upper-edge buckets plus
  an overflow bucket (merge: **bucket-wise sum**; edges must match).

:meth:`MetricsRegistry.snapshot` freezes everything into a
:class:`MetricsSnapshot` — a plain picklable dataclass that crosses the
process boundary and merges deterministically (same multiset of task
snapshots ⇒ same merged snapshot, whatever the completion order).  The
experiment engine brackets every task with :meth:`begin_task` /
:meth:`end_task`, which also gives the task its own span tree
(:mod:`repro.obs.tracing`) and returns only the task's *delta*, so
pre-existing process state never leaks into a sweep's metrics.  The
engine discards the delta of a *failed* task and keeps its resume
accounting (restored tasks, dropped duplicates) in ``SweepTiming``
fields rather than in counters here — merged snapshots must stay
bit-identical between a resumed sweep and an undisturbed one.

Setting ``REPRO_OBS=off`` (or ``0``/``false``/``no``) in the environment
makes every instrument a shared no-op object; worker processes inherit
the setting.  ``benchmarks/bench_obs_overhead.py`` holds the resulting
overhead budget honest.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.obs import tracing

__all__ = [
    "OBS_ENV_VAR",
    "Counter",
    "Gauge",
    "BucketHistogram",
    "MetricsSnapshot",
    "MetricsRegistry",
    "get_registry",
    "enabled",
    "set_enabled",
    "reset",
    "merge_snapshots",
    "FRACTION_EDGES",
]

OBS_ENV_VAR = "REPRO_OBS"

# Shared decile edges for metrics that are fractions in [0, 1] (queue
# occupancy, DFS frequency levels).  Fixed edges mean every simulation
# feeds the same histogram, whatever its configuration.
FRACTION_EDGES = tuple((i + 1) / 10 for i in range(10))


class Counter:
    """Monotone event counter (merge across snapshots: sum)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` events."""
        self.value += amount


class Gauge:
    """Last-set level (merge across snapshots: max)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value


class BucketHistogram:
    """Counts over fixed, ascending upper-edge buckets plus overflow.

    ``observe(x)`` lands in the first bucket whose edge is >= ``x``;
    anything above the last edge lands in the overflow bucket.
    """

    __slots__ = ("edges", "counts")

    def __init__(self, edges: tuple[float, ...]):
        if not edges or list(edges) != sorted(edges):
            raise ValueError("histogram edges must be ascending and non-empty")
        self.edges = tuple(edges)
        self.counts = [0] * (len(self.edges) + 1)

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` occurrences of ``value``."""
        self.counts[bisect_left(self.edges, value)] += count

    @property
    def total(self) -> int:
        """Total recorded occurrences."""
        return sum(self.counts)


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for ``REPRO_OBS=off``."""

    __slots__ = ()
    value = 0
    edges: tuple[float, ...] = ()
    counts: list[int] = []
    total = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, count: int = 1) -> None:
        pass


_NULL = _NullInstrument()


# ---------------------------------------------------------------------
@dataclass
class MetricsSnapshot:
    """A frozen, mergeable, picklable view of a registry (or a delta)."""

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, tuple[tuple[float, ...], tuple[int, ...]]] = field(
        default_factory=dict
    )
    spans: dict | None = None

    @property
    def empty(self) -> bool:
        """True when nothing was recorded."""
        return not (self.counters or self.gauges or self.histograms or self.spans)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """This snapshot combined with ``other`` (both unchanged).

        Counters sum, gauges take the max, histograms add bucket-wise
        (edges must agree), span trees merge by name.  The operation is
        commutative and associative, so merging a set of per-task
        snapshots yields the same result in any order — the property the
        parallel == serial metric tests assert.
        """
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges[name], value) if name in gauges else value
        histograms = dict(self.histograms)
        for name, (edges, counts) in other.histograms.items():
            if name in histograms:
                mine_edges, mine_counts = histograms[name]
                if mine_edges != edges:
                    raise ValueError(
                        f"histogram {name!r}: mismatched edges "
                        f"{mine_edges} vs {edges}"
                    )
                histograms[name] = (
                    edges,
                    tuple(a + b for a, b in zip(mine_counts, counts)),
                )
            else:
                histograms[name] = (edges, counts)
        return MetricsSnapshot(
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            spans=tracing.merge_span_dicts(self.spans, other.spans),
        )

    def as_dict(self) -> dict:
        """JSON-ready form (sorted keys, histograms as edge/count lists)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                name: {"edges": list(edges), "counts": list(counts)}
                for name, (edges, counts) in sorted(self.histograms.items())
            },
            "spans": self.spans,
        }


def merge_snapshots(snapshots) -> MetricsSnapshot:
    """Merge an iterable of snapshots into one (empty when none)."""
    merged = MetricsSnapshot()
    for snap in snapshots:
        if snap is not None:
            merged = merged.merge(snap)
    return merged


# ---------------------------------------------------------------------
@dataclass
class _TaskMark:
    """Baseline captured by :meth:`MetricsRegistry.begin_task`."""

    counters: dict[str, int]
    gauges: dict[str, float]
    histograms: dict[str, tuple[int, ...]]
    frame_depth: int


class MetricsRegistry:
    """The per-process home of every counter, gauge, and histogram."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, BucketHistogram] = {}

    # -- instrument access --------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (a shared no-op when disabled)."""
        if not self.enabled:
            return _NULL
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (a shared no-op when disabled)."""
        if not self.enabled:
            return _NULL
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str, edges: tuple[float, ...]) -> BucketHistogram:
        """The histogram called ``name`` (edges fixed at first creation)."""
        if not self.enabled:
            return _NULL
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = BucketHistogram(edges)
        elif h.edges != tuple(edges):
            raise ValueError(
                f"histogram {name!r} already registered with edges {h.edges}"
            )
        return h

    # -- snapshots -----------------------------------------------------
    def snapshot(self, spans: bool = True) -> MetricsSnapshot:
        """Freeze the registry's current totals (and the live span tree)."""
        return MetricsSnapshot(
            counters={k: c.value for k, c in self._counters.items()},
            gauges={k: g.value for k, g in self._gauges.items()},
            histograms={
                k: (h.edges, tuple(h.counts))
                for k, h in self._histograms.items()
            },
            spans=tracing.current_tree().to_dict() if spans else None,
        )

    def reset(self) -> None:
        """Drop every instrument and all recorded spans."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        tracing.reset()

    # -- task scoping (the engine's per-task delta capture) ------------
    def begin_task(self) -> _TaskMark | None:
        """Mark the start of a task; pair with :meth:`end_task`.

        Pushes a fresh span-tree root so the task's spans are isolated,
        and records instrument baselines so :meth:`end_task` can return
        only the task's delta.  Returns ``None`` when disabled.
        """
        if not self.enabled:
            return None
        tracing.push_root()
        return _TaskMark(
            counters={k: c.value for k, c in self._counters.items()},
            gauges={k: g.value for k, g in self._gauges.items()},
            histograms={
                k: tuple(h.counts) for k, h in self._histograms.items()
            },
            frame_depth=tracing.frame_depth(),
        )

    def end_task(self, mark: _TaskMark | None) -> MetricsSnapshot:
        """The delta since ``mark``: new activity only, zeros dropped."""
        if mark is None or not self.enabled:
            return MetricsSnapshot()
        spans = None
        # Unwind to the frame begin_task pushed (exceptions inside the
        # task may have left deeper task frames unpopped).
        while tracing.frame_depth() > mark.frame_depth:
            tracing.pop_root()
        if tracing.frame_depth() == mark.frame_depth:
            tree = tracing.pop_root()
            spans = tree.to_dict() if tree.children else None
        counters = {}
        for name, c in self._counters.items():
            delta = c.value - mark.counters.get(name, 0)
            if delta:
                counters[name] = delta
        gauges = {}
        for name, g in self._gauges.items():
            if name not in mark.gauges or g.value != mark.gauges[name]:
                gauges[name] = g.value
        histograms = {}
        for name, h in self._histograms.items():
            base = mark.histograms.get(name, (0,) * len(h.counts))
            delta = tuple(c - b for c, b in zip(h.counts, base))
            if any(delta):
                histograms[name] = (h.edges, delta)
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms, spans=spans
        )


# ---------------------------------------------------------------------
_REGISTRY = MetricsRegistry(enabled=tracing.enabled())


def get_registry() -> MetricsRegistry:
    """This process's metrics registry."""
    return _REGISTRY


def enabled() -> bool:
    """Whether observability is on (``REPRO_OBS`` is not ``off``)."""
    return _REGISTRY.enabled


def set_enabled(flag: bool) -> None:
    """Toggle observability at runtime (tests; prefer ``REPRO_OBS=off``).

    Instruments fetched while disabled are shared no-ops and stay inert;
    components built afterwards pick up live instruments.
    """
    _REGISTRY.enabled = bool(flag)
    tracing.set_enabled(flag)


def reset() -> None:
    """Clear every metric and span recorded in this process."""
    _REGISTRY.reset()
