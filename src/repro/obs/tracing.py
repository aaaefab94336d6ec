"""Nested span timers building a per-task span tree.

A span brackets one phase of work::

    with span("thermal.solve"):
        rise = self._rise(power, self._factors)

Spans nest: entering a span while another is open makes it a child, so a
task accumulates a tree whose structure mirrors the call structure of its
hot paths.  Each node records how many times the span ran and its summed
wall and CPU time.  Aggregation is by name — re-entering ``"sim.trace"``
under the same parent accumulates into the same node rather than growing
the tree, which keeps the footprint bounded no matter how hot the loop.

The collector keeps a stack of *roots* so the experiment engine can give
every task its own tree: :func:`push_root` before the task,
:func:`pop_root` after, and the returned tree travels back to the parent
process inside the task's :class:`~repro.obs.metrics.MetricsSnapshot`.
Trees are exchanged as plain nested dicts (JSON- and pickle-friendly) and
merged with :func:`merge_span_dicts` — counts and times sum, children
merge by name — so a parallel sweep's merged tree matches the serial
sweep's in structure and counts exactly (only the timings differ).
:func:`span_self_times` reads a merged tree as a ledger: each span's
time not spent in its children, plus the task time outside every span.

``REPRO_OBS=off`` turns :func:`span` into a shared no-op context manager
(see :mod:`repro.obs.metrics` for the switch).
"""

from __future__ import annotations

import os
import time

__all__ = [
    "SpanNode",
    "span",
    "push_root",
    "pop_root",
    "current_tree",
    "reset",
    "merge_span_dicts",
    "span_structure",
    "flatten_spans",
    "span_self_times",
    "UNATTRIBUTED",
]

#: The :func:`span_self_times` row for task time outside every span.
UNATTRIBUTED = "(unattributed)"


def _env_enabled() -> bool:
    raw = os.environ.get("REPRO_OBS", "").strip().lower()
    return raw not in ("off", "0", "false", "no", "disabled")


_ENABLED = _env_enabled()


def set_enabled(flag: bool) -> None:
    """Turn span collection on/off (normally driven by ``REPRO_OBS``)."""
    global _ENABLED
    _ENABLED = bool(flag)


def enabled() -> bool:
    """Whether spans are being collected in this process."""
    return _ENABLED


class SpanNode:
    """One aggregated span: entry count, summed times, children by name."""

    __slots__ = ("name", "count", "wall_s", "cpu_s", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.children: dict[str, SpanNode] = {}

    def child(self, name: str) -> "SpanNode":
        """The child span called ``name``, created on first use."""
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node

    def to_dict(self) -> dict:
        """The subtree as a plain nested dict (picklable, JSON-ready)."""
        return {
            "name": self.name,
            "count": self.count,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "children": {k: v.to_dict() for k, v in self.children.items()},
        }

    def __repr__(self) -> str:
        return (
            f"SpanNode({self.name!r}, count={self.count}, "
            f"wall={self.wall_s:.4f}s, children={len(self.children)})"
        )


class _Span:
    """Context manager for one (possibly re-entered) span."""

    __slots__ = ("name", "_node", "_wall0", "_cpu0")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        stack = _FRAMES[-1]
        node = stack[-1].child(self.name)
        stack.append(node)
        self._node = node
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb):
        node = self._node
        node.count += 1
        node.wall_s += time.perf_counter() - self._wall0
        node.cpu_s += time.process_time() - self._cpu0
        stack = _FRAMES[-1]
        if stack and stack[-1] is node:
            stack.pop()
        return False


class _NullSpan:
    """Shared no-op span used when observability is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()

# Stack of frames; each frame is a span stack rooted at its own tree.
# Frame 0 is the process-level root; the engine pushes one frame per task.
_FRAMES: list[list[SpanNode]] = [[SpanNode("root")]]


def span(name: str) -> _Span | _NullSpan:
    """A context manager timing the named span (no-op when obs is off)."""
    if not _ENABLED:
        return _NULL_SPAN
    return _Span(name)


def push_root() -> None:
    """Start a fresh span tree (the engine calls this per task)."""
    _FRAMES.append([SpanNode("task")])


def pop_root() -> SpanNode:
    """Finish the innermost tree pushed by :func:`push_root`."""
    if len(_FRAMES) == 1:
        raise RuntimeError("pop_root() without a matching push_root()")
    return _FRAMES.pop()[0]


def frame_depth() -> int:
    """How many roots are live (1 = just the process root)."""
    return len(_FRAMES)


def current_tree() -> SpanNode:
    """The root of the innermost live span tree."""
    return _FRAMES[-1][0]


def reset() -> None:
    """Drop every recorded span and any task frames."""
    del _FRAMES[:]
    _FRAMES.append([SpanNode("root")])


# ---------------------------------------------------------------------
def merge_span_dicts(a: dict | None, b: dict | None) -> dict | None:
    """Merge two span-tree dicts: counts/times sum, children by name."""
    if a is None:
        return None if b is None else _copy_tree(b)
    if b is None:
        return _copy_tree(a)
    merged = {
        "name": a["name"],
        "count": a["count"] + b["count"],
        "wall_s": a["wall_s"] + b["wall_s"],
        "cpu_s": a["cpu_s"] + b["cpu_s"],
        "children": {},
    }
    names = list(a["children"])
    names += [n for n in b["children"] if n not in a["children"]]
    for name in names:
        merged["children"][name] = merge_span_dicts(
            a["children"].get(name), b["children"].get(name)
        )
    return merged


def _copy_tree(tree: dict) -> dict:
    return {
        "name": tree["name"],
        "count": tree["count"],
        "wall_s": tree["wall_s"],
        "cpu_s": tree["cpu_s"],
        "children": {k: _copy_tree(v) for k, v in tree["children"].items()},
    }


def span_structure(tree: dict | None) -> dict | None:
    """The tree reduced to names and counts (timings stripped).

    Two sweeps that executed the same work produce equal structures even
    though their wall/CPU times differ — the determinism tests compare
    these.
    """
    if tree is None:
        return None
    return {
        "name": tree["name"],
        "count": tree["count"],
        "children": {
            k: span_structure(v) for k, v in sorted(tree["children"].items())
        },
    }


def flatten_spans(
    tree: dict | None, prefix: str = ""
) -> list[tuple[str, int, float, float]]:
    """Depth-first ``(path, count, wall_s, cpu_s)`` rows for reporting.

    The root node itself is skipped (it is an anonymous container).
    """
    if tree is None:
        return []
    rows: list[tuple[str, int, float, float]] = []
    for name, child in sorted(tree["children"].items()):
        path = f"{prefix}{name}"
        rows.append((path, child["count"], child["wall_s"], child["cpu_s"]))
        rows.extend(flatten_spans(child, prefix=path + "."))
    return rows


def span_self_times(tree: dict | None, task_wall_s: float) -> dict[str, float]:
    """Span path -> self time, depth-first: where the task time went.

    A span's self time is its wall time minus its children's, so every
    second inside a span counts once, at the innermost span that ran
    it.  Paths follow :func:`flatten_spans`; a last :data:`UNATTRIBUTED`
    entry holds ``task_wall_s`` (the summed task wall time the tree was
    recorded in) minus the top-level spans, so the values sum to
    ``task_wall_s``.
    """
    table: dict[str, float] = {}
    covered = 0.0
    if tree is not None:
        _add_self_times(tree, "", table)
        covered = sum(c["wall_s"] for c in tree["children"].values())
    table[UNATTRIBUTED] = task_wall_s - covered
    return table


def _add_self_times(node: dict, prefix: str, table: dict) -> None:
    for name, child in sorted(node["children"].items()):
        path = f"{prefix}{name}"
        inner = sum(c["wall_s"] for c in child["children"].values())
        table[path] = child["wall_s"] - inner
        _add_self_times(child, path + ".", table)
