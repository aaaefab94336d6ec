"""Combined bimodal / 2-level branch predictor with BTB (Table 1).

The leading core uses this predictor; the trailing checker core instead
receives perfect branch outcomes through the branch outcome queue (BOQ).
"""

from __future__ import annotations

import numpy as np

from repro.common.config import BranchPredictorConfig
from repro.common.errors import ConfigError, SimulationError
from repro.common.stats import StatGroup

__all__ = ["BranchPredictor", "BranchStream", "BranchStreamView"]

_TAKEN_THRESHOLD = 2  # 2-bit counters: 0,1 predict not-taken; 2,3 taken
#: Branch pcs and targets lie in ``[0, ADDRESS_LIMIT)``: the BTB stores
#: them as uint32.
ADDRESS_LIMIT = 1 << 32
# The predictor's state arrays, which :meth:`BranchPredictor.clone` copies.
_TABLES = ("_bimodal", "_pht", "_chooser",
           "_btb_tags", "_btb_targets", "_btb_fill")


class BranchPredictor:
    """McFarling-style combined predictor: bimodal + gshare-like 2-level.

    A chooser table of 2-bit counters selects, per branch, whichever
    component has been more accurate.  A branch-target buffer provides
    targets for predicted-taken branches; a BTB miss on a taken branch is
    counted as a misprediction (the front end cannot redirect).

    State lives in NumPy arrays allocated here: int8 2-bit counters
    (``_bimodal``, ``_pht``, ``_chooser``), and the BTB as uint32
    ``_btb_tags``/``_btb_targets`` of shape ``[btb_sets, btb_ways]``, set
    ``s``'s row being its first ``_btb_fill[s]`` (int8) entries in LRU
    order, oldest first; the global history is the int ``_history``.
    :meth:`update_window` (the compiled ``branch_update`` in
    ``_kernel.c``) and the per-branch :meth:`update`, its oracle, read and
    write the same arrays.
    """

    def __init__(self, config: BranchPredictorConfig | None = None, name: str = "bpred"):
        self.config = config or BranchPredictorConfig()
        cfg = self.config
        if cfg.btb_sets < 1 or not 1 <= cfg.btb_ways <= np.iinfo(np.int8).max:
            raise ConfigError(
                "the BTB needs btb_sets >= 1 and 1 to 127 btb_ways, got "
                f"{cfg.btb_sets}x{cfg.btb_ways}"
            )
        self._bimodal = np.ones(cfg.bimodal_entries, dtype=np.int8)
        self._pht = np.ones(cfg.level2_entries, dtype=np.int8)
        # Start slightly favouring bimodal.
        self._chooser = np.ones(cfg.bimodal_entries, dtype=np.int8)
        self._history = 0
        self._history_mask = (1 << cfg.history_bits) - 1
        btb = (cfg.btb_sets, cfg.btb_ways)
        self._btb_tags = np.zeros(btb, dtype=np.uint32)
        self._btb_targets = np.zeros(btb, dtype=np.uint32)
        self._btb_fill = np.zeros(cfg.btb_sets, dtype=np.int8)
        # Flat views: the per-branch path reads and writes Python ints.
        self._b, self._p, self._c, self._t, self._g, self._f = (
            memoryview(getattr(self, name).reshape(-1)) for name in _TABLES
        )
        self._native = None  # a _native.BranchUpdate once the kernel loads
        self.stats = StatGroup(name)
        self._lookups = self.stats.counter("lookups")
        self._mispredicts = self.stats.counter("mispredicts")

    # ------------------------------------------------------------------
    def _bimodal_index(self, pc: int) -> int:
        return (pc >> 2) % self.config.bimodal_entries

    def _pht_index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) % self.config.level2_entries

    def _btb_set(self, pc: int) -> int:
        return (pc >> 2) % self.config.btb_sets

    def _btb_way(self, s: int, pc: int) -> int:
        """The way of BTB set ``s`` holding ``pc``, or -1."""
        start = s * self.config.btb_ways
        tags = self._t[start:start + self._f[s]].tolist()
        return tags.index(pc) if pc in tags else -1

    # ------------------------------------------------------------------
    def predict(self, pc: int) -> tuple[bool, int | None]:
        """Predict (direction, target) for the branch at ``pc``.

        ``target`` is None on a BTB miss.  Does not update any state; call
        :meth:`update` with the actual outcome afterwards.
        """
        bi = self._bimodal_index(pc)
        bimodal_taken = self._b[bi] >= _TAKEN_THRESHOLD
        pht_taken = self._p[self._pht_index(pc)] >= _TAKEN_THRESHOLD
        use_pht = self._c[bi] >= _TAKEN_THRESHOLD
        taken = pht_taken if use_pht else bimodal_taken
        target = None
        if taken:
            s = self._btb_set(pc)
            way = self._btb_way(s, pc)
            if way >= 0:
                target = self._g[s * self.config.btb_ways + way]
        return taken, target

    def update(self, pc: int, taken: bool, target: int) -> bool:
        """Record the real outcome; returns True if it was mispredicted.

        A misprediction is a wrong direction, or a taken branch whose
        target was absent from the BTB.  ``pc`` and ``target`` must lie in
        ``[0, ADDRESS_LIMIT)``.
        """
        if not (0 <= pc < ADDRESS_LIMIT and 0 <= target < ADDRESS_LIMIT):
            raise SimulationError(
                f"branch pc {pc} and target {target} must lie in "
                f"[0, {ADDRESS_LIMIT})"
            )
        self._lookups.increment()
        predicted_taken, predicted_target = self.predict(pc)
        mispredicted = predicted_taken != taken or (
            taken and predicted_target != target
        )
        if mispredicted:
            self._mispredicts.increment()

        bi = self._bimodal_index(pc)
        ph = self._pht_index(pc)
        bimodal, pht = self._b, self._p
        bimodal_correct = (bimodal[bi] >= _TAKEN_THRESHOLD) == taken
        pht_correct = (pht[ph] >= _TAKEN_THRESHOLD) == taken
        if pht_correct != bimodal_correct:
            self._c[bi] = _saturate(self._c[bi], pht_correct)
        bimodal[bi] = _saturate(bimodal[bi], taken)
        pht[ph] = _saturate(pht[ph], taken)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

        if taken:
            # Move or add the entry at the MRU end; a full row drops its
            # oldest entry.
            s = self._btb_set(pc)
            start = s * self.config.btb_ways
            fill = self._f[s]
            way = self._btb_way(s, pc)
            if way >= 0 or fill == self.config.btb_ways:
                drop, end = start + max(way, 0), start + fill
                for column in (self._t, self._g):
                    column[drop:end - 1] = column[drop + 1:end]
                fill -= 1
            self._t[start + fill] = pc
            self._g[start + fill] = target
            self._f[s] = fill + 1
        return mispredicted

    def update_window(self, pcs, takens, targets) -> np.ndarray:
        """Resolve a window of branches in trace order; returns their
        mispredict flags as a bool array.

        Batch form of :meth:`update`: one call of the compiled
        ``branch_update`` on this predictor's own tables, after which the
        window's lookups and mispredicts are added to the counters.  The
        columns are converted to int64 pcs and targets and bool outcomes;
        every pc and target must lie in ``[0, ADDRESS_LIMIT)``, checked
        before any branch is resolved.  Without the kernel this runs
        :meth:`update` per branch; state and flags end identical.
        """
        pcs = np.ascontiguousarray(pcs, dtype=np.int64)
        takens = np.ascontiguousarray(takens, dtype=bool)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        if not len(pcs) == len(takens) == len(targets):
            raise SimulationError(
                "a branch window needs one outcome and target per pc"
            )
        for column, what in ((pcs, "pc"), (targets, "target")):
            if len(column) and (
                column.min() < 0 or column.max() >= ADDRESS_LIMIT
            ):
                raise SimulationError(
                    f"branch {what}s must lie in [0, {ADDRESS_LIMIT})"
                )
        if self._native is None:
            from repro.core import _native

            lib = _native.load()
            if lib is None:
                return self._update_window_reference(pcs, takens, targets)
            self._native = _native.BranchUpdate(lib, self)
        flags = np.empty(len(pcs), dtype=bool)
        self._history, mispredicts = self._native(
            self._history, pcs, takens, targets, flags
        )
        self._lookups.increment(len(pcs))
        self._mispredicts.increment(mispredicts)
        return flags

    def _update_window_reference(self, pcs, takens, targets) -> np.ndarray:
        """The per-branch oracle of :meth:`update_window`."""
        update = self.update
        return np.array(
            [
                update(pc, taken, target) for pc, taken, target in zip(
                    pcs.tolist(), takens.tolist(), targets.tolist()
                )
            ],
            dtype=bool,
        )

    def clone(self) -> "BranchPredictor":
        """An independent copy with identical tables, history, and stats.

        Lets a pretrained predictor be cached and handed out repeatedly
        (see :mod:`repro.common.memo`): the clone behaves exactly like the
        original from this state on, but updates to either never affect
        the other.
        """
        other = BranchPredictor(self.config, name=self.stats.name)
        for name in _TABLES:
            np.copyto(getattr(other, name), getattr(self, name))
        other._history = self._history
        other._lookups.value = self._lookups.value
        other._mispredicts.value = self._mispredicts.value
        return other

    # ------------------------------------------------------------------
    @property
    def lookups(self) -> int:
        """Number of resolved branches."""
        return self._lookups.value

    @property
    def mispredicts(self) -> int:
        """Number of mispredictions."""
        return self._mispredicts.value

    @property
    def misprediction_rate(self) -> float:
        """Fraction of branches mispredicted (0.0 if none resolved)."""
        total = self._lookups.value
        return self._mispredicts.value / total if total else 0.0


class BranchStream:
    """Memoized resolution of one predictor over one branch stream.

    For a fixed ``(workload, seed)`` the branch sequence reaching the
    predictor is identical in every simulation, so the misprediction
    flags — and the lookup/mispredict counts at any prefix — are a pure
    function of the prefix length.  The stream owns one real
    :class:`BranchPredictor` (typically a pretrained clone), replays each
    branch through it exactly once on first demand, and records the
    flags (a read-only bool array); :meth:`view` hands out cheap cursors
    that consume the memoized prefix instead of cloning and re-updating
    16K-entry tables per simulation.  Bit-identical to the clone-per-sim
    pattern by construction: the flags come from the same
    :meth:`BranchPredictor.update_window` calls a clone would make.
    """

    __slots__ = ("predictor", "flags", "cum_mispredicts",
                 "base_lookups", "base_mispredicts")

    def __init__(self, predictor: BranchPredictor):
        self.predictor = predictor
        self.flags = np.zeros(0, dtype=bool)
        # cum_mispredicts[i] = mispredicts among the first i flags.
        self.cum_mispredicts = np.zeros(1, dtype=np.int64)
        self.base_lookups = predictor.lookups
        self.base_mispredicts = predictor.mispredicts

    def view(self) -> "BranchStreamView":
        """A fresh cursor positioned at the start of the stream."""
        return BranchStreamView(self)

    def extend(self, pcs, takens, targets) -> None:
        """Resolve further branches (those past the memoized prefix)."""
        new = self.predictor.update_window(pcs, takens, targets)
        self.flags = np.concatenate([self.flags, new])
        self.flags.flags.writeable = False
        cum = self.cum_mispredicts
        self.cum_mispredicts = np.concatenate(
            [cum, cum[-1] + np.cumsum(new, dtype=np.int64)]
        )


class BranchStreamView:
    """One simulation's read cursor over a :class:`BranchStream`.

    Duck-types the slice of the :class:`BranchPredictor` interface the
    leading core's window prepass uses — ``config``, ``update_window``,
    and the ``lookups`` / ``mispredicts`` counters — while sharing the
    underlying memoized stream.  ``update_window`` requires the caller
    to present the stream's branches *in order* (which the trace-ordered
    prepass does by construction).  Deliberately does *not* expose
    ``predict`` or the per-branch ``update``: a caller needing free-form
    probes must take a real clone, since mutating the shared predictor
    out of stream order would corrupt every other view.
    """

    __slots__ = ("_stream", "_cursor")

    def __init__(self, stream: BranchStream):
        self._stream = stream
        self._cursor = 0

    @property
    def config(self) -> BranchPredictorConfig:
        """The underlying predictor's configuration."""
        return self._stream.predictor.config

    def update_window(self, pcs, takens, targets) -> memoryview:
        """The next window's mispredict flags, memoized stream-wide: a
        read-only memoryview slice of the stream's bool flags, so NumPy
        reads it in place while iteration (and builtin ``sum``) yields
        Python bools.

        Every view must present the stream's branches in order (windows
        may be sliced differently between views); only the not-yet-seen
        suffix reaches the real predictor.
        """
        stream = self._stream
        cursor = self._cursor
        count = len(pcs)
        resolved = len(stream.flags)
        if cursor + count > resolved:
            skip = resolved - cursor  # head of this window already known
            stream.extend(pcs[skip:], takens[skip:], targets[skip:])
        self._cursor = cursor + count
        return memoryview(stream.flags)[cursor:self._cursor]

    @property
    def lookups(self) -> int:
        """Resolved branches, as the equivalent clone would count them."""
        return self._stream.base_lookups + self._cursor

    @property
    def mispredicts(self) -> int:
        """Mispredictions, as the equivalent clone would count them."""
        return self._stream.base_mispredicts + int(
            self._stream.cum_mispredicts[self._cursor]
        )

    @property
    def misprediction_rate(self) -> float:
        """Fraction of branches mispredicted (0.0 if none resolved)."""
        total = self.lookups
        return self.mispredicts / total if total else 0.0


def _saturate(counter: int, up: bool) -> int:
    if up:
        return min(3, counter + 1)
    return max(0, counter - 1)
