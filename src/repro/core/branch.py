"""Combined bimodal / 2-level branch predictor with BTB (Table 1).

The leading core uses this predictor; the trailing checker core instead
receives perfect branch outcomes through the branch outcome queue (BOQ).
"""

from __future__ import annotations

from repro.common.config import BranchPredictorConfig
from repro.common.stats import StatGroup

__all__ = ["BranchPredictor", "BranchStream", "BranchStreamView"]

_TAKEN_THRESHOLD = 2  # 2-bit counters: 0,1 predict not-taken; 2,3 taken


class BranchPredictor:
    """McFarling-style combined predictor: bimodal + gshare-like 2-level.

    A chooser table of 2-bit counters selects, per branch, whichever
    component has been more accurate.  A branch-target buffer provides
    targets for predicted-taken branches; a BTB miss on a taken branch is
    counted as a misprediction (the front end cannot redirect).
    """

    def __init__(self, config: BranchPredictorConfig | None = None, name: str = "bpred"):
        self.config = config or BranchPredictorConfig()
        cfg = self.config
        self._bimodal = [1] * cfg.bimodal_entries
        self._pht = [1] * cfg.level2_entries
        self._chooser = [1] * cfg.bimodal_entries  # start slightly favouring bimodal
        self._history = 0
        self._history_mask = (1 << cfg.history_bits) - 1
        # BTB: tag store, sets x ways.  Stored sparsely (set index ->
        # resident ways) — a trace touches a few hundred of the 16K sets,
        # so the dict keeps :meth:`clone` proportional to the footprint
        # instead of the geometry.
        self._btb: dict[int, list[tuple[int, int]]] = {}
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

    # ------------------------------------------------------------------
    def predict(self, pc: int) -> tuple[bool, int | None]:
        """Predict (direction, target) for the branch at ``pc``.

        ``target`` is None on a BTB miss.  Does not update any state; call
        :meth:`update` with the actual outcome afterwards.
        """
        bimodal_taken = self._bimodal[self._bimodal_index(pc)] >= _TAKEN_THRESHOLD
        pht_taken = self._pht[self._pht_index(pc)] >= _TAKEN_THRESHOLD
        use_pht = self._chooser[self._bimodal_index(pc)] >= _TAKEN_THRESHOLD
        taken = pht_taken if use_pht else bimodal_taken
        target = None
        if taken:
            ways = self._btb.get(self._btb_set(pc))
            if ways:
                for tag, tgt in ways:
                    if tag == pc:
                        target = tgt
                        break
        return taken, target

    def update(self, pc: int, taken: bool, target: int) -> bool:
        """Record the real outcome; returns True if it was mispredicted.

        A misprediction is a wrong direction, or a taken branch whose
        target was absent from the BTB.
        """
        self._lookups.increment()
        predicted_taken, predicted_target = self.predict(pc)
        mispredicted = predicted_taken != taken or (
            taken and predicted_target != target
        )
        if mispredicted:
            self._mispredicts.increment()

        bi = self._bimodal_index(pc)
        ph = self._pht_index(pc)
        bimodal_correct = (self._bimodal[bi] >= _TAKEN_THRESHOLD) == taken
        pht_correct = (self._pht[ph] >= _TAKEN_THRESHOLD) == taken
        if pht_correct != bimodal_correct:
            self._chooser[bi] = _saturate(self._chooser[bi], pht_correct)
        self._bimodal[bi] = _saturate(self._bimodal[bi], taken)
        self._pht[ph] = _saturate(self._pht[ph], taken)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

        if taken:
            index = self._btb_set(pc)
            ways = self._btb.get(index)
            if ways is None:
                ways = self._btb[index] = []
            for i, (tag, _) in enumerate(ways):
                if tag == pc:
                    del ways[i]
                    break
            ways.append((pc, target))
            if len(ways) > self.config.btb_ways:
                del ways[0]
        return mispredicted

    def update_window(self, pcs, takens, targets) -> list[bool]:
        """Resolve a window of branches in trace order.

        Batch form of :meth:`update` for the columnar pipeline: the bound
        method is hoisted once per window instead of looked up per branch.
        State evolution and misprediction flags are identical to calling
        :meth:`update` row by row.
        """
        update = self.update
        return [
            update(pc, taken, target)
            for pc, taken, target in zip(pcs, takens, targets)
        ]

    def clone(self) -> "BranchPredictor":
        """An independent copy with identical tables, history, and stats.

        Lets a pretrained predictor be cached and handed out repeatedly
        (see :mod:`repro.common.memo`): the clone behaves exactly like the
        original from this state on, but updates to either never affect
        the other.
        """
        other = BranchPredictor(self.config, name=self.stats.name)
        other._bimodal = list(self._bimodal)
        other._pht = list(self._pht)
        other._chooser = list(self._chooser)
        other._history = self._history
        other._btb = {s: list(ways) for s, ways in self._btb.items()}
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
    flags; :meth:`view` hands out cheap cursors that consume the memoized
    prefix instead of cloning and re-updating 16K-entry tables per
    simulation.  Bit-identical to the clone-per-sim pattern by
    construction: the flags come from the same :meth:`BranchPredictor.update`
    calls a clone would make.
    """

    __slots__ = ("predictor", "flags", "cum_mispredicts",
                 "base_lookups", "base_mispredicts")

    def __init__(self, predictor: BranchPredictor):
        self.predictor = predictor
        self.flags: list[bool] = []
        # cum_mispredicts[i] = mispredicts among the first i flags.
        self.cum_mispredicts: list[int] = [0]
        self.base_lookups = predictor.lookups
        self.base_mispredicts = predictor.mispredicts

    def view(self) -> "BranchStreamView":
        """A fresh cursor positioned at the start of the stream."""
        return BranchStreamView(self)

    def extend(self, pcs, takens, targets) -> None:
        """Resolve further branches (those past the memoized prefix)."""
        new = self.predictor.update_window(pcs, takens, targets)
        self.flags.extend(new)
        cum = self.cum_mispredicts
        total = cum[-1]
        for flag in new:
            total += flag
            cum.append(total)


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

    def update_window(self, pcs, takens, targets) -> list[bool]:
        """The next window's mispredict flags, memoized stream-wide.

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
        return stream.flags[cursor:self._cursor]

    @property
    def lookups(self) -> int:
        """Resolved branches, as the equivalent clone would count them."""
        return self._stream.base_lookups + self._cursor

    @property
    def mispredicts(self) -> int:
        """Mispredictions, as the equivalent clone would count them."""
        return (
            self._stream.base_mispredicts
            + self._stream.cum_mispredicts[self._cursor]
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
