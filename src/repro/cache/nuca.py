"""Non-uniform cache access (NUCA) L2 model (Section 3.1 of the paper).

The L2 is partitioned into 1 MB banks connected by a grid network where each
hop costs four cycles (one link + three router cycles).  Two placement
policies are modelled:

* **distributed sets** — the set index selects a unique bank; the bank holds
  all ways of its sets.  Simple, but every bank is accessed uniformly so the
  average hit latency is governed by the mean hop distance.
* **distributed ways** — each bank holds one way of every set, and a
  centralized tag array next to the L2 controller is consulted first.  Blocks
  gravitate toward the banks closest to the controller, so hot working sets
  see shorter distances (the paper reports < 2% IPC advantage).

Bank hop distances default to per-chip-model values whose averages reproduce
the paper's reported mean L2 hit latencies (18 cycles for ``2d-a``,
22 cycles for ``2d-2a``, ~18 for ``3d-2a``), which are uncontended: a
bank never queues an access behind another.
"""

from __future__ import annotations

import numpy as np

from repro.cache.sram import disjoint_runs, flat_view, lru_access, warm_lines
from repro.common.config import ChipModel, NucaConfig, NucaPolicy
from repro.common.errors import ConfigError
from repro.common.stats import StatGroup
from repro.obs.metrics import get_registry

__all__ = ["NucaCache", "bank_hops_for_model", "AccessResult"]

# Hop distance from the L2 controller to each bank, per chip model.  The
# first six entries of the 3d-2a list are the lower-die banks (identical to
# 2d-a); the remaining nine sit on the upper die, reached through the
# inter-die via pillar (which adds no full hop), at comparable horizontal
# distances -- this is why the paper finds the 3D L2 no faster on average
# than 2d-a despite 2.5x the capacity.
_BANK_HOPS: dict[ChipModel, list[int]] = {
    ChipModel.TWO_D_A: [2, 2, 3, 3, 4, 4],
    ChipModel.TWO_D_2A: [2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6],
    ChipModel.THREE_D_2A: [2, 2, 3, 3, 4, 4, 2, 2, 3, 3, 3, 4, 4, 4, 4],
    ChipModel.THREE_D_CHECKER: [2, 2, 3, 3, 4, 4],
}


def bank_hops_for_model(chip: ChipModel) -> list[int]:
    """Per-bank hop counts from the L2 controller for a chip model."""
    return list(_BANK_HOPS[chip])


class AccessResult:
    """Outcome of one L2 access: hit/miss, latency, and the bank touched."""

    __slots__ = ("hit", "latency_cycles", "bank")

    def __init__(self, hit: bool, latency_cycles: int, bank: int):
        self.hit = hit
        self.latency_cycles = latency_cycles
        self.bank = bank

    def __repr__(self) -> str:
        kind = "hit" if self.hit else "miss"
        return f"AccessResult({kind}, {self.latency_cycles} cyc, bank {self.bank})"


class NucaCache:
    """The NUCA L2: banked tags, grid latency, and both placement policies.

    Tag state lives in NumPy arrays allocated here, shared by the Python
    access methods and the compiled probe of
    :meth:`repro.core.memory.MemoryHierarchy.access_window`: set ``s``'s
    row is ``_lines[s, :_fill[s]]`` in LRU order (oldest first), and
    under distributed ways ``_slots[s, k]`` is the data-bank slot of
    way ``k`` (an index into ``_data_banks``).  Rows are built on first
    touch: while ``_owned[s]`` is 0 the row is the warm row of the
    installed ``_runs``, and the access paths build it (:meth:`_own`)
    before the first mutation.  A simulation touches a small fraction of
    the sets it preloads, so a warm 15 MB L2 costs one row per touched
    set and nothing per resident line.
    """

    def __init__(
        self,
        config: NucaConfig,
        bank_hops: list[int] | None = None,
        memory_latency_cycles: int = 300,
        name: str = "l2",
    ):
        if bank_hops is None:
            bank_hops = [2 + (i % 3) for i in range(config.num_banks)]
        if len(bank_hops) != config.num_banks:
            raise ConfigError(
                f"bank_hops has {len(bank_hops)} entries for "
                f"{config.num_banks} banks"
            )
        self.config = config
        self.bank_hops = list(bank_hops)
        self.memory_latency_cycles = memory_latency_cycles
        self._offset_bits = config.line_bytes.bit_length() - 1
        self.stats = StatGroup(name)
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._latency = self.stats.running_mean("hit_latency")
        self._bank_accesses = [
            self.stats.counter(f"bank{i}_accesses") for i in range(config.num_banks)
        ]
        self._bank_cycles = [
            self._bank_latency(bank) for bank in range(config.num_banks)
        ]

        if config.policy is NucaPolicy.DISTRIBUTED_SETS:
            # Total associativity = num_banks ways (6 MB 6-way / 15 MB
            # 15-way, Table 1); every set lives wholly in one bank.
            self._total_ways = config.num_banks
            self._num_sets = config.total_size_bytes // (
                self._total_ways * config.line_bytes
            )
            self._data_banks = list(range(config.num_banks))
        else:
            # Distributed ways: one bank is replaced by the central tag
            # array (Section 3.1), each remaining bank holds one way.
            if not 2 <= config.num_banks <= 128:
                raise ConfigError("distributed-ways needs 2 to 128 banks")
            self._total_ways = config.num_banks - 1
            self._num_sets = (
                (config.num_banks - 1) * config.bank_size_bytes
            ) // (self._total_ways * config.line_bytes)
            # Data banks sorted by proximity to the controller; the closest
            # position hosts the tag array itself.
            order = sorted(range(config.num_banks), key=lambda i: self.bank_hops[i])
            self._tag_bank = order[0]
            self._data_banks = order[1:]
        shape = (self._num_sets, self._total_ways)
        self._lines = np.zeros(shape, dtype=np.int64)
        self._slots = np.zeros(shape, dtype=np.int8)
        self._fill = np.zeros(self._num_sets, dtype=np.int64)
        self._owned = np.zeros(self._num_sets, dtype=np.uint8)
        self._runs = np.zeros((0, 2), dtype=np.int64)
        # Per-access constants of the Python access path.
        self._distributed_sets = config.policy is NucaPolicy.DISTRIBUTED_SETS
        self._num_banks = config.num_banks
        self._l = flat_view(self._lines)
        self._s = flat_view(self._slots)
        self._f = flat_view(self._fill)
        self._o = flat_view(self._owned)

    # ------------------------------------------------------------------
    @property
    def num_sets(self) -> int:
        """Number of L2 sets."""
        return self._num_sets

    @property
    def total_ways(self) -> int:
        """Total associativity."""
        return self._total_ways

    def _bank_latency(self, bank: int) -> int:
        return (
            self.bank_hops[bank] * self.config.hop_cycles
            + self.config.bank_access_cycles
        )

    # ------------------------------------------------------------------
    def access(self, address: int) -> AccessResult:
        """Access the L2; fills on miss.  Returns hit/miss, latency, bank."""
        line = address >> self._offset_bits
        s = line % self._num_sets
        if not self._o[s]:
            self._own(s)
        if self._distributed_sets:
            # Every way of the set sits in one bank.
            hit = lru_access(self._l, self._f, s, self._total_ways, line)
            bank = s % self._num_banks
            latency = self._bank_cycles[bank]
        else:
            hit, bank = self._access_distributed_ways(line, s)
            # Central tag lookup first (2 cycles), then the data bank.
            latency = 2 + self._bank_cycles[bank]
        if hit:
            self._hits.value += 1
            self._latency.add(latency)
        else:
            latency += self.memory_latency_cycles
            self._misses.value += 1
        self._bank_accesses[bank].value += 1
        return AccessResult(hit, latency, bank)

    def _access_distributed_ways(self, line: int, s: int) -> tuple[bool, int]:
        ways = self._total_ways
        start = s * ways
        end = start + self._f[s]
        lines, slots = self._l, self._s
        try:
            i = start + lines[start:end].tolist().index(line)
        except ValueError:
            # Miss: place in the closest unoccupied slot, else evict LRU
            # and reuse its slot.
            if end - start < ways:
                occupied = slots[start:end].tolist()
                slot = next(k for k in range(ways) if k not in occupied)
                self._f[s] += 1
                end += 1
            else:
                slot = slots[start]
                lines[start:end - 1] = lines[start + 1:end]
                slots[start:end - 1] = slots[start + 1:end]
            lines[end - 1] = line
            slots[end - 1] = slot
            return False, self._data_banks[slot]
        slot = slots[i]
        if slot > 0:
            # Promotion: swap the hit block into the bank closest to the
            # controller (demoting its occupant to the hit slot).  This
            # is why the distributed-way policy slightly beats
            # distributed sets for working sets below L2 capacity —
            # re-referenced blocks migrate next to the controller.
            occupied = slots[start:end].tolist()
            if 0 in occupied:
                slots[start + occupied.index(0)] = slot
        lines[i:end - 1] = lines[i + 1:end]
        slots[i:end - 1] = slots[i + 1:end]
        lines[end - 1] = line
        slots[end - 1] = 0
        return True, self._data_banks[slot]

    @property
    def fresh(self) -> bool:
        """Whether no line is resident (nothing accessed or installed)."""
        return not len(self._runs) and not self._fill.any()

    def preload_plan(self, runs):
        """``runs`` validated for :meth:`install`, or ``None``.

        ``runs`` are ``(first_line, num_lines)`` ranges in install
        order; the plan is them with empty runs dropped.  ``None`` when
        two runs share a line (the lines would not all miss).
        """
        return disjoint_runs(runs)

    def install(self, runs) -> None:
        """Warm a :attr:`fresh` L2 with :meth:`preload_plan`'s runs.

        Equivalent to :meth:`access` on every line of every run in
        order, then ``stats.reset()``.  Only the runs are stored;
        :meth:`_own` builds each set's row on first touch.
        """
        if runs is None:
            raise ConfigError("preload runs overlap")
        self._runs = np.array(runs, dtype=np.int64).reshape(-1, 2)
        self._owned[:] = 0

    def row(self, set_index: int) -> list[tuple[int, int]]:
        """Set ``set_index``'s ``(line, bank)`` pairs in LRU order (oldest
        first); an untouched set's warm row is computed, not built."""
        if not self._o[set_index]:
            lines, slots = self._warm_row(set_index)
        else:
            start = set_index * self._total_ways
            end = start + self._f[set_index]
            lines = self._l[start:end].tolist()
            slots = self._s[start:end].tolist()
        if self.config.policy is NucaPolicy.DISTRIBUTED_SETS:
            bank = set_index % self.config.num_banks
            return [(line, bank) for line in lines]
        banks = self._data_banks
        return [(line, banks[slot]) for line, slot in zip(lines, slots)]

    def _warm_row(self, set_index: int) -> tuple[list[int], list[int]]:
        """The lines and slots set ``set_index`` holds after the install.

        Starting empty with distinct lines, every install misses, so the
        row is the set's last ``total_ways`` installed lines
        (:func:`~repro.cache.sram.warm_lines`).  Under distributed ways
        the set's k-th install lands in slot ``k % total_ways`` (fill
        ascending, then evict the LRU front and reuse its slot); under
        distributed sets there are no slots (the set's bank holds all).
        """
        if not len(self._runs):
            return [], []
        ways = self._total_ways
        lines, received = warm_lines(
            self._runs.tolist(), set_index, self._num_sets, ways
        )
        if self.config.policy is NucaPolicy.DISTRIBUTED_SETS:
            return lines, []
        first = received - len(lines)
        return lines, [(first + k) % ways for k in range(len(lines))]

    def _own(self, set_index: int) -> None:
        """Build set ``set_index``'s warm row into the arrays (first
        touch)."""
        lines, slots = self._warm_row(set_index)
        self._lines[set_index, :len(lines)] = lines
        self._slots[set_index, :len(slots)] = slots
        self._fill[set_index] = len(lines)
        self._owned[set_index] = 1

    # ------------------------------------------------------------------
    def add_counts(
        self, hits: int, misses: int, latency_total: int,
        latency_min: int, latency_max: int, bank_accesses: list[int],
    ) -> None:
        """Add a batch of accesses' counts (the compiled probe's) to the
        statistics, ending where :meth:`access` per access would: the
        hit latencies are integers, so their float total is exact."""
        self._hits.increment(hits)
        self._misses.increment(misses)
        for counter, count in zip(self._bank_accesses, bank_accesses):
            counter.increment(count)
        if hits:
            mean = self._latency
            mean.count += hits
            mean.total += latency_total
            if latency_min < mean.minimum:
                mean.minimum = latency_min
            if latency_max > mean.maximum:
                mean.maximum = latency_max

    @property
    def hits(self) -> int:
        """L2 hits so far."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """L2 misses so far."""
        return self._misses.value

    @property
    def accesses(self) -> int:
        """Total L2 accesses."""
        return self._hits.value + self._misses.value

    @property
    def average_hit_latency(self) -> float:
        """Mean latency of L2 hits (cycles)."""
        return self._latency.mean

    def bank_access_counts(self) -> list[int]:
        """Per-bank access counts (for the power model)."""
        return [c.value for c in self._bank_accesses]

    def publish_metrics(self) -> None:
        """Add this cache's lifetime totals to the metrics registry.

        Tagged by placement policy so the two NUCA organizations stay
        distinguishable in a merged snapshot.  Called once per
        simulation (the access path itself stays uninstrumented).
        """
        m = get_registry()
        policy = self.config.policy.value
        m.counter(f"nuca.{policy}.hits").inc(self._hits.value)
        m.counter(f"nuca.{policy}.misses").inc(self._misses.value)

    def misses_per_10k(self, instructions: int) -> float:
        """L2 misses per 10k committed instructions (Section 3.3 metric)."""
        if instructions <= 0:
            return 0.0
        return self.misses * 10_000.0 / instructions
