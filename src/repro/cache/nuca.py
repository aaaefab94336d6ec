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
22 cycles for ``2d-2a``, ~18 for ``3d-2a``).
"""

from __future__ import annotations

from repro.cache.sram import disjoint_runs, warm_lines
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
    """The NUCA L2: banked tags, grid latency, and both placement policies."""

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
        self._recent_banks: list[int] = []  # sliding window for contention
        self._conflicts = self.stats.counter("bank_conflicts")

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
            if config.num_banks < 2:
                raise ConfigError("distributed-ways needs at least 2 banks")
            self._total_ways = config.num_banks - 1
            self._num_sets = (
                (config.num_banks - 1) * config.bank_size_bytes
            ) // (self._total_ways * config.line_bytes)
            # Data banks sorted by proximity to the controller; the closest
            # position hosts the tag array itself.
            order = sorted(range(config.num_banks), key=lambda i: self.bank_hops[i])
            self._tag_bank = order[0]
            self._data_banks = order[1:]
        # Tag store: per set, list of (line, bank_slot) in LRU order.
        # bank_slot indexes self._data_banks for the ways policy; for the
        # sets policy all ways of a set are in the same bank.  Rows are
        # built on first touch: ``_owned[s]`` is 0 while row ``s`` still
        # aliases the shared empty row, and the access paths call
        # :meth:`_own` before the first mutation, which builds the row
        # from the runs :meth:`install` stored.  A simulation touches a
        # small fraction of the sets it preloads, so a warm 15 MB L2
        # costs one row per touched set and nothing per resident line.
        self._sets: list[list[tuple[int, int]]] = [[]] * self._num_sets
        self._owned = bytearray(self._num_sets)
        self._runs: tuple[tuple[int, int], ...] = ()

    # ------------------------------------------------------------------
    @property
    def num_sets(self) -> int:
        """Number of L2 sets."""
        return self._num_sets

    @property
    def total_ways(self) -> int:
        """Total associativity."""
        return self._total_ways

    def _line(self, address: int) -> int:
        return address >> self._offset_bits

    def _set_index(self, line: int) -> int:
        return line % self._num_sets

    def _bank_latency(self, bank: int) -> int:
        return (
            self.bank_hops[bank] * self.config.hop_cycles
            + self.config.bank_access_cycles
        )

    # ------------------------------------------------------------------
    def access(self, address: int) -> AccessResult:
        """Access the L2; fills on miss.  Returns hit/miss, latency, bank."""
        if self.config.policy is NucaPolicy.DISTRIBUTED_SETS:
            result = self._access_distributed_sets(address)
        else:
            result = self._access_distributed_ways(address)
        if self.config.model_contention:
            # A bank busy with one of the last few accesses queues this one
            # behind it (single-ported banks; the grid pipeline hides
            # anything older than the window).
            queued = self._recent_banks.count(result.bank)
            if queued:
                self._conflicts.increment()
                result = AccessResult(
                    result.hit,
                    result.latency_cycles
                    + queued * self.config.bank_access_cycles,
                    result.bank,
                )
            self._recent_banks.append(result.bank)
            if len(self._recent_banks) > self.config.contention_window:
                del self._recent_banks[0]
        if result.hit:
            self._hits.increment()
            self._latency.add(result.latency_cycles)
        else:
            self._misses.increment()
        self._bank_accesses[result.bank].increment()
        return result

    def _access_distributed_sets(self, address: int) -> AccessResult:
        line = self._line(address)
        set_index = self._set_index(line)
        bank = set_index % self.config.num_banks
        ways = self._sets[set_index]
        if not self._owned[set_index]:
            ways = self._own(set_index)
        latency = self._bank_latency(bank)
        for i, (resident, slot) in enumerate(ways):
            if resident == line:
                del ways[i]
                ways.append((line, slot))
                return AccessResult(True, latency, bank)
        ways.append((line, bank))
        if len(ways) > self._total_ways:
            del ways[0]
        return AccessResult(False, latency + self.memory_latency_cycles, bank)

    def _access_distributed_ways(self, address: int) -> AccessResult:
        line = self._line(address)
        set_index = self._set_index(line)
        ways = self._sets[set_index]
        if not self._owned[set_index]:
            ways = self._own(set_index)
        # Central tag lookup first (2 cycles), then route to the data bank.
        tag_latency = 2
        for i, (resident, slot) in enumerate(ways):
            if resident == line:
                bank = self._data_banks[slot]
                latency = tag_latency + self._bank_latency(bank)
                # Promotion: swap the hit block into the bank closest to
                # the controller (demoting its occupant to the hit slot).
                # This is why the distributed-way policy slightly beats
                # distributed sets for working sets below L2 capacity —
                # re-referenced blocks migrate next to the controller.
                if slot > 0:
                    self._promote(ways, i, slot)
                else:
                    del ways[i]
                    ways.append((line, slot))
                return AccessResult(True, latency, bank)
        # Miss: place in the closest unoccupied slot, else evict LRU and
        # reuse its slot.
        occupied = {slot for (_, slot) in ways}
        free = [s for s in range(len(self._data_banks)) if s not in occupied]
        if free:
            slot = free[0]
        else:
            _, slot = ways.pop(0)
        ways.append((line, slot))
        bank = self._data_banks[slot]
        latency = tag_latency + self._bank_latency(bank)
        return AccessResult(False, latency + self.memory_latency_cycles, bank)

    @property
    def fresh(self) -> bool:
        """Whether no line is resident (nothing accessed or installed)."""
        return not self._runs and 1 not in self._owned

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
        order, then ``stats.reset()``, without contention modelling
        (whose sliding bank window this does not track).  Only the runs
        are stored; :meth:`_own` builds each set's row on first touch.
        """
        if runs is None:
            raise ConfigError("preload runs overlap")
        self._runs = runs

    def _own(self, set_index: int) -> list[tuple[int, int]]:
        """Give set ``set_index`` its private row on first touch.

        Starting empty with distinct lines, every install misses, so the
        row is the set's last ``total_ways`` installed lines
        (:func:`~repro.cache.sram.warm_lines`).  Under distributed sets
        they all sit in bank ``set_index % num_banks``; under distributed
        ways the set's k-th install lands in slot ``k % total_ways``
        (fill ascending, then evict the LRU front and reuse its slot).
        """
        self._owned[set_index] = 1
        row: list[tuple[int, int]] = []
        if self._runs:
            lines, received = warm_lines(
                self._runs, set_index, self._num_sets, self._total_ways
            )
            if self.config.policy is NucaPolicy.DISTRIBUTED_SETS:
                bank = set_index % self.config.num_banks
                row = [(line, bank) for line in lines]
            else:
                first = received - len(lines)
                row = [
                    (line, (first + k) % self._total_ways)
                    for k, line in enumerate(lines)
                ]
        self._sets[set_index] = row
        return row

    def _promote(self, ways: list[tuple[int, int]], index: int, slot: int) -> None:
        line, _ = ways[index]
        del ways[index]
        for j, (other_line, other_slot) in enumerate(ways):
            if other_slot == 0:
                ways[j] = (other_line, slot)
                break
        ways.append((line, 0))

    # ------------------------------------------------------------------
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
        m.counter(f"nuca.{policy}.bank_conflicts").inc(self._conflicts.value)

    def misses_per_10k(self, instructions: int) -> float:
        """L2 misses per 10k committed instructions (Section 3.3 metric)."""
        if instructions <= 0:
            return 0.0
        return self.misses * 10_000.0 / instructions
