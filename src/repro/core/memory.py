"""The leading core's memory hierarchy: L1 I/D caches over the NUCA L2.

The trailing checker core never accesses the data hierarchy — it receives
load values through the LVQ (Section 2) — so this hierarchy belongs to the
leading core alone.  Stores are committed to the store buffer and written
to the hierarchy only after checking (write-through here, since the tag-only
caches carry no data).
"""

from __future__ import annotations

import numpy as np

from repro.cache.nuca import NucaCache, bank_hops_for_model
from repro.cache.sram import SetAssociativeCache
from repro.common.config import ChipModel, LeadingCoreConfig, NucaConfig

__all__ = ["MemoryHierarchy", "resident_runs"]


def resident_runs(profile, line_bytes: int) -> list[tuple[int, int]]:
    """A profile's L2-resident regions as ``(first_line, num_lines)`` runs
    in install order: xl (only when referenced), warm, then hot.

    Coldest first, so the hottest lines take the LRU positions that
    survive when capacity is short.
    """
    shift = line_bytes.bit_length() - 1
    return [
        (base >> shift, -(-size // line_bytes))
        for base, size in (
            (0x2000_0000, profile.xl_bytes if profile.p_xl > 0 else 0),
            (0x1000_0000, profile.warm_bytes),
            (0x0000_0000, profile.hot_bytes),
        )
    ]


class MemoryHierarchy:
    """L1 instruction + data caches backed by the shared NUCA L2."""

    def __init__(
        self,
        core_config: LeadingCoreConfig,
        nuca_config: NucaConfig,
        chip: ChipModel = ChipModel.TWO_D_A,
    ):
        self.core_config = core_config
        self.chip = chip
        self.l1i = SetAssociativeCache(core_config.l1_icache, name="l1i")
        self.l1d = SetAssociativeCache(core_config.l1_dcache, name="l1d")
        self.l2 = NucaCache(
            nuca_config,
            bank_hops=bank_hops_for_model(chip),
            memory_latency_cycles=core_config.memory_latency_cycles,
        )
        self._probe = None  # a _native.MemoryProbe once the kernel loads

    # The L2 sees instruction lines at this bit, disjoint from data.
    I_SPACE = 1 << 40

    # ------------------------------------------------------------------
    def fetch_latency(self, pc: int) -> int:
        """Instruction fetch latency in cycles for the line holding ``pc``."""
        if self.l1i.access(pc):
            return self.core_config.l1_icache.hit_latency_cycles
        result = self.l2.access(pc | self.I_SPACE)
        return self.core_config.l1_icache.hit_latency_cycles + result.latency_cycles

    def load_latency(self, address: int) -> int:
        """Data load latency in cycles (L1 hit, or L1 miss + L2 access)."""
        if self.l1d.access(address):
            return self.core_config.l1_dcache.hit_latency_cycles
        result = self.l2.access(address)
        return self.core_config.l1_dcache.hit_latency_cycles + result.latency_cycles

    def store_commit(self, address: int) -> None:
        """Install a committed (checked) store into the hierarchy."""
        self.l1d.access(address)

    FETCH, LOAD, STORE = 0, 1, 2  # access_window event kinds

    def access_window(self, kinds, addresses) -> np.ndarray:
        """Apply a trace-ordered batch of hierarchy accesses.

        ``kinds[i]`` selects :meth:`fetch_latency` (``FETCH``),
        :meth:`load_latency` (``LOAD``) or :meth:`store_commit` (``STORE``)
        for ``addresses[i]``; returns the per-event latency (0 for stores)
        as an int64 array.  Both inputs are int64 arrays (anything else is
        converted).  The compiled cache probe (``memory_probe`` in
        ``_kernel.c``) applies the whole batch to the caches' tag arrays,
        building untouched rows on first touch, and its hit, miss, bank
        and latency counts are added to the caches' statistics after the
        call, so state and counters end exactly as with the per-event
        calls (:meth:`_access_window_reference`, which runs where no
        kernel can be built).
        """
        kinds = np.ascontiguousarray(kinds, dtype=np.int64)
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        if self._probe is None:
            from repro.core import _native

            lib = _native.load()
            if lib is None:
                return self._access_window_reference(kinds, addresses)
            self._probe = _native.MemoryProbe(lib, self)
        out = np.empty(len(kinds), dtype=np.int64)
        self._probe(kinds, addresses, out)
        return out

    def _access_window_reference(self, kinds, addresses) -> np.ndarray:
        """The per-event oracle of :meth:`access_window`."""
        calls = (self.fetch_latency, self.load_latency, self.store_commit)
        return np.array(
            [
                calls[kind](address) or 0
                for kind, address in zip(
                    np.asarray(kinds).tolist(), np.asarray(addresses).tolist()
                )
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    def preload_profile(self, profile) -> None:
        """Pre-install a workload's resident working set (SimPoint-style warm
        state): hot region into L1D+L2, warm and xl regions into L2, code
        into L1I, in :func:`resident_runs` order.

        The regions are contiguous line runs installed into empty caches,
        so the warm state has a closed form: every cache stores its runs
        and builds each set's row on first touch (in the compiled probe,
        or the Python access methods).  Nothing per resident line is
        built or kept.  The per-address reference runs instead when the
        closed form does not apply (a cache not fresh, L1D and L2 line
        sizes differing, or overlapping regions); that is decided before
        anything is installed.
        """
        line = self.l1d.geometry.line_bytes
        plan = None
        if (
            self.l2.config.line_bytes == line
            and self.l1i.fresh
            and self.l1d.fresh
            and self.l2.fresh
        ):
            plan = self.l2.preload_plan(resident_runs(profile, line))
        if plan is None:
            self._preload_profile_reference(profile)
        else:
            code_line = self.l1i.geometry.line_bytes
            self.l2.install(plan)
            self.l1d.install(
                self.l1d.preload_plan([(0, -(-profile.hot_bytes // line))])
            )
            self.l1i.install(
                self.l1i.preload_plan(
                    [(0, -(-profile.code_bytes // code_line))]
                )
            )
        # Preloading must not pollute the measured statistics.
        self.l1i.stats.reset()
        self.l1d.stats.reset()
        self.l2.stats.reset()

    def _preload_profile_reference(self, profile) -> None:
        """Per-address preload loop — the semantics the closed form
        reproduces, and the fallback when its preconditions fail."""
        line = self.l1d.geometry.line_bytes
        for base, size in (
            (0x2000_0000, profile.xl_bytes if profile.p_xl > 0 else 0),
            (0x1000_0000, profile.warm_bytes),
            (0x0000_0000, profile.hot_bytes),
        ):
            for addr in range(base, base + size, line):
                self.l2.access(addr)
        for addr in range(0, profile.hot_bytes, line):
            self.l1d.access(addr)
        for pc in range(0, profile.code_bytes, self.l1i.geometry.line_bytes):
            self.l1i.access(pc)

    def l2_misses_per_10k(self, instructions: int) -> float:
        """L2 misses per 10k instructions (the Section 3.3 metric)."""
        return self.l2.misses_per_10k(instructions)

    @property
    def average_l2_hit_latency(self) -> float:
        """Mean L2 hit latency observed so far (cycles)."""
        return self.l2.average_hit_latency
