"""The leading core's memory hierarchy."""

import tracemalloc

import pytest

from repro.common import memo
from repro.common.config import (
    ChipModel,
    LeadingCoreConfig,
    NucaConfig,
    NucaPolicy,
)
from repro.core.memory import MemoryHierarchy
from repro.workloads.profiles import get_profile


def rows(cache):
    """Every set's row of an array-backed cache, through its accessor."""
    return [cache.row(s) for s in range(cache.num_sets)]


def make_memory(chip=ChipModel.TWO_D_A):
    return MemoryHierarchy(
        LeadingCoreConfig(), NucaConfig(num_banks=chip.l2_banks), chip
    )


class TestLoadPath:
    def test_l1_hit_is_fast(self):
        memory = make_memory()
        memory.load_latency(0x100)          # install
        assert memory.load_latency(0x100) == 2

    def test_l1_miss_l2_hit_costs_nuca_latency(self):
        memory = make_memory()
        memory.load_latency(0x100)          # install in L1 and L2
        memory.l1d.invalidate(0x100)
        latency = memory.load_latency(0x100)
        assert 2 + 6 <= latency <= 2 + 30    # L1 + bank/hops, no memory

    def test_cold_miss_costs_memory_latency(self):
        memory = make_memory()
        assert memory.load_latency(0xDEAD00) > 300


class TestFetchPath:
    def test_warm_fetch_is_one_cycle(self):
        memory = make_memory()
        memory.fetch_latency(0x40)
        assert memory.fetch_latency(0x40) == 1

    def test_icache_does_not_alias_dcache(self):
        memory = make_memory()
        memory.load_latency(0x40)
        # Same numeric pc in I-space must still miss (disjoint spaces).
        assert memory.fetch_latency(0x40) > 1


class TestPreload:
    def test_preload_makes_hot_region_hit(self):
        profile = get_profile("gzip")
        memory = make_memory()
        memory.preload_profile(profile)
        assert memory.load_latency(0x0) == 2
        assert memory.load_latency(profile.hot_bytes - 8) == 2

    def test_preload_makes_warm_region_l2_resident(self):
        profile = get_profile("gzip")
        memory = make_memory()
        memory.preload_profile(profile)
        latency = memory.load_latency(0x1000_0000)
        assert latency < 300

    def test_preload_resets_statistics(self):
        memory = make_memory()
        memory.preload_profile(get_profile("gzip"))
        assert memory.l2.accesses == 0
        assert memory.l1d.accesses == 0

    def test_xl_region_fits_only_in_15mb(self):
        profile = get_profile("mcf")
        small = make_memory(ChipModel.TWO_D_A)
        small.preload_profile(profile)
        big = make_memory(ChipModel.TWO_D_2A)
        big.preload_profile(profile)
        # Probe the middle of the xl region: in 15 MB most of it survives
        # preload (only the oldest lines are evicted by the slight capacity
        # shortfall), while in 6 MB everything but the newest sliver is
        # evicted by the warm region installed after it.
        xl_addr = 0x2000_0000 + (profile.xl_bytes // 2 // 64) * 64
        assert big.load_latency(xl_addr) < 300     # resident in 15 MB
        assert small.load_latency(xl_addr) > 300   # evicted from 6 MB

    @staticmethod
    def _preload_both(nuca, profiles):
        """``profiles`` preloaded in turn by ``preload_profile`` and by
        the per-address reference, on two fresh hierarchies."""
        memory, reference = (
            MemoryHierarchy(LeadingCoreConfig(), nuca, ChipModel.TWO_D_A)
            for _ in range(2)
        )
        for profile in profiles:
            memory.preload_profile(profile)
            reference._preload_profile_reference(profile)
        for level in ("l1i", "l1d", "l2"):
            assert rows(getattr(memory, level)) == rows(
                getattr(reference, level)
            )
        return memory

    @pytest.mark.parametrize("case", ["second-preload"])
    def test_declined_closed_form_falls_back_whole(self, case):
        # Warm caches rule the closed form out; the per-address reference
        # must then run for every level, on top of whatever is resident.
        self._preload_both(
            NucaConfig(num_banks=6),
            [get_profile("gzip"), get_profile("swim")],
        )

    @pytest.mark.parametrize("policy", list(NucaPolicy), ids=lambda p: p.value)
    def test_cold_preload_is_closed_form(self, policy):
        # Fresh caches take the closed form under either placement
        # policy: the L2 stores the runs and builds no row, and its rows
        # equal the per-address reference's.
        memory = self._preload_both(
            NucaConfig(num_banks=6, policy=policy), [get_profile("swim")]
        )
        assert len(memory.l2._runs) and not memory.l2._owned.any()

    def test_cold_preload_keeps_nothing_per_resident_line(self):
        # mcf leaves ~246k lines resident in a 15 MB L2.  The warm state
        # is the region runs plus rows built on first touch, so a cold
        # preload allocates almost nothing and memoizes nothing.
        memo.clear_cache()
        memory = make_memory(ChipModel.TWO_D_2A)
        tracemalloc.start()
        try:
            memory.preload_profile(get_profile("mcf"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024
        assert all(
            stats.requests == 0 for stats in memo.get_cache().stats.values()
        )


class TestStatistics:
    def test_misses_per_10k(self):
        memory = make_memory()
        for i in range(5):
            memory.load_latency(0x900000 + i * 4096)
        assert memory.l2_misses_per_10k(10_000) == pytest.approx(5.0)

    def test_average_l2_hit_latency(self):
        memory = make_memory()
        memory.load_latency(0x100)
        memory.l1d.invalidate(0x100)
        memory.load_latency(0x100)
        assert memory.average_l2_hit_latency > 0

    def test_store_commit_installs_line(self):
        memory = make_memory()
        memory.store_commit(0x4000)
        assert memory.load_latency(0x4000) == 2
