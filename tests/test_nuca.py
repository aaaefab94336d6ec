"""NUCA L2 cache: policies, latencies, bank statistics."""

import pytest

from repro.cache.nuca import NucaCache, bank_hops_for_model
from repro.common.config import ChipModel, NucaConfig, NucaPolicy
from repro.common.errors import ConfigError


def make_cache(num_banks=6, policy=NucaPolicy.DISTRIBUTED_SETS, hops=None):
    config = NucaConfig(num_banks=num_banks, policy=policy)
    return NucaCache(config, bank_hops=hops, memory_latency_cycles=300)


class TestBankHops:
    def test_average_latency_2da_is_18_cycles(self):
        cache = make_cache(6, hops=bank_hops_for_model(ChipModel.TWO_D_A))
        latencies = [cache._bank_latency(b) for b in range(6)]
        assert sum(latencies) / 6 == pytest.approx(18.0)

    def test_average_latency_2d2a_is_22_cycles(self):
        cache = make_cache(15, hops=bank_hops_for_model(ChipModel.TWO_D_2A))
        latencies = [cache._bank_latency(b) for b in range(15)]
        assert sum(latencies) / 15 == pytest.approx(22.0, abs=0.5)

    def test_3d_latency_close_to_2da(self):
        hops3d = bank_hops_for_model(ChipModel.THREE_D_2A)
        cache = make_cache(15, hops=hops3d)
        latencies = [cache._bank_latency(b) for b in range(15)]
        assert sum(latencies) / 15 == pytest.approx(18.5, abs=1.0)

    def test_hop_count_matches_banks(self):
        for chip in ChipModel:
            assert len(bank_hops_for_model(chip)) == chip.l2_banks

    def test_mismatched_hops_rejected(self):
        with pytest.raises(ConfigError):
            make_cache(6, hops=[1, 2, 3])


class TestDistributedSets:
    def test_geometry(self):
        cache = make_cache(6)
        assert cache.total_ways == 6
        assert cache.num_sets == 6 * 1024 * 1024 // (6 * 64)

    def test_miss_then_hit(self):
        cache = make_cache()
        first = cache.access(0x1000)
        again = cache.access(0x1000)
        assert not first.hit and again.hit
        assert again.latency_cycles < first.latency_cycles

    def test_same_set_same_bank(self):
        cache = make_cache()
        line_span = cache.num_sets * 64
        a = cache.access(0x40)
        b = cache.access(0x40 + line_span)
        assert a.bank == b.bank

    def test_miss_includes_memory_latency(self):
        cache = make_cache()
        result = cache.access(0)
        assert result.latency_cycles >= 300

    def test_repeated_hits_to_one_bank_have_one_latency(self):
        # Banks are uncontended: hammering one bank leaves every hit's
        # latency the same, below the fill's.
        cache = make_cache()
        fill = cache.access(0).latency_cycles
        latencies = {cache.access(0).latency_cycles for _ in range(8)}
        assert len(latencies) == 1
        assert latencies.pop() < fill

    def test_associativity_eviction(self):
        cache = make_cache(6)
        span = cache.num_sets * 64
        lines = [i * span for i in range(7)]  # 7 ways into a 6-way set
        for a in lines:
            cache.access(a)
        assert not cache.access(lines[0]).hit  # evicted (LRU)


class TestDistributedWays:
    def test_geometry_loses_one_bank_to_tags(self):
        cache = make_cache(6, policy=NucaPolicy.DISTRIBUTED_WAYS)
        assert cache.total_ways == 5

    def test_hit_after_fill(self):
        cache = make_cache(6, policy=NucaPolicy.DISTRIBUTED_WAYS)
        cache.access(0x2000)
        assert cache.access(0x2000).hit

    def test_promotion_reduces_latency(self):
        cache = make_cache(6, policy=NucaPolicy.DISTRIBUTED_WAYS)
        cache.access(0x3000)
        latencies = [cache.access(0x3000).latency_cycles for _ in range(5)]
        assert latencies[-1] <= latencies[0]

    def test_needs_two_banks(self):
        with pytest.raises(ConfigError):
            make_cache(1, policy=NucaPolicy.DISTRIBUTED_WAYS)

    def test_eviction_when_full(self):
        cache = make_cache(6, policy=NucaPolicy.DISTRIBUTED_WAYS)
        span = cache.num_sets * 64
        lines = [i * span for i in range(6)]  # 6 lines into 5 ways
        for a in lines:
            cache.access(a)
        assert not cache.access(lines[0]).hit


class TestStatistics:
    def test_bank_access_counts(self):
        cache = make_cache()
        for i in range(60):
            cache.access(i * 64)
        assert sum(cache.bank_access_counts()) == 60

    def test_misses_per_10k(self):
        cache = make_cache()
        for i in range(10):
            cache.access(i * 64)
        assert cache.misses_per_10k(10_000) == pytest.approx(10.0)
        assert cache.misses_per_10k(0) == 0.0

    def test_average_hit_latency_tracks_hits_only(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        assert 6 <= cache.average_hit_latency <= 30
