"""Property-based tests for the cache models."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.nuca import NucaCache
from repro.cache.sram import SetAssociativeCache
from repro.common.config import CacheGeometry, ChipModel, NucaConfig, NucaPolicy
from repro.experiments.runner import build_memory
from repro.workloads.profiles import get_profile

addresses = st.integers(0, 2**20)


@given(st.lists(addresses, max_size=400))
@settings(max_examples=50)
def test_sram_capacity_never_exceeded(trace):
    cache = SetAssociativeCache(
        CacheGeometry(size_bytes=4 * 64 * 4, ways=4, line_bytes=64)
    )
    for a in trace:
        cache.access(a)
        assert cache.resident_lines() <= 16


@given(st.lists(addresses, max_size=300))
@settings(max_examples=50)
def test_sram_immediate_rereference_always_hits(trace):
    cache = SetAssociativeCache(CacheGeometry())
    for a in trace:
        cache.access(a)
        assert cache.probe(a)


@given(st.lists(addresses, min_size=1, max_size=300))
@settings(max_examples=50)
def test_sram_hits_plus_misses_equals_accesses(trace):
    cache = SetAssociativeCache(CacheGeometry())
    for a in trace:
        cache.access(a)
    assert cache.hits + cache.misses == len(trace)
    assert 0.0 <= cache.miss_rate <= 1.0


@given(st.lists(addresses, max_size=200), st.booleans())
@settings(max_examples=30)
def test_nuca_rereference_hits_under_both_policies(trace, use_ways):
    policy = NucaPolicy.DISTRIBUTED_WAYS if use_ways else NucaPolicy.DISTRIBUTED_SETS
    cache = NucaCache(NucaConfig(num_banks=6, policy=policy))
    for a in trace:
        cache.access(a)
        assert cache.access(a).hit


@given(st.lists(addresses, min_size=1, max_size=200))
@settings(max_examples=30)
def test_nuca_latency_bounds(trace):
    cache = NucaCache(NucaConfig(num_banks=6), memory_latency_cycles=300)
    max_hit = max(
        cache._bank_latency(b) for b in range(6)
    )
    for a in trace:
        result = cache.access(a)
        if result.hit:
            assert result.latency_cycles <= max_hit
        else:
            assert result.latency_cycles >= 300
        assert 0 <= result.bank < 6


@given(st.lists(addresses, min_size=1, max_size=200))
@settings(max_examples=30)
def test_nuca_bank_counts_sum_to_accesses(trace):
    cache = NucaCache(NucaConfig(num_banks=6))
    for a in trace:
        cache.access(a)
    assert sum(cache.bank_access_counts()) == len(trace)
    assert cache.hits + cache.misses == len(trace)


# ---------------------------------------------------------------------
# Closed-form warm state vs the per-address install it replaces.  A
# preload installs disjoint line runs into an empty cache; the closed
# form must leave every set's LRU row, and everything a later access
# stream observes, exactly as ``access`` on each line then
# ``stats.reset()`` would.


def rows(cache):
    """Every set's row of an array-backed cache, through its accessor
    (an untouched set's warm row is computed, not built)."""
    return [cache.row(s) for s in range(cache.num_sets)]


def own_every_row(cache):
    """Every row, after building untouched ones into the arrays through
    the first-touch path the access methods use."""
    for s in range(cache.num_sets):
        if not cache._owned[s]:
            cache._own(s)
    return rows(cache)


@st.composite
def line_runs(draw, capacity):
    """1-4 disjoint ``(first_line, num_lines)`` runs at arbitrary first
    lines, each up to three capacities long, in any order."""
    n = draw(st.integers(1, 4))
    position = draw(st.integers(4 * capacity, 2**20))
    runs = []
    for _ in range(n):
        position += draw(st.integers(0, capacity))
        count = draw(st.integers(0, 3 * capacity))
        runs.append((position, count))
        position += count
    return draw(st.permutations(runs))


@st.composite
def stream_near(draw, runs, capacity):
    """Lines near the runs' resident tails, their evicted parts and the
    gaps between them, so a stream mixes hits and misses."""
    picks = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2 * capacity)),
        max_size=300,
    ))
    return [
        runs[i % len(runs)][0] + runs[i % len(runs)][1] - 1 - back
        for i, back in picks
    ]


def _reference_install(cache, runs, line_bytes=64):
    for first, count in runs:
        for line in range(first, first + count):
            cache.access(line * line_bytes)
    cache.stats.reset()


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_nuca_closed_form_matches_per_address_install(data):
    banks = data.draw(st.integers(2, 16))
    policy = data.draw(st.sampled_from(list(NucaPolicy)))
    config = NucaConfig(
        num_banks=banks,
        bank_size_bytes=64 * data.draw(st.integers(8, 128)),
        policy=policy,
    )
    reference = NucaCache(config)
    capacity = reference.num_sets * reference.total_ways
    runs = data.draw(line_runs(capacity))
    _reference_install(reference, runs)

    warm = NucaCache(config)
    warm.install(warm.preload_plan(runs))
    assert rows(warm) == rows(reference)
    assert own_every_row(warm) == rows(reference)

    fast = NucaCache(config)
    fast.install(fast.preload_plan(runs))
    for line in data.draw(stream_near(runs, capacity)):
        a, b = fast.access(line * 64), reference.access(line * 64)
        assert (a.hit, a.latency_cycles, a.bank) == (
            b.hit, b.latency_cycles, b.bank
        )
    assert (fast.hits, fast.misses) == (reference.hits, reference.misses)
    assert fast.bank_access_counts() == reference.bank_access_counts()
    assert fast.average_hit_latency == reference.average_hit_latency
    assert own_every_row(fast) == rows(reference)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sram_closed_form_matches_per_address_install(data):
    sets = data.draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    ways = data.draw(st.integers(1, 8))
    geometry = CacheGeometry(size_bytes=sets * ways * 64, ways=ways)
    reference = SetAssociativeCache(geometry)
    runs = data.draw(line_runs(sets * ways))
    _reference_install(reference, runs)

    fast = SetAssociativeCache(geometry)
    fast.install(fast.preload_plan(runs))
    assert rows(fast) == rows(reference)
    for line in data.draw(stream_near(runs, sets * ways)):
        assert fast.access(line * 64) == reference.access(line * 64)
    assert (fast.hits, fast.misses) == (reference.hits, reference.misses)
    assert own_every_row(fast) == rows(reference)


def test_overlapping_runs_have_no_plan():
    nuca = NucaCache(NucaConfig(num_banks=6))
    sram = SetAssociativeCache(CacheGeometry())
    for runs in ([(0, 10), (9, 5)], [(20, 5), (0, 21)]):
        assert nuca.preload_plan(runs) is None
        assert sram.preload_plan(runs) is None
    assert nuca.preload_plan([(0, 10), (10, 5), (3, 0)]) == ((0, 10), (10, 5))


@st.composite
def warm_profiles(draw):
    """Profiles whose resident regions range from empty to past the
    15 MB L2, at unaligned sizes, with the xl region on and off."""
    base = get_profile(draw(st.sampled_from(["gzip", "mcf", "swim"])))
    p_xl = draw(st.sampled_from([0.0, 0.0005]))

    def size(limit):
        scale = draw(st.sampled_from([0, limit // 256, limit // 8, limit]))
        return max(0, scale - draw(st.integers(0, 200)))

    return dataclasses.replace(
        base,
        hot_bytes=size(96 * 1024),
        warm_bytes=size(8 * 1024 * 1024),
        xl_bytes=size(12 * 1024 * 1024),
        code_bytes=size(48 * 1024),
        p_hot=base.p_hot + base.p_xl - p_xl,
        p_xl=p_xl,
    )


@given(
    profile=warm_profiles(),
    chip=st.sampled_from([ChipModel.TWO_D_A, ChipModel.TWO_D_2A]),
    policy=st.sampled_from(list(NucaPolicy)),
    picks=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers(0, 2**16)),
        max_size=300,
    ),
)
@settings(max_examples=10, deadline=None)
def test_preload_profile_matches_reference_preload(profile, chip, policy, picks):
    def hierarchy():
        return build_memory(chip, policy=policy)

    reference = hierarchy()
    reference._preload_profile_reference(profile)
    for level in (reference.l1i, reference.l1d, reference.l2):
        level.stats.reset()

    warm = hierarchy()
    warm.preload_profile(profile)
    for level in ("l1i", "l1d", "l2"):
        assert rows(getattr(warm, level)) == rows(getattr(reference, level))

    # A fetch/load/store stream over every region's tail and beyond.
    bases = (0, 0x1000_0000, 0x2000_0000, 0x3000_0000, 0)
    sizes = (profile.hot_bytes, profile.warm_bytes, profile.xl_bytes, 0,
             profile.code_bytes)
    kinds = [kind for kind, _region, _back in picks]
    addresses = [
        max(0, bases[region] + sizes[region] - 8 * back)
        for _kind, region, back in picks
    ]
    # The warm side runs the compiled probe (first touch in C) where the
    # kernel loads; the fully installed reference runs the per-event
    # oracle.
    fast = hierarchy()
    fast.preload_profile(profile)
    got = fast.access_window(kinds, addresses)
    assert got.dtype == np.int64
    assert got.tolist() == reference._access_window_reference(
        kinds, addresses
    ).tolist()
    for level in ("l1i", "l1d", "l2"):
        a, b = getattr(fast, level), getattr(reference, level)
        assert (a.hits, a.misses) == (b.hits, b.misses)
        assert rows(a) == rows(b)
    assert fast.l2.bank_access_counts() == reference.l2.bank_access_counts()
    assert fast.l2.average_hit_latency == reference.l2.average_hit_latency
