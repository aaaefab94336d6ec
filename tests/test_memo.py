"""The artifact cache: hits avoid regeneration, consumers cannot corrupt."""

import dataclasses

import numpy as np
import pytest

from repro.common import memo
from repro.common.config import ChipModel, ThermalConfig
from repro.experiments.runner import SimulationWindow, simulate_leading
from repro.experiments.thermal import standard_floorplan
from repro.isa.trace import TraceGenerator
from repro.workloads.profiles import get_profile

TINY = SimulationWindow(warmup=1000, measured=3000)
GZIP = get_profile("gzip")


@pytest.fixture(autouse=True)
def _fresh_cache():
    memo.clear_cache()
    yield
    memo.clear_cache()


class TestTraceCache:
    def test_hit_skips_generation(self, monkeypatch):
        cache = memo.get_cache()
        cache.trace_arrays(GZIP, 42, 500)
        calls = []
        original = TraceGenerator.generate_arrays
        monkeypatch.setattr(
            TraceGenerator, "generate_arrays",
            lambda self, n: calls.append(n) or original(self, n),
        )
        cache.trace_arrays(GZIP, 42, 500)      # exact hit
        cache.trace_arrays(GZIP, 42, 300)      # prefix hit
        assert calls == []
        assert cache.stats["trace"].hits == 2
        assert cache.stats["trace"].misses == 1

    def test_extension_matches_fresh_generation(self):
        cache = memo.get_cache()
        short = cache.trace_arrays(GZIP, 42, 500)
        extended = cache.trace_arrays(GZIP, 42, 1200)
        fresh = TraceGenerator(GZIP, seed=42).generate_arrays(1200)
        assert extended[:500] == short
        assert extended == fresh

    def test_returns_read_only_arrays(self):
        trace = memo.get_cache().trace_arrays(GZIP, 42, 100)
        with pytest.raises(ValueError):
            trace.op[0] = 0

    def test_distinct_seeds_distinct_streams(self):
        cache = memo.get_cache()
        a = cache.trace_arrays(GZIP, 42, 200)
        b = cache.trace_arrays(GZIP, 43, 200)
        assert a != b

    def test_lru_eviction(self):
        cache = memo.ArtifactCache(max_trace_entries=2)
        for name in ("gzip", "mcf", "mesa"):
            cache.trace_arrays(get_profile(name), 42, 100)
        cache.trace_arrays(get_profile("mesa"), 42, 100)   # still resident
        cache.trace_arrays(get_profile("gzip"), 42, 100)   # evicted -> regenerated
        assert cache.stats["trace"].hits == 1
        assert cache.stats["trace"].misses == 4


class TestPredictorCache:
    def test_clones_are_independent(self):
        cache = memo.get_cache()
        first = cache.pretrained_predictor(GZIP, 42)
        snapshot = (
            first._bimodal.copy(), first._pht.copy(),
            first._btb_tags.copy(), first._history, first.lookups,
        )
        # Mutate the first clone heavily; the master must be unaffected.
        for _ in range(200):
            first.update(0x4000_0000, taken=True, target=0x4000_1000)
        second = cache.pretrained_predictor(GZIP, 42)
        assert np.array_equal(second._bimodal, snapshot[0])
        assert np.array_equal(second._pht, snapshot[1])
        assert np.array_equal(second._btb_tags, snapshot[2])
        assert (second._history, second.lookups) == snapshot[3:]
        assert not np.array_equal(first._btb_tags, snapshot[2])
        assert first.lookups == snapshot[4] + 200
        assert cache.stats["predictor"].hits == 1
        assert cache.stats["predictor"].misses == 1

    def test_clone_matches_fresh_pretraining(self):
        cached = memo.get_cache().pretrained_predictor(GZIP, 42)
        from repro.core.branch import BranchPredictor

        fresh = BranchPredictor()
        TraceGenerator(GZIP, seed=42).pretrain_predictor(fresh)
        for table in ("_bimodal", "_pht", "_chooser", "_btb_tags",
                      "_btb_targets", "_btb_fill"):
            assert np.array_equal(getattr(cached, table), getattr(fresh, table))
        assert cached._history == fresh._history


class TestSimulationReuse:
    def test_warm_cache_is_bit_identical(self):
        cold = simulate_leading("gzip", ChipModel.TWO_D_A, window=TINY)
        warm = simulate_leading("gzip", ChipModel.TWO_D_A, window=TINY)
        assert dataclasses.asdict(cold) == dataclasses.asdict(warm)

    def test_memory_hierarchy_never_shared(self):
        from repro.experiments.runner import _prepare
        from repro.common.config import NucaPolicy

        _p, _l, mem_a, _pred_a, _t, _s = _prepare(
            "gzip", ChipModel.TWO_D_A, TINY, 42,
            NucaPolicy.DISTRIBUTED_SETS, None,
        )
        _p, _l, mem_b, _pred_b, _t, _s = _prepare(
            "gzip", ChipModel.TWO_D_A, TINY, 42,
            NucaPolicy.DISTRIBUTED_SETS, None,
        )
        assert mem_a is not mem_b
        assert _pred_a is not _pred_b


class TestThermalCache:
    def test_factorisation_reused_across_powers(self):
        cache = memo.get_cache()
        thermal = ThermalConfig()
        plan7 = standard_floorplan(ChipModel.THREE_D_2A, checker_power_w=7.0)
        plan15 = standard_floorplan(ChipModel.THREE_D_2A, checker_power_w=15.0)
        t7 = cache.solve_floorplan(plan7, thermal).peak_c
        t15 = cache.solve_floorplan(plan15, thermal).peak_c
        assert cache.stats["thermal"].misses == 1
        assert cache.stats["thermal"].hits == 1
        assert t15 > t7

    def test_cached_solve_matches_direct_model(self):
        from repro.thermal.hotspot import ChipThermalModel

        thermal = ThermalConfig()
        plan = standard_floorplan(ChipModel.THREE_D_2A, checker_power_w=15.0)
        direct = ChipThermalModel(plan, thermal).solve()
        cached = memo.get_cache().solve_floorplan(plan, thermal)
        assert cached.peak_c == pytest.approx(direct.peak_c, abs=1e-9)

    def test_overrides_do_not_stick(self):
        cache = memo.get_cache()
        thermal = ThermalConfig()
        plan = standard_floorplan(ChipModel.THREE_D_2A, checker_power_w=7.0)
        base = cache.solve_floorplan(plan, thermal).peak_c
        hot = cache.solve_floorplan(
            plan, thermal, overrides={"checker": 25.0}
        ).peak_c
        again = cache.solve_floorplan(plan, thermal).peak_c
        assert hot > base
        assert again == pytest.approx(base, abs=1e-12)

    def test_clear_cache(self):
        cache = memo.get_cache()
        cache.trace_arrays(GZIP, 42, 100)
        cache.pretrained_predictor(GZIP, 42)
        memo.clear_cache()
        assert cache.stats["trace"].requests == 0
        assert cache.stats["predictor"].requests == 0
