"""The experiment runner plumbing."""

import pytest

from repro.common.config import ChipModel, LeadingCoreConfig, NucaPolicy
from repro.common.errors import ConfigError
from repro.experiments.runner import (
    DEFAULT_WINDOW,
    SimulationWindow,
    build_memory,
    simulate_leading,
    simulate_rmt,
)
from repro.workloads.profiles import get_profile

TINY = SimulationWindow(warmup=1000, measured=4000)


class TestWindow:
    def test_total(self):
        assert SimulationWindow(1000, 4000).total == 5000
        assert SimulationWindow(0, 1).total == 1

    def test_default_window(self):
        assert DEFAULT_WINDOW.measured >= 10_000

    @pytest.mark.parametrize(
        "warmup,measured", [(1000, -5), (1000, 0), (-10, 2000), (-1, 0)]
    )
    def test_impossible_window_rejected(self, warmup, measured):
        with pytest.raises(ConfigError):
            SimulationWindow(warmup, measured)

    def test_validation_leaves_repr_unchanged(self):
        assert repr(SimulationWindow(1000, 4000)) == (
            "SimulationWindow(warmup=1000, measured=4000)"
        )


class TestBuildMemory:
    def test_bank_count_follows_chip(self):
        assert build_memory(ChipModel.TWO_D_A).l2.config.num_banks == 6
        assert build_memory(ChipModel.THREE_D_2A).l2.config.num_banks == 15

    def test_policy_passthrough(self):
        memory = build_memory(ChipModel.TWO_D_A, policy=NucaPolicy.DISTRIBUTED_WAYS)
        assert memory.l2.config.policy is NucaPolicy.DISTRIBUTED_WAYS


class TestSimulateLeading:
    def test_accepts_profile_or_name(self):
        by_name = simulate_leading("gzip", window=TINY)
        by_profile = simulate_leading(get_profile("gzip"), window=TINY)
        assert by_name.ipc == by_profile.ipc

    def test_seed_determinism(self):
        a = simulate_leading("gzip", window=TINY, seed=5)
        b = simulate_leading("gzip", window=TINY, seed=5)
        assert a.ipc == b.ipc

    def test_seed_sensitivity(self):
        a = simulate_leading("gzip", window=TINY, seed=5)
        b = simulate_leading("gzip", window=TINY, seed=6)
        assert a.ipc != b.ipc

    def test_custom_core_config(self):
        narrow = LeadingCoreConfig(rob_size=8, lsq_size=8)
        wide = simulate_leading("gzip", window=TINY)
        small = simulate_leading("gzip", window=TINY, leading=narrow)
        assert small.ipc < wide.ipc

    def test_bigger_cache_never_misses_more(self):
        small = simulate_leading("mcf", window=TINY, chip=ChipModel.TWO_D_A)
        big = simulate_leading("mcf", window=TINY, chip=ChipModel.TWO_D_2A)
        assert big.l2_misses_per_10k <= small.l2_misses_per_10k + 0.5


class TestSimulateRmt:
    def test_transfer_latency_follows_chip(self):
        # Indirect check: both run fine and count all instructions.
        for chip in (ChipModel.TWO_D_2A, ChipModel.THREE_D_2A):
            result = simulate_rmt("gzip", chip, window=TINY)
            assert result.checker_instructions == TINY.total

    def test_checker_peak_cap(self):
        result = simulate_rmt("mesa", window=TINY, checker_peak_ratio=0.5)
        levels = [l for l, f in result.frequency_residency.items() if f > 0]
        assert max(levels) <= 0.5 + 1e-9
