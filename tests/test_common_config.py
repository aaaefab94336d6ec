"""Configuration dataclasses and their validation."""

import pytest

from repro.common.config import (
    BranchPredictorConfig,
    CacheGeometry,
    CheckerCoreConfig,
    ChipModel,
    DfsConfig,
    LeadingCoreConfig,
    NucaConfig,
    NucaPolicy,
    QueueConfig,
    SystemConfig,
    ThermalConfig,
)
from repro.common.errors import ConfigError


class TestCacheGeometry:
    def test_table1_l1(self):
        geometry = CacheGeometry()
        assert geometry.size_bytes == 32 * 1024
        assert geometry.ways == 2
        assert geometry.num_sets == 256

    def test_bad_size_rejected(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=1000)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=3 * 64 * 2, ways=2, line_bytes=64)


class TestBranchPredictorConfig:
    def test_table1_defaults(self):
        cfg = BranchPredictorConfig()
        assert cfg.bimodal_entries == 16384
        assert cfg.history_bits == 12
        assert cfg.mispredict_penalty_cycles == 12
        assert cfg.btb_sets == 16384
        assert cfg.btb_ways == 2

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            BranchPredictorConfig(bimodal_entries=1000)


class TestLeadingCoreConfig:
    def test_table1_defaults(self):
        cfg = LeadingCoreConfig()
        assert cfg.fetch_width == 4
        assert cfg.rob_size == 80
        assert cfg.int_issue_queue_size == 20
        assert cfg.fp_issue_queue_size == 15
        assert cfg.lsq_size == 40
        assert cfg.int_alus == 4 and cfg.int_mults == 2
        assert cfg.fp_alus == 1 and cfg.fp_mults == 1
        assert cfg.frequency_hz == 2.0e9
        assert cfg.memory_latency_cycles == 300

    def test_scaled_frequency(self):
        scaled = LeadingCoreConfig().scaled_frequency(0.9)
        assert scaled.frequency_hz == pytest.approx(1.8e9)

    def test_invalid_rob_rejected(self):
        with pytest.raises(ConfigError):
            LeadingCoreConfig(rob_size=0)


class TestQueueConfig:
    def test_section21_sizes(self):
        cfg = QueueConfig()
        assert cfg.slack_target == 200
        assert cfg.rvq_entries == 200
        assert cfg.lvq_entries == 80
        assert cfg.boq_entries == 40
        assert cfg.stb_entries == 40

    def test_rvq_must_cover_slack(self):
        with pytest.raises(ConfigError):
            QueueConfig(slack_target=300, rvq_entries=200)


class TestDfsConfig:
    def test_levels(self):
        levels = DfsConfig().levels()
        assert levels[0] == pytest.approx(0.1)
        assert levels[-1] == pytest.approx(1.0)
        assert len(levels) == 10

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            DfsConfig(low_occupancy_threshold=0.8, high_occupancy_threshold=0.4)

    def test_min_level_validation(self):
        with pytest.raises(ConfigError):
            DfsConfig(min_level=0)


class TestChipModel:
    def test_checker_presence(self):
        assert not ChipModel.TWO_D_A.has_checker
        assert ChipModel.TWO_D_2A.has_checker
        assert ChipModel.THREE_D_2A.has_checker
        assert ChipModel.THREE_D_CHECKER.has_checker

    def test_dimensionality(self):
        assert not ChipModel.TWO_D_A.is_3d
        assert not ChipModel.TWO_D_2A.is_3d
        assert ChipModel.THREE_D_2A.is_3d
        assert ChipModel.THREE_D_CHECKER.is_3d

    def test_bank_counts(self):
        assert ChipModel.TWO_D_A.l2_banks == 6
        assert ChipModel.TWO_D_2A.l2_banks == 15
        assert ChipModel.THREE_D_2A.l2_banks == 15
        assert ChipModel.THREE_D_CHECKER.l2_banks == 6


class TestNucaConfig:
    def test_totals(self):
        cfg = NucaConfig(num_banks=15)
        assert cfg.total_size_bytes == 15 * 1024 * 1024

    def test_bank_ways_is_not_a_field(self):
        # Associativity follows from num_banks and the placement policy
        # (see NucaCache.total_ways); a per-bank way count would be
        # accepted and ignored.
        with pytest.raises(TypeError):
            NucaConfig(bank_ways=2)

    def test_policy_default_is_sets(self):
        assert NucaConfig().policy is NucaPolicy.DISTRIBUTED_SETS


class TestThermalConfig:
    def test_table3_values(self):
        cfg = ThermalConfig()
        assert cfg.bulk_si_thickness_die1_m == pytest.approx(750e-6)
        assert cfg.bulk_si_thickness_die2_m == pytest.approx(20e-6)
        assert cfg.active_layer_thickness_m == pytest.approx(1e-6)
        assert cfg.metal_layer_thickness_m == pytest.approx(12e-6)
        assert cfg.d2d_via_thickness_m == pytest.approx(10e-6)
        assert cfg.si_resistivity_mk_per_w == pytest.approx(0.01)
        assert cfg.cu_resistivity_mk_per_w == pytest.approx(0.0833)
        assert cfg.d2d_resistivity_mk_per_w == pytest.approx(0.0166)
        assert cfg.grid_rows == 50 and cfg.grid_cols == 50
        assert cfg.ambient_c == pytest.approx(47.0)

    def test_tiny_grid_rejected(self):
        with pytest.raises(ConfigError):
            ThermalConfig(grid_rows=1)


class TestSystemConfig:
    def test_for_chip_sets_banks(self):
        cfg = SystemConfig.for_chip(ChipModel.TWO_D_A)
        assert cfg.nuca.num_banks == 6
        cfg15 = SystemConfig.for_chip(ChipModel.THREE_D_2A)
        assert cfg15.nuca.num_banks == 15

    def test_negative_checker_power_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(checker_power_w=-1.0)
