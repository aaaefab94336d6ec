"""Configuration dataclasses for every simulated subsystem.

The defaults reproduce Table 1 (SimpleScalar simulation parameters) and
Table 3 (thermal model parameters) of the paper.  Configs are frozen so a
config object can be shared between components without defensive copying.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError

__all__ = [
    "BranchPredictorConfig",
    "CacheGeometry",
    "LeadingCoreConfig",
    "CheckerCoreConfig",
    "QueueConfig",
    "DfsConfig",
    "NucaPolicy",
    "NucaConfig",
    "ChipModel",
    "ThermalConfig",
    "SystemConfig",
]


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Combined bimodal / 2-level predictor with BTB (Table 1)."""

    bimodal_entries: int = 16384
    level1_entries: int = 16384
    history_bits: int = 12
    level2_entries: int = 16384
    btb_sets: int = 16384
    btb_ways: int = 2
    mispredict_penalty_cycles: int = 12

    def __post_init__(self) -> None:
        for name in ("bimodal_entries", "level1_entries", "level2_entries"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ConfigError(f"{name} must be a positive power of two")


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache."""

    size_bytes: int = 32 * 1024
    ways: int = 2
    line_bytes: int = 64
    hit_latency_cycles: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ConfigError(
                "cache size must be a multiple of ways * line size: "
                f"{self.size_bytes} vs {self.ways}x{self.line_bytes}"
            )
        sets = self.num_sets
        if sets & (sets - 1):
            raise ConfigError(f"number of sets must be a power of two, got {sets}")

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class LeadingCoreConfig:
    """Out-of-order leading core (Table 1 defaults)."""

    fetch_width: int = 4
    dispatch_width: int = 4
    commit_width: int = 4
    rob_size: int = 80
    int_issue_queue_size: int = 20
    fp_issue_queue_size: int = 15
    lsq_size: int = 40
    int_alus: int = 4
    int_mults: int = 2
    fp_alus: int = 1
    fp_mults: int = 1
    l1_icache: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(hit_latency_cycles=1)
    )
    l1_dcache: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(hit_latency_cycles=2)
    )
    frequency_hz: float = 2.0e9
    memory_latency_cycles: int = 300

    def __post_init__(self) -> None:
        if self.rob_size <= 0:
            raise ConfigError("rob_size must be positive")
        if self.fetch_width <= 0 or self.commit_width <= 0:
            raise ConfigError("fetch/commit width must be positive")

    def scaled_frequency(self, factor: float) -> "LeadingCoreConfig":
        """A copy of this config with frequency multiplied by ``factor``."""
        return replace(self, frequency_hz=self.frequency_hz * factor)


@dataclass(frozen=True)
class QueueConfig:
    """Sizes of the inter-core queues (Section 2.1: slack of 200)."""

    slack_target: int = 200
    rvq_entries: int = 200
    lvq_entries: int = 80
    boq_entries: int = 40
    stb_entries: int = 40

    def __post_init__(self) -> None:
        if self.rvq_entries < self.slack_target:
            raise ConfigError(
                "RVQ must hold at least the target slack "
                f"({self.rvq_entries} < {self.slack_target})"
            )


@dataclass(frozen=True)
class DfsConfig:
    """Dynamic frequency scaling of the trailing core (Section 2.1).

    The checker's frequency is chosen from ``num_levels`` evenly spaced
    multipliers of the peak frequency, re-evaluated every
    ``interval_cycles`` leading-core cycles based on RVQ occupancy
    thresholds (expressed as fractions of RVQ capacity).
    """

    num_levels: int = 10
    interval_cycles: int = 1000
    low_occupancy_threshold: float = 0.15
    high_occupancy_threshold: float = 0.40
    # Scaling up reacts faster than scaling down: the less aggressive
    # heuristic the paper settles on (Section 4, Discussion) protects the
    # leading core's throughput at a small power cost.
    up_step: int = 2
    down_step: int = 1
    min_level: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.low_occupancy_threshold < self.high_occupancy_threshold <= 1.0:
            raise ConfigError("DFS thresholds must satisfy 0 <= low < high <= 1")
        if not 1 <= self.min_level <= self.num_levels:
            raise ConfigError("min_level must be within [1, num_levels]")

    def levels(self) -> list[float]:
        """The available frequency multipliers, ascending (e.g. 0.1 .. 1.0)."""
        return [i / self.num_levels for i in range(1, self.num_levels + 1)]


@dataclass(frozen=True)
class CheckerCoreConfig:
    """In-order trailing checker core (Section 2)."""

    issue_width: int = 4
    peak_frequency_hz: float = 2.0e9
    uses_register_value_prediction: bool = True
    queues: QueueConfig = field(default_factory=QueueConfig)
    dfs: DfsConfig = field(default_factory=DfsConfig)

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ConfigError("issue_width must be positive")
        if self.peak_frequency_hz <= 0:
            raise ConfigError("peak_frequency_hz must be positive")


class NucaPolicy(enum.Enum):
    """How the NUCA L2 maps blocks to banks (Section 3.1)."""

    DISTRIBUTED_SETS = "distributed-sets"
    DISTRIBUTED_WAYS = "distributed-ways"


@dataclass(frozen=True)
class NucaConfig:
    """NUCA L2 cache: 1 MB banks on a grid, 4-cycle hops (Section 3.1)."""

    num_banks: int = 6
    bank_size_bytes: int = 1024 * 1024
    line_bytes: int = 64
    bank_access_cycles: int = 6
    hop_cycles: int = 4
    policy: NucaPolicy = NucaPolicy.DISTRIBUTED_SETS

    def __post_init__(self) -> None:
        if self.num_banks <= 0:
            raise ConfigError("num_banks must be positive")

    @property
    def total_size_bytes(self) -> int:
        """Total L2 capacity across banks."""
        return self.num_banks * self.bank_size_bytes


class ChipModel(enum.Enum):
    """The four chip organizations evaluated in the paper."""

    TWO_D_A = "2d-a"          # single die, 6 MB L2, no checker
    TWO_D_2A = "2d-2a"        # single big die, 15 MB L2 + checker
    THREE_D_2A = "3d-2a"      # stacked: checker + 9 MB extra L2 on die 2
    THREE_D_CHECKER = "3d-checker"  # stacked: checker only on die 2

    @property
    def has_checker(self) -> bool:
        """Whether this model includes the trailing checker core."""
        return self is not ChipModel.TWO_D_A

    @property
    def is_3d(self) -> bool:
        """Whether this model stacks a second die."""
        return self in (ChipModel.THREE_D_2A, ChipModel.THREE_D_CHECKER)

    @property
    def l2_banks(self) -> int:
        """Number of 1 MB L2 banks in this model."""
        if self in (ChipModel.TWO_D_A, ChipModel.THREE_D_CHECKER):
            return 6
        return 15


@dataclass(frozen=True)
class ThermalConfig:
    """Thermal model parameters (Table 3)."""

    bulk_si_thickness_die1_m: float = 750e-6
    bulk_si_thickness_die2_m: float = 20e-6
    active_layer_thickness_m: float = 1e-6
    metal_layer_thickness_m: float = 12e-6
    d2d_via_thickness_m: float = 10e-6
    si_resistivity_mk_per_w: float = 0.01      # (m K)/W
    cu_resistivity_mk_per_w: float = 0.0833    # (m K)/W
    d2d_resistivity_mk_per_w: float = 0.0166   # (m K)/W
    grid_rows: int = 50
    grid_cols: int = 50
    ambient_c: float = 47.0
    # Package: convective resistance from the heat-sink side to ambient in
    # K·mm²/W (divide by die area for K/W) — a bigger die gets a bigger
    # sink, as the paper notes for the 2d-2a model (Section 3.1).
    heatsink_resistance_k_per_w_mm2: float = 1.5
    # Secondary (top-of-package) heat path; much weaker than the sink.
    secondary_resistance_k_per_w_mm2: float = 1500.0

    def __post_init__(self) -> None:
        if self.grid_rows <= 1 or self.grid_cols <= 1:
            raise ConfigError("thermal grid must be at least 2x2")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration of one simulated reliable processor."""

    chip: ChipModel = ChipModel.THREE_D_2A
    leading: LeadingCoreConfig = field(default_factory=LeadingCoreConfig)
    checker: CheckerCoreConfig = field(default_factory=CheckerCoreConfig)
    nuca: NucaConfig = field(default_factory=NucaConfig)
    thermal: ThermalConfig = field(default_factory=ThermalConfig)
    checker_power_w: float = 7.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.checker_power_w < 0:
            raise ConfigError("checker_power_w must be non-negative")

    @staticmethod
    def for_chip(chip: ChipModel, checker_power_w: float = 7.0, seed: int = 42) -> "SystemConfig":
        """Build the standard configuration for one of the paper's models.

        ``2d-a``/``3d-checker`` get a 6-bank L2; ``2d-2a``/``3d-2a`` get
        15 banks, matching Section 3.1.
        """
        nuca = NucaConfig(num_banks=chip.l2_banks)
        return SystemConfig(
            chip=chip, nuca=nuca, checker_power_w=checker_power_w, seed=seed
        )
