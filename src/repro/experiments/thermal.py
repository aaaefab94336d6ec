"""Thermal experiments: Figure 4, Figure 5, and the Section 3.2 variants.

Each driver builds powered floorplans (wire power computed from the
model's own interconnect budget), solves the HotSpot-style grid, and
returns rows shaped like the paper's figures.  Thermal models come from
the process-local artifact cache (:mod:`repro.common.memo`), so the
factorisation of each stack geometry happens once per process however
many power points are swept over it; the sweeps themselves run through
:mod:`repro.experiments.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import memo
from repro.common.config import ChipModel, ThermalConfig
from repro.experiments import engine
from repro.experiments.runner import (
    DEFAULT_WINDOW,
    SimulationWindow,
    simulate_leading,
)
from repro.floorplan.blocks import L2_BANK_STATIC_W
from repro.floorplan.layouts import CheckerPlacement, Floorplan, build_floorplan
from repro.interconnect.wires import wire_budget
from repro.power.wattch import CorePowerModel, l2_bank_power_w
from repro.workloads.profiles import WorkloadProfile, spec2k_suite

__all__ = [
    "standard_floorplan",
    "Fig4Row",
    "fig4_thermal_sweep",
    "Fig5Row",
    "fig5_per_benchmark",
    "thermal_variants",
]

# Nominal per-bank power when no per-benchmark access counts are supplied
# (static leakage plus a light dynamic share).
_NOMINAL_BANK_W = L2_BANK_STATIC_W + 0.05


def standard_floorplan(
    chip: ChipModel,
    checker_power_w: float = 7.0,
    leading_power_w: float = 35.0,
    bank_powers_w: list[float] | float | None = None,
    **kwargs,
) -> Floorplan:
    """A floorplan whose distributed wire power is its own wire budget.

    Builds once to measure the interconnect (Section 3.4), then rebuilds
    with that power spread over the dies.
    """
    if bank_powers_w is None:
        bank_powers_w = _NOMINAL_BANK_W
    probe = build_floorplan(
        chip,
        checker_power_w=checker_power_w,
        leading_power_w=leading_power_w,
        bank_powers_w=bank_powers_w,
        **kwargs,
    )
    wires = wire_budget(probe).total_power_w
    return build_floorplan(
        chip,
        checker_power_w=checker_power_w,
        leading_power_w=leading_power_w,
        bank_powers_w=bank_powers_w,
        wire_power_w=wires,
        **kwargs,
    )


# ---------------------------------------------------------------------
@dataclass
class Fig4Row:
    """One checker-power point of Figure 4."""

    checker_power_w: float
    temp_2d_2a_c: float
    temp_3d_2a_c: float
    temp_2d_a_c: float

    @property
    def delta_3d_vs_2da(self) -> float:
        """3D overhead over the unreliable baseline."""
        return self.temp_3d_2a_c - self.temp_2d_a_c

    @property
    def delta_3d_vs_2d2a(self) -> float:
        """3D overhead over the equal-transistor 2D chip."""
        return self.temp_3d_2a_c - self.temp_2d_2a_c


def _fig4_point(task: tuple[float, ThermalConfig]) -> tuple[float, float]:
    """(3d-2a peak, 2d-2a peak) at one checker power."""
    power, thermal = task
    cache = memo.get_cache()
    t3d = cache.solve_floorplan(
        standard_floorplan(ChipModel.THREE_D_2A, checker_power_w=power), thermal
    ).peak_c
    t2d = cache.solve_floorplan(
        standard_floorplan(ChipModel.TWO_D_2A, checker_power_w=power), thermal
    ).peak_c
    return t3d, t2d


def fig4_thermal_sweep(
    checker_powers_w: tuple[float, ...] = (2, 5, 7, 10, 15, 20, 25),
    thermal: ThermalConfig | None = None,
    jobs: int | None = None,
) -> list[Fig4Row]:
    """Peak temperature vs checker power for 2d-2a and 3d-2a (Figure 4)."""
    thermal = thermal or ThermalConfig()
    base = memo.get_cache().solve_floorplan(
        standard_floorplan(ChipModel.TWO_D_A), thermal
    ).peak_c
    points = engine.parallel_map(
        _fig4_point,
        [(power, thermal) for power in checker_powers_w],
        jobs=jobs,
        chunksize=2,
        label="fig4_thermal_sweep",
    )
    return [
        Fig4Row(power, t2d, t3d, base)
        for power, (t3d, t2d) in zip(checker_powers_w, points)
    ]


# ---------------------------------------------------------------------
@dataclass
class Fig5Row:
    """One benchmark's peak temperatures across the five configurations."""

    benchmark: str
    temp_2d_a: float
    temp_2d_2a_7w: float
    temp_3d_2a_7w: float
    temp_2d_2a_15w: float
    temp_3d_2a_15w: float


# The five Figure 5 configurations: label -> (chip model, checker power).
_FIG5_CONFIGS: dict[str, tuple[ChipModel, float]] = {
    "2d_a": (ChipModel.TWO_D_A, 0.0),
    "2d_2a_7W": (ChipModel.TWO_D_2A, 7.0),
    "3d_2a_7W": (ChipModel.THREE_D_2A, 7.0),
    "2d_2a_15W": (ChipModel.TWO_D_2A, 15.0),
    "3d_2a_15W": (ChipModel.THREE_D_2A, 15.0),
}


def _benchmark_powers(
    profile: WorkloadProfile,
    chip: ChipModel,
    window: SimulationWindow,
    seed: int,
) -> tuple[float, dict[str, float], list[float]]:
    """(core power, per-unit powers, per-bank powers) for one benchmark."""
    run = simulate_leading(profile, chip, window=window, seed=seed)
    model = CorePowerModel()
    breakdown = model.core_power(run)
    # Re-derive per-bank powers from relative access counts: total L2
    # accesses = L1 misses; distribute uniformly (distributed-sets policy
    # touches banks evenly, Section 3.1).
    accesses = run.op_counts.get("load", 0) * run.l1d_miss_rate
    per_bank = int(accesses / chip.l2_banks)
    bank_power = l2_bank_power_w(per_bank, run.cycles)
    return breakdown.total_w, breakdown.per_unit_w, [bank_power] * chip.l2_banks


def _fig5_row(
    task: tuple[WorkloadProfile, SimulationWindow, int, ThermalConfig],
) -> Fig5Row:
    """One benchmark's Figure 5 temperatures (runs in a worker)."""
    profile, window, seed, thermal = task
    cache = memo.get_cache()
    temps: dict[str, float] = {}
    cached_powers: dict[ChipModel, tuple] = {}
    for name, (chip, power) in _FIG5_CONFIGS.items():
        if chip not in cached_powers:
            cached_powers[chip] = _benchmark_powers(profile, chip, window, seed)
        _total_core, per_unit, banks = cached_powers[chip]
        overrides = dict(per_unit)
        for i, bank_power in enumerate(banks):
            overrides[f"bank{i}"] = bank_power
        plan = standard_floorplan(chip, checker_power_w=power)
        temps[name] = cache.solve_floorplan(
            plan, thermal, overrides=overrides
        ).peak_c
    return Fig5Row(
        benchmark=profile.name,
        temp_2d_a=temps["2d_a"],
        temp_2d_2a_7w=temps["2d_2a_7W"],
        temp_3d_2a_7w=temps["3d_2a_7W"],
        temp_2d_2a_15w=temps["2d_2a_15W"],
        temp_3d_2a_15w=temps["3d_2a_15W"],
    )


def fig5_per_benchmark(
    window: SimulationWindow = DEFAULT_WINDOW,
    thermal: ThermalConfig | None = None,
    seed: int = 42,
    benchmarks: list[WorkloadProfile] | None = None,
    jobs: int | None = None,
) -> list[Fig5Row]:
    """Per-benchmark peak temperature for the five configurations (Fig 5).

    Per-benchmark leading-core power comes from the Wattch-style activity
    model over a simulated window; the thermal model is factorised once
    per configuration and re-solved per benchmark.
    """
    thermal = thermal or ThermalConfig()
    benchmarks = benchmarks if benchmarks is not None else spec2k_suite()
    return engine.parallel_map(
        _fig5_row,
        [(profile, window, seed, thermal) for profile in benchmarks],
        jobs=jobs,
        chunksize=1,
        label="fig5_per_benchmark",
    )


# ---------------------------------------------------------------------
def thermal_variants(
    checker_power_w: float = 7.0, thermal: ThermalConfig | None = None
) -> dict[str, float]:
    """The Section 3.2 design-space probes, as peak-temperature deltas.

    Returns deltas (°C) relative to the standard 3d-2a chip at the same
    checker power for: ``inactive_top`` (upper-die cache replaced with
    inactive silicon), ``corner`` (checker moved to the band's corner),
    and ``double_density`` (checker area halved at constant power).
    """
    thermal = thermal or ThermalConfig()
    cache = memo.get_cache()
    reference = cache.solve_floorplan(
        standard_floorplan(ChipModel.THREE_D_2A, checker_power_w=checker_power_w),
        thermal,
    ).peak_c
    inactive = cache.solve_floorplan(
        standard_floorplan(
            ChipModel.THREE_D_2A,
            checker_power_w=checker_power_w,
            upper_die_cache=False,
        ),
        thermal,
    ).peak_c
    corner = cache.solve_floorplan(
        standard_floorplan(
            ChipModel.THREE_D_2A,
            checker_power_w=checker_power_w,
            checker_placement=CheckerPlacement.CORNER,
        ),
        thermal,
    ).peak_c
    doubled = cache.solve_floorplan(
        standard_floorplan(
            ChipModel.THREE_D_2A,
            checker_power_w=checker_power_w,
            checker_area_scale=0.5,
        ),
        thermal,
    ).peak_c
    return {
        "inactive_top": inactive - reference,
        "corner": corner - reference,
        "double_density": doubled - reference,
    }
