"""Experiment drivers: one per table and figure of the paper.

See DESIGN.md for the experiment index mapping each driver to the paper's
tables/figures and to the benchmark that regenerates it.
"""

from repro.experiments.ablations import (
    dfs_sensitivity,
    hard_error_failover,
    rvp_ablation,
    slack_sweep,
    tmr_comparison,
    transfer_latency_ablation,
)
from repro.experiments.calibration import (
    CalibrationRow,
    calibration_audit,
    suite_summary,
)
from repro.experiments.coverage import CoverageResult, fault_coverage_campaign
from repro.experiments.shared_cache import SharedCacheResult, shared_cache_pressure
from repro.experiments.error_performance import (
    ErrorPerformanceResult,
    RecoveryCostModel,
    checker_operating_point_comparison,
    error_performance,
)
from repro.experiments.frequency import Fig7Result, fig7_frequency_histogram
from repro.experiments.hetero import (
    HeteroCheckerResult,
    checker_power_at_node,
    section4_heterogeneous,
)
from repro.experiments.interconnect import (
    Table4Row,
    ViaSummary,
    section34_wire_analysis,
    table4_bandwidth,
    via_summary,
)
from repro.experiments.perf import (
    Fig6Row,
    average_ipc,
    fig6_performance,
    l2_statistics,
    nuca_policy_comparison,
)
from repro.experiments.pipeline_depth import (
    Table5Row,
    slack_comparison,
    table5_pipeline_power,
)
from repro.experiments.engine import (
    SweepTiming,
    format_timing_summary,
    parallel_map,
    resolve_executor,
    resolve_jobs,
    run_sweep,
    timing_summary,
)
from repro.experiments.runner import (
    DEFAULT_WINDOW,
    SimTask,
    SimulationWindow,
    build_memory,
    run_sim_task,
    simulate_leading,
    simulate_rmt,
)
from repro.experiments.technology import (
    Table8Row,
    fig8_ser_scaling,
    fig9_mbu_curve,
    table6_variability,
    table7_devices,
    table8_power_ratios,
)
from repro.experiments.thermal import (
    Fig4Row,
    Fig5Row,
    fig4_thermal_sweep,
    fig5_per_benchmark,
    standard_floorplan,
    thermal_variants,
)
from repro.experiments.thermal_constraint import (
    ThermalConstraintResult,
    constant_thermal_performance,
    thermally_equivalent_frequency,
)

from repro.experiments.report import generate_report

__all__ = [
    "dfs_sensitivity",
    "hard_error_failover",
    "rvp_ablation",
    "slack_sweep",
    "tmr_comparison",
    "transfer_latency_ablation",
    "ErrorPerformanceResult",
    "RecoveryCostModel",
    "checker_operating_point_comparison",
    "error_performance",
    "generate_report",
    "CalibrationRow",
    "calibration_audit",
    "suite_summary",
    "SharedCacheResult",
    "shared_cache_pressure",
    "CoverageResult",
    "fault_coverage_campaign",
    "Fig7Result",
    "fig7_frequency_histogram",
    "HeteroCheckerResult",
    "checker_power_at_node",
    "section4_heterogeneous",
    "Table4Row",
    "ViaSummary",
    "section34_wire_analysis",
    "table4_bandwidth",
    "via_summary",
    "Fig6Row",
    "average_ipc",
    "fig6_performance",
    "l2_statistics",
    "nuca_policy_comparison",
    "Table5Row",
    "slack_comparison",
    "table5_pipeline_power",
    "resolve_executor",
    "DEFAULT_WINDOW",
    "SimTask",
    "SimulationWindow",
    "SweepTiming",
    "build_memory",
    "format_timing_summary",
    "parallel_map",
    "resolve_jobs",
    "run_sim_task",
    "run_sweep",
    "simulate_leading",
    "simulate_rmt",
    "timing_summary",
    "Table8Row",
    "fig8_ser_scaling",
    "fig9_mbu_curve",
    "table6_variability",
    "table7_devices",
    "table8_power_ratios",
    "Fig4Row",
    "Fig5Row",
    "fig4_thermal_sweep",
    "fig5_per_benchmark",
    "standard_floorplan",
    "thermal_variants",
    "ThermalConstraintResult",
    "constant_thermal_performance",
    "thermally_equivalent_frequency",
]
