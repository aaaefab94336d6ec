"""Shared experiment plumbing: build and run one benchmark on one chip model.

All experiment drivers (one per table/figure of the paper) funnel through
these helpers so that every result in EXPERIMENTS.md comes from the same
simulation pipeline, whether a sweep runs serially or through the
parallel engine (:mod:`repro.experiments.engine`).  Immutable artifacts —
the generated trace and the pretrained predictor state — come from the
process-local cache in :mod:`repro.common.memo`; mutable state (the
memory hierarchy, queues, DFS controllers) is rebuilt per simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import memo
from repro.common.config import (
    CheckerCoreConfig,
    ChipModel,
    LeadingCoreConfig,
    NucaConfig,
    NucaPolicy,
)
from repro.common.errors import ConfigError
from repro.core.leading import LeadingCoreTiming, LeadingRunResult
from repro.core.memory import MemoryHierarchy
from repro.core.rmt import RmtSimulator, RmtTimingResult
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.workloads.profiles import WorkloadProfile, get_profile

__all__ = [
    "SimulationWindow",
    "build_memory",
    "simulate_leading",
    "simulate_rmt",
    "SimTask",
    "run_sim_task",
    "DEFAULT_WINDOW",
]


@dataclass(frozen=True)
class SimulationWindow:
    """How many instructions to warm up and to measure.

    The paper measures 100M-instruction SimPoint windows; a pure-Python
    simulator measures proportionally smaller windows after explicit cache
    preloading and predictor pre-training, which recover the steady-state
    behaviour the long window would produce.
    """

    warmup: int = 10_000
    measured: int = 40_000

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")
        if self.measured < 1:
            raise ConfigError(f"measured must be >= 1, got {self.measured}")

    @property
    def total(self) -> int:
        """Warmup plus measured instruction count."""
        return self.warmup + self.measured


DEFAULT_WINDOW = SimulationWindow()


def build_memory(
    chip: ChipModel,
    leading: LeadingCoreConfig | None = None,
    policy: NucaPolicy = NucaPolicy.DISTRIBUTED_SETS,
) -> MemoryHierarchy:
    """The memory hierarchy for one of the paper's chip models."""
    leading = leading or LeadingCoreConfig()
    nuca = NucaConfig(num_banks=chip.l2_banks, policy=policy)
    return MemoryHierarchy(leading, nuca, chip)


def _prepare(
    profile: WorkloadProfile | str,
    chip: ChipModel,
    window: SimulationWindow,
    seed: int,
    policy: NucaPolicy,
    leading: LeadingCoreConfig | None,
):
    if isinstance(profile, str):
        profile = get_profile(profile)
    leading = leading or LeadingCoreConfig()
    # The hierarchy is stateful (tags mutate during the run), so it is
    # rebuilt and re-preloaded for every simulation; the trace, the
    # pretrained predictor (as a shared branch-stream view) and the
    # kernel's trace schedule are memoized.
    with span("sim.prepare"):
        memory = build_memory(chip, leading, policy)
        memory.preload_profile(profile)
        cache = memo.get_cache()
        with span("sim.predictor"):
            predictor = cache.branch_stream_view(profile, seed)
        with span("sim.trace"):
            trace = cache.trace_arrays(profile, seed, window.total)
        with span("sim.schedule"):
            schedule = cache.trace_schedule(
                profile, seed, window.total, leading
            )
    return profile, leading, memory, predictor, trace, schedule


def _publish_sim_metrics(result: LeadingRunResult, memory: MemoryHierarchy) -> None:
    """Push one simulation's leading-core totals into the registry.

    Runs once per simulation so the per-instruction scheduler loop stays
    uninstrumented; the NUCA L2 publishes its own policy-tagged totals.
    """
    m = get_registry()
    m.counter("sim.instructions_retired").inc(result.instructions)
    m.counter("sim.cycles").inc(result.cycles)
    for op, count in result.op_counts.items():
        if count:
            m.counter(f"sim.ops.{op}").inc(count)
    m.counter("l1d.hits").inc(memory.l1d.hits)
    m.counter("l1d.misses").inc(memory.l1d.misses)
    memory.l2.publish_metrics()


def simulate_leading(
    profile: WorkloadProfile | str,
    chip: ChipModel = ChipModel.TWO_D_A,
    window: SimulationWindow = DEFAULT_WINDOW,
    seed: int = 42,
    policy: NucaPolicy = NucaPolicy.DISTRIBUTED_SETS,
    leading: LeadingCoreConfig | None = None,
) -> LeadingRunResult:
    """Run one benchmark's leading core alone (no checker) on ``chip``."""
    profile, leading, memory, predictor, trace, schedule = _prepare(
        profile, chip, window, seed, policy, leading
    )
    core = LeadingCoreTiming(leading, memory, predictor)
    with span("sim.leading"):
        result = core.run(trace, warmup=window.warmup, schedule=schedule)
    _publish_sim_metrics(result, memory)
    return result


def simulate_rmt(
    profile: WorkloadProfile | str,
    chip: ChipModel = ChipModel.THREE_D_2A,
    window: SimulationWindow = DEFAULT_WINDOW,
    seed: int = 42,
    policy: NucaPolicy = NucaPolicy.DISTRIBUTED_SETS,
    leading: LeadingCoreConfig | None = None,
    checker: CheckerCoreConfig | None = None,
    checker_peak_ratio: float = 1.0,
) -> RmtTimingResult:
    """Co-simulate leading + checker for one benchmark on ``chip``.

    The inter-core transfer latency follows the chip model: ~1 cycle over
    3D inter-die vias, ~4 cycles over 2D global wires (Section 3).
    """
    profile, leading, memory, predictor, trace, schedule = _prepare(
        profile, chip, window, seed, policy, leading
    )
    checker = checker or CheckerCoreConfig()
    simulator = RmtSimulator(
        leading_config=leading,
        checker_config=checker,
        memory=memory,
        predictor=predictor,
        transfer_latency_cycles=1 if chip.is_3d else 4,
        checker_peak_ratio=checker_peak_ratio,
    )
    with span("sim.rmt"):
        result = simulator.run(trace, warmup=window.warmup, schedule=schedule)
    _publish_sim_metrics(result.leading, memory)
    return result


# ---------------------------------------------------------------------
@dataclass(frozen=True)
class SimTask:
    """One simulation of a sweep, as a picklable work item.

    The experiment drivers describe their nested loops as flat lists of
    these and hand them to the engine; :func:`run_sim_task` executes one
    in whichever process it lands in.  Every field is hashable/frozen, so
    tasks cross the process boundary cheaply and deterministically.
    """

    kind: str                       # "leading" | "rmt"
    profile: WorkloadProfile
    chip: ChipModel
    window: SimulationWindow
    seed: int = 42
    policy: NucaPolicy = NucaPolicy.DISTRIBUTED_SETS
    leading: LeadingCoreConfig | None = None
    checker: CheckerCoreConfig | None = None
    checker_peak_ratio: float = 1.0

    def task_key(self) -> str:
        """A human-readable, stable identity for sweep checkpoints.

        The leading fields name the simulation; the trailing ``repr``
        covers every remaining knob, so any parameter change produces a
        different key and a resumed sweep never reuses a stale result.
        """
        return (
            f"{self.kind}:{self.profile.name}:{self.chip.value}:"
            f"w{self.window.warmup}+{self.window.measured}:s{self.seed}:"
            f"{self.policy.value}:{repr(self)}"
        )


def run_sim_task(task: SimTask) -> LeadingRunResult | RmtTimingResult:
    """Execute one :class:`SimTask` (the engine's worker function)."""
    if task.kind == "leading":
        return simulate_leading(
            task.profile,
            task.chip,
            window=task.window,
            seed=task.seed,
            policy=task.policy,
            leading=task.leading,
        )
    if task.kind == "rmt":
        return simulate_rmt(
            task.profile,
            task.chip,
            window=task.window,
            seed=task.seed,
            policy=task.policy,
            leading=task.leading,
            checker=task.checker,
            checker_peak_ratio=task.checker_peak_ratio,
        )
    raise ValueError(f"unknown simulation kind {task.kind!r}")
