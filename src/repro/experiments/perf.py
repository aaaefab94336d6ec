"""Performance experiments: Figure 6 and the NUCA policy comparison.

Figure 6 plots per-benchmark IPC for the four chip models under the
distributed-sets NUCA policy.  Models with a checker run the full RMT
co-simulation (leading + trailing + DFS), which also demonstrates the
checker's negligible impact on the leading core.

All sweeps here are flat lists of independent ``(benchmark x chip/policy)``
simulations executed through :mod:`repro.experiments.engine`; inner loops
are benchmark-major so the memoized trace of one benchmark is reused
across every chip model and policy before the cache moves on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import ChipModel, NucaPolicy
from repro.experiments import engine
from repro.experiments.runner import (
    DEFAULT_WINDOW,
    SimTask,
    SimulationWindow,
    run_sim_task,
)
from repro.workloads.profiles import WorkloadProfile, spec2k_suite

__all__ = [
    "Fig6Row",
    "fig6_performance",
    "average_ipc",
    "nuca_policy_comparison",
    "l2_statistics",
]

_MODELS = (
    ChipModel.TWO_D_A,
    ChipModel.TWO_D_2A,
    ChipModel.THREE_D_2A,
    ChipModel.THREE_D_CHECKER,
)


@dataclass
class Fig6Row:
    """One benchmark's IPC across the four chip models."""

    benchmark: str
    ipc: dict[str, float]   # chip model value -> IPC

    def __getitem__(self, chip: ChipModel) -> float:
        return self.ipc[chip.value]


def fig6_performance(
    window: SimulationWindow = DEFAULT_WINDOW,
    policy: NucaPolicy = NucaPolicy.DISTRIBUTED_SETS,
    seed: int = 42,
    benchmarks: list[WorkloadProfile] | None = None,
    models: tuple[ChipModel, ...] = _MODELS,
    jobs: int | None = None,
) -> list[Fig6Row]:
    """IPC of every benchmark on every chip model (Figure 6).

    One chunk per benchmark (its chip models) keeps each benchmark's
    memoized trace on one worker.
    """
    benchmarks = benchmarks if benchmarks is not None else spec2k_suite()
    tasks = [
        SimTask(
            kind="rmt" if chip.has_checker else "leading",
            profile=profile,
            chip=chip,
            window=window,
            seed=seed,
            policy=policy,
        )
        for profile in benchmarks
        for chip in models
    ]
    results = engine.parallel_map(
        run_sim_task, tasks, jobs=jobs, chunksize=len(models),
        label="fig6_performance",
    )
    rows = []
    for b, profile in enumerate(benchmarks):
        ipc: dict[str, float] = {}
        for m, chip in enumerate(models):
            result = results[b * len(models) + m]
            ipc[chip.value] = (
                result.leading.ipc if chip.has_checker else result.ipc
            )
        rows.append(Fig6Row(profile.name, ipc))
    return rows


def average_ipc(rows: list[Fig6Row]) -> dict[str, float]:
    """Arithmetic-mean IPC per chip model over a Figure 6 result set."""
    if not rows:
        return {}
    totals: dict[str, float] = {}
    for row in rows:
        for chip, value in row.ipc.items():
            totals[chip] = totals.get(chip, 0.0) + value
    return {chip: total / len(rows) for chip, total in totals.items()}


def nuca_policy_comparison(
    window: SimulationWindow = DEFAULT_WINDOW,
    seed: int = 42,
    benchmarks: list[WorkloadProfile] | None = None,
    chip: ChipModel = ChipModel.THREE_D_2A,
    jobs: int | None = None,
) -> dict[str, float]:
    """Distributed-sets vs distributed-ways mean IPC (Section 3.3).

    The paper reports the distributed-way policy is slightly (< 2%)
    better because blocks migrate toward the controller.  The comparison
    uses the 15-bank organization, where dedicating one bank position to
    the centralized tag array costs a negligible 1/15th of capacity.
    """
    benchmarks = benchmarks if benchmarks is not None else spec2k_suite()
    policies = (NucaPolicy.DISTRIBUTED_SETS, NucaPolicy.DISTRIBUTED_WAYS)
    # Benchmark-major so both policies reuse one memoized trace.
    tasks = [
        SimTask(
            kind="leading", profile=profile, chip=chip, window=window,
            seed=seed, policy=policy,
        )
        for profile in benchmarks
        for policy in policies
    ]
    results = engine.parallel_map(
        run_sim_task, tasks, jobs=jobs, chunksize=len(policies),
        label="nuca_policy_comparison",
    )
    totals = {policy: 0.0 for policy in policies}
    for i, task in enumerate(tasks):
        totals[task.policy] += results[i].ipc
    return {
        policy.value: total / len(benchmarks)
        for policy, total in totals.items()
    }


def l2_statistics(
    window: SimulationWindow = DEFAULT_WINDOW,
    seed: int = 42,
    benchmarks: list[WorkloadProfile] | None = None,
    jobs: int | None = None,
) -> dict[str, float]:
    """The Section 3.3 cache numbers: misses/10k and mean hit latency.

    Paper values: 1.43 → 1.25 misses per 10k instructions from 6 MB to
    15 MB, and 18 → 22 cycles average hit latency from 2d-a to 2d-2a.
    """
    benchmarks = benchmarks if benchmarks is not None else spec2k_suite()
    configs = ((ChipModel.TWO_D_A, "6mb"), (ChipModel.TWO_D_2A, "15mb"))
    # Benchmark-major so both capacities reuse one memoized trace.
    tasks = [
        SimTask(
            kind="leading", profile=profile, chip=chip, window=window,
            seed=seed,
        )
        for profile in benchmarks
        for chip, _tag in configs
    ]
    results = engine.parallel_map(
        run_sim_task, tasks, jobs=jobs, chunksize=len(configs),
        label="l2_statistics",
    )
    misses = {tag: 0.0 for _chip, tag in configs}
    latency = {tag: 0.0 for _chip, tag in configs}
    for b in range(len(benchmarks)):
        for c, (_chip, tag) in enumerate(configs):
            run = results[b * len(configs) + c]
            misses[tag] += run.l2_misses_per_10k
            latency[tag] += run.average_l2_hit_latency
    out = {}
    for _chip, tag in configs:
        out[f"misses_per_10k_{tag}"] = misses[tag] / len(benchmarks)
        out[f"avg_hit_latency_{tag}"] = latency[tag] / len(benchmarks)
    return out
