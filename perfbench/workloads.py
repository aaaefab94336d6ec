"""The benchmark's workloads: their inputs, driver calls and output checks.

Each workload runs the paper's own experiment drivers, exactly as the CLI
does, and owns nothing else.  Load comes from one closed-loop caller that
waits for each sweep before it starts the next; only fig6-sweep uses worker
processes, at most ``nproc`` of them (2 on the reference machine).  The
memo caches start empty on every pass, as they do for a CLI user; the
modelled caches and predictors are preloaded and then warmed by each
driver's warm-up window, as in every paper experiment.

Why these workloads:

* ``fig6-sweep`` -- the paper's headline experiment (Fig 6): all 19 SPEC2k
  profiles on the 4 chip models, 76 short simulations (6k warm-up + 20k
  measured, the window EXPERIMENTS.md quotes) on the per-task path with
  jobs=2, as ``repro fig6 --jobs 2`` runs it.  Per-simulation fixed costs
  (NUCA preload, predictor pretraining, schedule build, trace generation)
  and engine fan-out are a large share of its time, and the profiles span
  L1-resident (eon, mesa) to beyond-L2 (mcf, ammp) working sets.
* ``rmt-long`` -- Fig 7's RMT co-simulation on 3d-2a for mcf, art, gzip and
  mesa at a long window (20k + 200k), jobs=1.  A few long co-simulations
  make the per-instruction layers (scan, window prepass, RMT gating,
  checker consume) most of the host time and fixed costs small -- the
  opposite of fig6-sweep.  The profiles span memory-bound runs, where DFS
  throttles the checker, to high-IPC runs that cause backpressure.
* ``thermal-sweep`` -- Fig 4's checker-power sweep, then the thermally
  matched frequency at 7 W and 15 W (Section 3.3), jobs=1.  No core
  simulation: three cold LU factorizations dominate its wall time while
  its 37 solves on already-factored models set the per-solve latency, so a
  change that trades factorization for solve cost moves ``wall_s`` against
  ``op_p50_s``.  It has no random input; the seed does not change it.

``BENCHMARK.json`` gates fig6-sweep and thermal-sweep only.  The gate's
time budget allows about 30 s per run for three workloads, and at that
length fig6-sweep's worst-of-passes ``wall_s`` (see :mod:`perfbench.run`)
spread half again as much from run to run as at 45 s.  rmt-long is the
one left out because fig6-sweep measures the same layers (leading, rmt,
checker) under the gate, and thermal-sweep is the only workload of the
thermal layer.  rmt-long runs with the same command and checks, so a
change to the per-instruction layers can still show its ``sim_kips``.

The simulated statistics are checked against the paper only through the
three published numbers below: the model is validated against nothing
else.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable

from repro.common import memo
from repro.common.config import ChipModel, LeadingCoreConfig, ThermalConfig
from repro.experiments import engine
from repro.experiments.frequency import fig7_frequency_histogram
from repro.experiments.perf import average_ipc, fig6_performance
from repro.experiments.runner import SimulationWindow
from repro.experiments.thermal import fig4_thermal_sweep
from repro.experiments.thermal_constraint import thermally_equivalent_frequency
from repro.thermal.hotspot import ChipThermalModel
from repro.workloads.profiles import get_profile, spec2k_suite

__all__ = [
    "Capture", "Evaluation", "Pass", "Workload", "WORKLOADS", "nproc", "run_pass",
]

# Section 3.3: 3d-2a's mean IPC over 2d-2a's (L2 hit latency 22 -> 18).
PAPER_IPC_GAIN_PCT = 5.5
# Fig 4 / Section 3.2: 3d-2a peak minus 2d-a peak, by checker power (W).
PAPER_TEMP_RISE_C = {7.0: 4.0, 15.0: 7.0}
# Section 3.3: thermally matched leading-core frequency, by checker power.
PAPER_FREQ_GHZ = {7.0: 1.9, 15.0: 1.8}
PEAK_FREQ_GHZ = 2.0

_FIG4_POWERS_W = (2.0, 5.0, 7.0, 10.0, 15.0, 20.0, 25.0)
_RMT_PROFILES = ("mcf", "art", "gzip", "mesa")


class Capture:
    """Per-pass hooks that collect every operation's outcome.

    Untraced runs install only these: one capture per engine sweep (its
    items, results and ``SweepTiming``, taken once the sweep returns) and
    a timer around ``ChipThermalModel.solve``, the thermal operation.
    Nothing runs per simulated instruction.
    """

    def __init__(self):
        self.sweeps: list[tuple[list, list, object]] = []
        self.solves: list[tuple[float, float, float]] = []

    @contextmanager
    def installed(self):
        run_sweep = engine.run_sweep
        solve = ChipThermalModel.solve

        def captured_run_sweep(fn, items, *args, **kwargs):
            items = list(items)
            results, timing = run_sweep(fn, items, *args, **kwargs)
            self.sweeps.append((items, results, timing))
            return results, timing

        def timed_solve(model, *args, **kwargs):
            start = time.perf_counter()
            result = solve(model, *args, **kwargs)
            self.solves.append((
                time.perf_counter() - start, result.peak_c,
                model.config.ambient_c,
            ))
            return result

        engine.run_sweep = captured_run_sweep
        ChipThermalModel.solve = timed_solve
        try:
            yield self
        finally:
            engine.run_sweep = run_sweep
            ChipThermalModel.solve = solve

    @property
    def task_s(self) -> float:
        """Summed per-task host time of every captured sweep."""
        return sum(sum(t.task_wall_s) for _i, _r, t in self.sweeps)


@dataclass
class Evaluation:
    """One pass's checked outcome."""

    latencies: list[float] = field(default_factory=list)  # per operation
    failed: int = 0  # operations that raised or failed a check
    failures: list[str] = field(default_factory=list)  # what went wrong
    digest: list[str] = field(default_factory=list)  # every simulated value
    accuracy: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    instructions: int = 0  # simulated, warm-up plus measured

    def fail(self, problem: str) -> None:
        """Count one failed operation or output check."""
        self.failed += 1
        self.failures.append(problem)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: inputs from a seed, a driver call, checks."""

    name: str
    why: str
    jobs: int
    build: Callable[[int, bool], object]
    drive: Callable[[object, int], object]
    evaluate: Callable[[object, object, Capture], Evaluation]


# -- simulations -------------------------------------------------------
def _check_simulation(task, result) -> list[str]:
    """Invariants every simulation must satisfy."""
    problems = []
    leading = result.leading if task.kind == "rmt" else result
    width = (task.leading or LeadingCoreConfig()).fetch_width
    if not (math.isfinite(leading.ipc) and 0.0 < leading.ipc <= width):
        problems.append(f"IPC {leading.ipc!r} outside (0, {width}]")
    if task.kind == "rmt":
        if result.checker_instructions != task.window.total:
            problems.append(
                f"checker consumed {result.checker_instructions} of "
                f"{task.window.total} instructions"
            )
        residency = sum(result.frequency_residency.values())
        if abs(residency - 1.0) > 1e-9:
            problems.append(f"DFS residency sums to {residency!r}")
    return problems


def _simulation_ops(capture: Capture, out: Evaluation) -> None:
    for items, results, timing in capture.sweeps:
        for task, result, latency in zip(items, results, timing.task_wall_s):
            label = f"{task.kind}:{task.profile.name}:{task.chip.value}"
            problems = _check_simulation(task, result)
            out.latencies.append(latency)
            out.instructions += task.window.total
            out.failed += bool(problems)
            out.failures += [f"{label}: {p}" for p in problems]
            out.digest.append(f"{label} {result!r}")


@dataclass(frozen=True)
class SimInputs:
    seed: int
    window: SimulationWindow
    profiles: list


def _fig6_build(seed: int, reduced: bool) -> SimInputs:
    if reduced:
        return SimInputs(seed, SimulationWindow(1000, 3000),
                         [get_profile("eon"), get_profile("mcf")])
    return SimInputs(seed, SimulationWindow(6000, 20_000), spec2k_suite())


def _fig6_drive(inputs: SimInputs, jobs: int):
    return fig6_performance(
        window=inputs.window, seed=inputs.seed, benchmarks=inputs.profiles,
        jobs=jobs,
    )


def _fig6_evaluate(inputs: SimInputs, rows, capture: Capture) -> Evaluation:
    out = Evaluation()
    _simulation_ops(capture, out)
    if len(rows) != len(inputs.profiles) or len(out.latencies) != 4 * len(rows):
        out.fail(f"{len(rows)} rows from {len(out.latencies)} simulations")
    mean = average_ipc(rows)
    gain = (mean["3d-2a"] / mean["2d-2a"] - 1.0) * 100.0
    out.accuracy["ipc_gain_err_pp"] = (
        abs(gain - PAPER_IPC_GAIN_PCT), "pp",
        f"3d-2a over 2d-2a mean IPC {gain:+.2f}% vs paper "
        f"{PAPER_IPC_GAIN_PCT:+.1f}%",
    )
    out.digest += [f"row {row!r}" for row in rows]
    return out


def _rmt_build(seed: int, reduced: bool) -> SimInputs:
    if reduced:
        return SimInputs(seed, SimulationWindow(1000, 4000),
                         [get_profile("mcf"), get_profile("gzip")])
    return SimInputs(seed, SimulationWindow(20_000, 200_000),
                     [get_profile(name) for name in _RMT_PROFILES])


def _rmt_drive(inputs: SimInputs, jobs: int):
    return fig7_frequency_histogram(
        window=inputs.window, chip=ChipModel.THREE_D_2A, seed=inputs.seed,
        benchmarks=inputs.profiles, jobs=jobs,
    )


def _rmt_evaluate(inputs: SimInputs, result, capture: Capture) -> Evaluation:
    out = Evaluation()
    _simulation_ops(capture, out)
    if len(out.latencies) != len(inputs.profiles):
        out.fail(f"{len(out.latencies)} co-simulations for "
                 f"{len(inputs.profiles)} profiles")
    total = sum(result.fractions.values())
    if abs(total - 1.0) > 1e-9:
        out.fail(f"Fig 7 histogram sums to {total!r}")
    out.digest.append(f"fig7 {result!r}")
    return out


# -- thermal -----------------------------------------------------------
@dataclass(frozen=True)
class ThermalInputs:
    thermal: ThermalConfig
    powers_w: tuple[float, ...]


def _thermal_build(seed: int, reduced: bool) -> ThermalInputs:
    if reduced:
        return ThermalInputs(ThermalConfig(grid_rows=12, grid_cols=12),
                             tuple(PAPER_TEMP_RISE_C))
    return ThermalInputs(ThermalConfig(), _FIG4_POWERS_W)


def _thermal_drive(inputs: ThermalInputs, jobs: int):
    rows = fig4_thermal_sweep(inputs.powers_w, inputs.thermal, jobs=jobs)
    matched = {
        power: thermally_equivalent_frequency(power, inputs.thermal)
        for power in PAPER_FREQ_GHZ
    }
    return rows, matched


def _thermal_evaluate(inputs: ThermalInputs, outputs,
                      capture: Capture) -> Evaluation:
    rows, matched = outputs
    out = Evaluation()
    for i, (latency, peak, ambient) in enumerate(capture.solves):
        out.latencies.append(latency)
        if not (math.isfinite(peak) and peak > ambient):
            out.fail(f"solve {i}: peak {peak!r} not above ambient {ambient!r}")
        out.digest.append(f"solve {i} peak_c {peak!r}")
    by_power = {row.checker_power_w: row for row in rows}
    temp_err = [
        abs(by_power[p].delta_3d_vs_2da - rise)
        for p, rise in PAPER_TEMP_RISE_C.items()
    ]
    freq_err = [
        abs(PEAK_FREQ_GHZ * matched[p] - ghz) for p, ghz in PAPER_FREQ_GHZ.items()
    ]
    out.accuracy["temp_err_c"] = (
        sum(temp_err) / len(temp_err), "C",
        "3d-2a minus 2d-a peak at "
        + ", ".join(f"{p:g} W {by_power[p].delta_3d_vs_2da:+.2f}"
                    for p in PAPER_TEMP_RISE_C)
        + " vs paper " + ", ".join(f"{r:+g}" for r in PAPER_TEMP_RISE_C.values()),
    )
    out.accuracy["freq_err_ghz"] = (
        sum(freq_err) / len(freq_err), "GHz",
        "matched frequency "
        + ", ".join(f"{p:g} W {PEAK_FREQ_GHZ * matched[p]:.3f}"
                    for p in PAPER_FREQ_GHZ)
        + " vs paper " + ", ".join(f"{g:g}" for g in PAPER_FREQ_GHZ.values()),
    )
    out.digest += [f"row {row!r}" for row in rows]
    out.digest += [f"matched {p!r} {f!r}" for p, f in matched.items()]
    return out


def nproc() -> int:
    """Processors this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig6-sweep",
            "Fig 6 headline sweep: 76 short simulations at jobs=2, so "
            "per-simulation fixed costs and engine fan-out weigh most",
            min(2, nproc()), _fig6_build, _fig6_drive, _fig6_evaluate,
        ),
        Workload(
            "rmt-long",
            "Fig 7 RMT co-simulation of 4 profiles at a long window, so "
            "per-instruction scan, gating and checker consume weigh most",
            1, _rmt_build, _rmt_drive, _rmt_evaluate,
        ),
        Workload(
            "thermal-sweep",
            "Fig 4 and the Section 3.3 matched frequency: no core "
            "simulation, 3 cold LU factorizations and 37 solves",
            1, _thermal_build, _thermal_drive, _thermal_evaluate,
        ),
    )
}


@dataclass
class Pass:
    """One closed-loop pass over a workload's driver calls."""

    wall_s: float
    evaluation: Evaluation
    capture: Capture
    attempted: int  # operations started
    failed: int  # operations that raised or failed a check


def run_pass(workload: Workload, inputs, jobs: int, tracer=None) -> Pass:
    """Run the workload's drivers once, from empty memo caches, and check
    every operation.  An exception counts as one failed operation, and a
    failed output check fails the pass's operations with it."""
    memo.clear_cache()
    capture = Capture()
    outputs = error = None
    with capture.installed(), (
        tracer.installed() if tracer is not None else nullcontext()
    ):
        start = time.perf_counter()
        try:
            if tracer is not None:
                outputs = tracer.root(
                    f"driver.{workload.name}", workload.drive, inputs, jobs
                )
            else:
                outputs = workload.drive(inputs, jobs)
        except Exception:
            error = traceback.format_exc()
        wall_s = time.perf_counter() - start
    _reap_workers()
    if error is None:
        try:
            evaluation = workload.evaluate(inputs, outputs, capture)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        evaluation = Evaluation()
        evaluation.fail(error.strip().splitlines()[-1])
        done = sum(len(t.task_wall_s) for _i, _r, t in capture.sweeps)
        attempted = max(done, len(capture.solves)) + 1
    else:
        attempted = len(evaluation.latencies)
    return Pass(wall_s, evaluation, capture, attempted,
                min(evaluation.failed, attempted))


def _reap_workers(timeout_s: float = 60.0) -> None:
    """Wait for the sweep's worker processes to exit."""
    for child in multiprocessing.active_children():
        child.join(timeout_s)
