"""Columnar trace pipeline speedups, recorded to ``BENCH_trace.json``.

Four measurements, each against the per-instruction reference path
that the vectorized kernels replaced (and which remains in-tree as the
bit-identity oracle), both sides timed in the same run:

* **generation** — ``TraceGenerator.generate_arrays`` vs the
  ``_generate_chunk_reference`` loop, same instruction budget;
* **leading_kernel** — the compiled issue/retire scan
  (``LeadingCoreTiming.run``, C) vs the per-row ``_advance`` oracle
  (``_run_reference``, Python), same trace and memoized schedule;
* **branch_predictor** — one profile's pretraining plus the resolution
  of its trace's branches through the compiled
  ``BranchPredictor.update_window`` vs the per-branch ``update`` oracle
  (``_update_window_reference``);
* **fig6 end-to-end** — ``fig6_performance`` on the columnar pipeline vs
  the legacy pipeline (object generation, per-address preload, per-event
  cache accesses, per-branch predictor updates, the NumPy trace
  schedule, per-row oracle scheduling), restored via monkeypatching for
  the duration of the run, over the six profiles of ``BENCH_SUBSET``.

Every comparison also asserts bit-identical results — the speedup only
counts because nothing changed.

The fig6 ratio is also the performance regression guard: the run fails,
and leaves ``BENCH_trace.json`` as it was, when the same-run speedup
falls more than 20% below the committed one.  Both sides share the
machine and the moment: a pair interleaves them profile by profile —
one profile's legacy fig6 and its per-task rounds run back to back,
alternating which side goes first — and sums each side over the six
profiles, so a host speed spell lands on both sides instead of on
whichever side happened to run then.  The guard takes the median of the
per-pair ratios, which holds still where absolute seconds swing with
the host's speed; the seconds are recorded as information.
"""

import dataclasses
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from conftest import BENCH_SUBSET, BENCH_WINDOW, print_table

from repro.common import memo
from repro.common.config import ChipModel, SystemConfig
from repro.core import leading
from repro.core.branch import BranchPredictor
from repro.core.leading import LeadingCoreTiming, build_trace_schedule
from repro.core.memory import MemoryHierarchy
from repro.core.rmt import RmtSimulator
from repro.experiments.perf import fig6_performance
from repro.isa.opcodes import OP_BRANCH
from repro.isa.soa import TraceArrays
from repro.isa.trace import TraceGenerator
from repro.workloads.profiles import get_profile

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_trace.json"
_GEN_INSTRUCTIONS = 200_000
# The same-run fig6 speedup may fall this far below the committed one.
_ALLOWED_RATIO_DROP = 0.20
# (legacy, per-task) fig6 pairs; the guard takes the median of their
# ratios.  A profile's per-task side is the mean of a few rounds.
_FIG6_PAIRS = 5
_PER_TASK_ROUNDS = 6


def _oracle_run(cls):
    """``cls.run`` with the kernel swapped for the per-row oracle (which
    needs no memoized schedule)."""
    reference = cls._run_reference

    def run(self, arrays, warmup=0, schedule=None):
        return reference(self, arrays, warmup)

    return run


@contextmanager
def _legacy_pipeline():
    """Swap the vectorized and compiled hot paths for their
    per-instruction references (generation, cache preload, cache
    accesses, predictor updates, the trace schedule and scheduling),
    i.e. the pre-columnar pipeline, for the duration of the block."""
    saved = (
        TraceGenerator._generate_chunk,
        MemoryHierarchy.preload_profile,
        MemoryHierarchy.access_window,
        BranchPredictor.update_window,
        leading.build_trace_schedule,
        LeadingCoreTiming.run,
        RmtSimulator.run,
    )

    def reference_chunk(self, count):
        return TraceArrays.from_instructions(
            self._generate_chunk_reference(count)
        )

    def reference_preload(self, profile):
        self._preload_profile_reference(profile)
        self.l1i.stats.reset()
        self.l1d.stats.reset()
        self.l2.stats.reset()

    TraceGenerator._generate_chunk = reference_chunk
    MemoryHierarchy.preload_profile = reference_preload
    MemoryHierarchy.access_window = MemoryHierarchy._access_window_reference
    BranchPredictor.update_window = BranchPredictor._update_window_reference
    leading.build_trace_schedule = leading._build_trace_schedule_reference
    LeadingCoreTiming.run = _oracle_run(LeadingCoreTiming)
    RmtSimulator.run = _oracle_run(RmtSimulator)
    try:
        yield
    finally:
        (
            TraceGenerator._generate_chunk,
            MemoryHierarchy.preload_profile,
            MemoryHierarchy.access_window,
            BranchPredictor.update_window,
            leading.build_trace_schedule,
            LeadingCoreTiming.run,
            RmtSimulator.run,
        ) = saved


@pytest.mark.slow
def test_trace_kernel_speedups(benchmark):
    profile = get_profile("gzip")

    # -- trace generation ----------------------------------------------
    # Full 8192-instruction chunks with a trim, exactly like
    # ``generate_arrays`` — prefix stability holds at chunk granularity.
    start = time.perf_counter()
    reference_trace = []
    reference_gen = TraceGenerator(profile, seed=42)
    while len(reference_trace) < _GEN_INSTRUCTIONS:
        reference_trace.extend(reference_gen._generate_chunk_reference(8192))
    reference_trace = reference_trace[:_GEN_INSTRUCTIONS]
    generation_reference_s = time.perf_counter() - start

    def columnar_generation():
        return TraceGenerator(profile, seed=42).generate_arrays(
            _GEN_INSTRUCTIONS
        )

    start = time.perf_counter()
    columnar_trace = benchmark.pedantic(
        columnar_generation, rounds=1, iterations=1
    )
    generation_columnar_s = time.perf_counter() - start
    assert columnar_trace == TraceArrays.from_instructions(reference_trace)
    generation_speedup = generation_reference_s / generation_columnar_s

    # -- compiled issue/retire scan vs the per-row oracle ----------------
    # Same trace, same memoized schedule, fresh cores: the only variable
    # is the scheduling loop itself (the C scan vs the per-row Python
    # `_advance`), measured over the standard bench window.
    kernel_cfg = SystemConfig.for_chip(ChipModel.TWO_D_A)
    kernel_trace = TraceGenerator(profile, seed=42).generate_arrays(
        BENCH_WINDOW.total
    )
    kernel_schedule = build_trace_schedule(kernel_trace, kernel_cfg.leading)

    def _timed_leading_run(force_oracle):
        memory = MemoryHierarchy(
            kernel_cfg.leading, kernel_cfg.nuca, kernel_cfg.chip
        )
        core = LeadingCoreTiming(
            kernel_cfg.leading, memory, BranchPredictor()
        )
        start = time.perf_counter()
        if force_oracle:
            result = core._run_reference(kernel_trace, BENCH_WINDOW.warmup)
        else:
            result = core.run(
                kernel_trace, BENCH_WINDOW.warmup, schedule=kernel_schedule
            )
        return time.perf_counter() - start, result

    kernel_s = oracle_s = float("inf")
    for _ in range(3):
        elapsed, kernel_result = _timed_leading_run(force_oracle=False)
        kernel_s = min(kernel_s, elapsed)
        elapsed, oracle_result = _timed_leading_run(force_oracle=True)
        oracle_s = min(oracle_s, elapsed)
    assert kernel_result == oracle_result
    leading_kernel_speedup = oracle_s / kernel_s

    # -- compiled predictor updates vs the per-branch oracle -------------
    # Pretraining plus the kernel trace's branches, as a profile's first
    # simulation resolves them; the oracle side shadows update_window
    # with the per-branch loop on its own predictor.
    branch_profile = profile.name
    branches = kernel_trace.op == OP_BRANCH
    branch_columns = (
        kernel_trace.pc[branches], kernel_trace.taken[branches],
        kernel_trace.target[branches],
    )

    def _timed_predictor(force_oracle):
        predictor = BranchPredictor()
        if force_oracle:
            predictor.update_window = predictor._update_window_reference
        start = time.perf_counter()
        TraceGenerator(profile, seed=42).pretrain_predictor(predictor)
        flags = predictor.update_window(*branch_columns)
        return time.perf_counter() - start, flags, predictor

    compiled_s = branch_oracle_s = float("inf")
    for _ in range(3):
        elapsed, compiled_flags, compiled = _timed_predictor(False)
        compiled_s = min(compiled_s, elapsed)
        elapsed, oracle_flags, oracle = _timed_predictor(True)
        branch_oracle_s = min(branch_oracle_s, elapsed)
    assert compiled_flags.tolist() == oracle_flags.tolist()
    for table in ("_bimodal", "_pht", "_chooser", "_btb_tags",
                  "_btb_targets", "_btb_fill"):
        assert getattr(compiled, table).tolist() == (
            getattr(oracle, table).tolist()
        )
    assert (compiled._history, compiled.lookups, compiled.mispredicts) == (
        oracle._history, oracle.lookups, oracle.mispredicts
    )
    branch_speedup = branch_oracle_s / compiled_s

    # -- fig6 end-to-end ------------------------------------------------
    # Fresh-cache (legacy, per-task) pairs, interleaved profile by
    # profile with the side that goes first alternating, so a spell of
    # host speed lands on both sides of a pair; the median pair ratio
    # discards the pairs a spell split.
    benchmarks = [profile.name for profile in BENCH_SUBSET]

    def _timed_fig6(profile):
        memo.clear_cache()
        start = time.perf_counter()
        rows = fig6_performance(
            window=BENCH_WINDOW, benchmarks=[profile], jobs=1
        )
        return time.perf_counter() - start, [
            dataclasses.asdict(r) for r in rows
        ]

    def _legacy(profile):
        with _legacy_pipeline():
            return _timed_fig6(profile)

    def _per_task(profile):
        rounds = [_timed_fig6(profile) for _ in range(_PER_TASK_ROUNDS)]
        for _round_s, rows in rounds[1:]:
            assert rows == rounds[0][1]
        return statistics.fmean(s for s, _ in rounds), rounds[0][1]

    legacy_times, columnar_times = [], []
    for pair in range(_FIG6_PAIRS):
        legacy_s = columnar_s = 0.0
        for k, profile in enumerate(BENCH_SUBSET):
            sides = (_legacy, _per_task) if (pair + k) % 2 == 0 \
                else (_per_task, _legacy)
            timed = {side: side(profile) for side in sides}
            assert timed[_per_task][1] == timed[_legacy][1]
            legacy_s += timed[_legacy][0]
            columnar_s += timed[_per_task][0]
        legacy_times.append(legacy_s)
        columnar_times.append(columnar_s)
    pair_ratios = [a / b for a, b in zip(legacy_times, columnar_times)]
    fig6_speedup = statistics.median(pair_ratios)
    fig6_legacy_s = statistics.median(legacy_times)
    fig6_columnar_s = statistics.median(columnar_times)

    print_table(
        "Columnar trace pipeline speedups",
        ["stage", "reference (s)", "columnar (s)", "speedup"],
        [
            ["generation", round(generation_reference_s, 3),
             round(generation_columnar_s, 3),
             f"{generation_speedup:.1f}x"],
            ["leading kernel", round(oracle_s, 3),
             round(kernel_s, 3), f"{leading_kernel_speedup:.1f}x"],
            ["branch predictor", round(branch_oracle_s, 4),
             round(compiled_s, 4), f"{branch_speedup:.1f}x"],
            ["fig6 end-to-end", round(fig6_legacy_s, 3),
             round(fig6_columnar_s, 3), f"{fig6_speedup:.1f}x"],
        ],
    )

    committed = json.loads(_RESULT_PATH.read_text())["fig6_end_to_end"]
    assert (
        committed["warmup"], committed["measured"], committed["benchmarks"]
    ) == (BENCH_WINDOW.warmup, BENCH_WINDOW.measured, benchmarks), (
        "bench window or subset changed; compare against a baseline "
        "measured on the new one"
    )
    floor = committed["speedup"] * (1 - _ALLOWED_RATIO_DROP)
    assert fig6_speedup >= floor, (
        f"fig6 end-to-end regressed: the same-run speedup over the legacy "
        f"pipeline is {fig6_speedup:.2f}x against a committed "
        f"{committed['speedup']}x (floor {floor:.2f}x)"
    )

    _RESULT_PATH.write_text(json.dumps({
        "generation": {
            "instructions": _GEN_INSTRUCTIONS,
            "reference_s": round(generation_reference_s, 4),
            "columnar_s": round(generation_columnar_s, 4),
            "speedup": round(generation_speedup, 2),
        },
        "fig6_end_to_end": {
            "benchmarks": benchmarks,
            "warmup": BENCH_WINDOW.warmup,
            "measured": BENCH_WINDOW.measured,
            "legacy_s": round(fig6_legacy_s, 4),
            "columnar_s": round(fig6_columnar_s, 4),
            "pair_ratios": [round(r, 2) for r in pair_ratios],
            "speedup": round(fig6_speedup, 2),
        },
        "leading_kernel": {
            "instructions": BENCH_WINDOW.total,
            "warmup": BENCH_WINDOW.warmup,
            "oracle_s": round(oracle_s, 4),
            "kernel_s": round(kernel_s, 4),
            "speedup": round(leading_kernel_speedup, 2),
        },
        "branch_predictor": {
            "profile": branch_profile,
            "branches": compiled.lookups,
            "oracle_s": round(branch_oracle_s, 4),
            "compiled_s": round(compiled_s, 5),
            "speedup": round(branch_speedup, 1),
        },
    }, indent=2) + "\n")

    # Acceptance floors for the PR; the measured margins are far larger.
    assert generation_speedup >= 3.0
    assert leading_kernel_speedup >= 1.1
    assert fig6_speedup >= 1.5
