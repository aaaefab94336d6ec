"""The windowed issue/retire kernel vs its scalar oracle.

The kernel (:meth:`LeadingCoreTiming.advance_window` driven through
``run_arrays``) must be *bit-identical* to the retained per-row scalar
path (``_advance``), which itself must match the object path — including
RMT queue-stall attribution, op counts, and predictor totals.  These
tests pin that three-way equality property-based over random workloads,
window shapes and chip models, plus exact Figure 6 goldens through the
sweep engine at one and two jobs.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import memo
from repro.common.config import ChipModel, SystemConfig
from repro.core.branch import BranchPredictor
from repro.core.leading import LeadingCoreTiming, _PRUNE_PERIOD
from repro.core.memory import MemoryHierarchy
from repro.core.rmt import RmtSimulator
from repro.experiments.perf import fig6_performance
from repro.experiments.runner import SimulationWindow
from repro.isa.opcodes import OP_BRANCH
from repro.isa.trace import TraceGenerator
from repro.workloads.profiles import get_profile, spec2k_suite

_PROFILES = spec2k_suite()


def _leading_core(cfg):
    memory = MemoryHierarchy(cfg.leading, cfg.nuca, cfg.chip)
    return LeadingCoreTiming(cfg.leading, memory, BranchPredictor())


def _leading_state(core):
    return (
        core._fetch_cycle, core._fetch_in_group, core._redirect_until,
        list(core._rob_commits), list(core._lsq_commits),
        list(core._int_issues), list(core._fp_issues), core._rename,
        core._last_commit_cycle, core._commits_in_cycle, core._scheduled,
        core._op_counts,
    )


@given(
    profile=st.sampled_from(_PROFILES),
    seed=st.integers(0, 10_000),
    n=st.integers(50, 1800),
    warmup_frac=st.floats(0.0, 0.9),
    chip=st.sampled_from([ChipModel.TWO_D_A, ChipModel.THREE_D_2A]),
)
@settings(max_examples=12, deadline=None)
def test_kernel_equals_oracle_equals_objects_leading(
    profile, seed, n, warmup_frac, chip
):
    """run_arrays(kernel) == run_arrays(oracle) == run(objects), exactly.

    Equality covers the result dataclass (IPC, cycles, op counts) *and*
    the end state of the scheduling machine — the kernel's ``end_kernel``
    must reconstruct the deques/rename map the scalar path would hold.
    """
    warmup = int(n * warmup_frac)
    cfg = SystemConfig.for_chip(chip)
    trace = TraceGenerator(profile, seed=seed).generate_arrays(n)

    kernel_core = _leading_core(cfg)
    kernel_result = kernel_core.run_arrays(trace, warmup)
    assert kernel_core._kernel is None  # kernel mode exited

    oracle_core = _leading_core(cfg)
    oracle_core.kernel_eligible = lambda: False  # force the scalar path
    oracle_result = oracle_core.run_arrays(trace, warmup)

    object_core = _leading_core(cfg)
    object_result = object_core.run(trace.to_instructions(), warmup)

    assert dataclasses.asdict(kernel_result) == dataclasses.asdict(
        oracle_result
    ) == dataclasses.asdict(object_result)
    assert _leading_state(kernel_core) == _leading_state(oracle_core)


def _rmt_sim(cfg, transfer, peak):
    memory = MemoryHierarchy(cfg.leading, cfg.nuca, cfg.chip)
    return RmtSimulator(
        cfg.leading, cfg.checker, memory, BranchPredictor(),
        transfer_latency_cycles=transfer, checker_peak_ratio=peak,
    )


@given(
    profile=st.sampled_from(_PROFILES),
    seed=st.integers(0, 10_000),
    n=st.integers(50, 1500),
    warmup_frac=st.floats(0.0, 0.9),
    chip_transfer_peak=st.sampled_from([
        (ChipModel.THREE_D_2A, 1, 1.0),
        (ChipModel.TWO_D_2A, 4, 1.0),
        (ChipModel.THREE_D_CHECKER, 1, 0.7),
    ]),
)
@settings(max_examples=10, deadline=None)
def test_kernel_equals_oracle_equals_objects_rmt(
    profile, seed, n, warmup_frac, chip_transfer_peak
):
    """RMT co-simulation equality under queue gating and DFS.

    Beyond the result dataclass, the backpressure totals, the per-queue
    stall attribution and the full commit/consume/occupancy streams must
    be identical — the kernel's drain-chunk boundaries may not perturb
    the checker schedule by even one row.
    """
    chip, transfer, peak = chip_transfer_peak
    warmup = int(n * warmup_frac)
    cfg = SystemConfig.for_chip(chip)
    trace = TraceGenerator(profile, seed=seed).generate_arrays(n)

    sim_k = _rmt_sim(cfg, transfer, peak)
    result_k = sim_k.run_arrays(trace, warmup)
    sim_o = _rmt_sim(cfg, transfer, peak)
    sim_o.leading.kernel_eligible = lambda: False
    result_o = sim_o.run_arrays(trace, warmup)
    sim_j = _rmt_sim(cfg, transfer, peak)
    result_j = sim_j.run(trace.to_instructions(), warmup)

    assert dataclasses.asdict(result_k) == dataclasses.asdict(
        result_o
    ) == dataclasses.asdict(result_j)
    assert sim_k.queue_stalls == sim_o.queue_stalls == sim_j.queue_stalls
    assert (
        sim_k.backpressure_commits
        == sim_o.backpressure_commits
        == sim_j.backpressure_commits
    )
    assert list(sim_k._commit_times) == sim_o._commit_times
    assert sim_k._consume_times == sim_o._consume_times
    assert sim_k._occupancy_samples == sim_o._occupancy_samples


def test_usage_maps_stay_bounded_across_prunes():
    """The ring-based `_prune` keeps both usage maps bounded.

    Scheduling many ROB lifetimes' worth of instructions must not grow
    ``_issue_usage``/``_fu_usage`` beyond a few prune periods' worth of
    distinct cycle keys, on both the kernel and the scalar path.
    """
    n = 3 * _PRUNE_PERIOD + 123
    trace = TraceGenerator(get_profile("gzip"), seed=5).generate_arrays(n)
    for force_oracle in (False, True):
        cfg = SystemConfig.for_chip(ChipModel.TWO_D_A)
        core = _leading_core(cfg)
        if force_oracle:
            core.kernel_eligible = lambda: False
        core.run_arrays(trace)
        # A prune retains at most the live horizon plus the keys issued
        # since the previous prune — far below one key per instruction.
        bound = 2 * _PRUNE_PERIOD
        assert len(core._issue_usage) < bound
        assert len(core._fu_usage) < 4 * bound
        assert len(core._fresh_usage_keys) < bound
        assert sum(len(p) for p in core._usage_key_ring) < 2 * bound


_GOLDEN_WINDOW = SimulationWindow(warmup=2000, measured=6000)
_GOLDEN_FIG6 = {
    "gzip": {
        "2d-a": 1.5143866733972742,
        "2d-2a": 1.3802622498274673,
        "3d-2a": 1.4807502467917077,
        "3d-checker": 1.5143866733972742,
    },
    "mcf": {
        "2d-a": 0.4550625711035267,
        "2d-2a": 0.4118333447731485,
        "3d-2a": 0.44836347332237336,
        "3d-checker": 0.44749403341288785,
    },
}


def _fig6_rows(jobs):
    memo.clear_cache()
    benchmarks = [get_profile(name) for name in _GOLDEN_FIG6]
    rows = fig6_performance(
        window=_GOLDEN_WINDOW, benchmarks=benchmarks, jobs=jobs
    )
    return {row.benchmark: row.ipc for row in rows}


def test_fig6_kernel_golden_jobs1():
    """Exact (float-equal) Figure 6 IPC goldens on the kernel path."""
    assert _fig6_rows(jobs=1) == _GOLDEN_FIG6


def test_fig6_kernel_golden_jobs2():
    """The same goldens through the process-parallel engine."""
    assert _fig6_rows(jobs=2) == _GOLDEN_FIG6


def test_branch_stream_view_equals_clone():
    """A shared BranchStreamView resolves exactly like a private clone.

    Two interleaved views over one stream must each see the flags,
    lookup and mispredict totals a per-simulation predictor clone
    would produce, with the underlying predictor replayed only once.
    """
    memo.clear_cache()
    cache = memo.get_cache()
    profile = get_profile("gzip")
    trace = TraceGenerator(profile, seed=3).generate_arrays(4000)
    rows = [
        (int(pc), bool(tk), int(tg))
        for pc, op, tk, tg in zip(
            trace.pc, trace.op, trace.taken, trace.target
        )
        if op == OP_BRANCH
    ]
    assert len(rows) > 100  # the workload must actually branch
    windows = [rows[:300], rows[300:1000], rows[1000:]]

    view_a = cache.branch_stream_view(profile, 3)
    view_b = cache.branch_stream_view(profile, 3)
    clone = cache.pretrained_predictor(profile, 3)
    assert view_a is not view_b
    for window in windows:
        pcs = [r[0] for r in window]
        takens = [r[1] for r in window]
        targets = [r[2] for r in window]
        expected = clone.update_window(pcs, takens, targets)
        # Interleave the two views: each keeps its own cursor.
        assert view_a.update_window(pcs, takens, targets) == expected
        assert view_b.update_window(pcs, takens, targets) == expected
        assert view_a.lookups == clone.lookups
        assert view_a.mispredicts == clone.mispredicts
        assert view_b.misprediction_rate == clone.misprediction_rate
