"""The windowed issue/retire kernel vs its per-row oracle.

Each timing layer has one production path and one reference oracle.
The leading core's kernel (:meth:`LeadingCoreTiming.run`) must be
*bit-identical* to the per-row ``_advance`` oracle
(``LeadingCoreTiming._run_reference``), and the RMT harness's windowed
co-simulation to its per-row gating loop (``RmtSimulator._run_reference``)
— results, full commit streams, queue-stall attribution, consume and
occupancy streams.  Kernel and oracle share the window prepass
(``prepare_window``), so the prepass gets its own oracle here: a
trace-order replay through the per-event ``MemoryHierarchy`` and
``BranchPredictor`` calls.  Both entries of both classes share one run
contract (warmup in range, one run per object).  Exact Figure 6 goldens
through the sweep engine at one and two jobs pin the end-to-end numbers.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import memo
from repro.common.config import ChipModel, SystemConfig
from repro.common.errors import ConfigError, SimulationError
from repro.core.branch import BranchPredictor
from repro.core.leading import (
    LeadingCoreTiming,
    _PRUNE_PERIOD,
    build_trace_schedule,
)
from repro.core.memory import MemoryHierarchy
from repro.core.rmt import RmtSimulator
from repro.experiments.perf import fig6_performance
from repro.experiments.runner import SimulationWindow
from repro.isa.opcodes import (
    EXECUTION_LATENCY_BY_CODE,
    OP_BRANCH,
    OP_LOAD,
    OP_STORE,
)
from repro.isa.trace import TraceGenerator
from repro.workloads.profiles import get_profile, spec2k_suite

_PROFILES = spec2k_suite()


def _leading_core(cfg):
    memory = MemoryHierarchy(cfg.leading, cfg.nuca, cfg.chip)
    return LeadingCoreTiming(cfg.leading, memory, BranchPredictor())


@given(
    profile=st.sampled_from(_PROFILES),
    seed=st.integers(0, 10_000),
    n=st.integers(50, 1800),
    warmup_frac=st.floats(0.0, 0.9),
    chip=st.sampled_from([ChipModel.TWO_D_A, ChipModel.THREE_D_2A]),
)
@settings(max_examples=12, deadline=None)
def test_kernel_equals_oracle_leading(profile, seed, n, warmup_frac, chip):
    """run(kernel) == _run_reference(oracle), exactly.

    Equality covers the result dataclass (IPC, cycles, op counts) and
    the commit cycle of every row.
    """
    warmup = int(n * warmup_frac)
    cfg = SystemConfig.for_chip(chip)
    trace = TraceGenerator(profile, seed=seed).generate_arrays(n)

    kernel_core = _leading_core(cfg)
    kernel_result = kernel_core.run(trace, warmup)
    assert kernel_core._kernel is None  # kernel mode exited

    oracle_core = _leading_core(cfg)
    oracle_result = oracle_core._run_reference(trace, warmup)

    assert dataclasses.asdict(kernel_result) == dataclasses.asdict(
        oracle_result
    )
    assert len(kernel_core.commits) == n
    assert kernel_core.commits == oracle_core.commits


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
def test_kernel_equals_oracle_rmt(
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
    result_k = sim_k.run(trace, warmup)
    sim_o = _rmt_sim(cfg, transfer, peak)
    result_o = sim_o._run_reference(trace, warmup)

    assert dataclasses.asdict(result_k) == dataclasses.asdict(result_o)
    assert sim_k.queue_stalls == sim_o.queue_stalls
    assert sim_k.backpressure_commits == sim_o.backpressure_commits
    assert len(sim_k._commit_times) == n
    assert sim_k._commit_times == sim_o._commit_times
    assert sim_k._consume_times == sim_o._consume_times
    assert sim_k._occupancy_samples == sim_o._occupancy_samples


@given(
    profile=st.sampled_from(_PROFILES),
    seed=st.integers(0, 10_000),
    n=st.integers(1, 1500),
    cut_fracs=st.lists(st.floats(0.0, 1.0), max_size=3),
    chip=st.sampled_from(list(ChipModel)),
    preload=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_window_prepass_matches_per_event_replay(
    profile, seed, n, cut_fracs, chip, preload
):
    """``prepare_window`` == a trace-order replay of per-event calls.

    The kernel and the ``_advance`` oracle both consume the prepass, so
    neither can see a prepass defect; this replays the same trace row
    by row through ``fetch_latency`` (on a fetch-line break),
    ``load_latency``, ``store_commit`` and ``BranchPredictor.update``,
    over 0-3 arbitrary window cuts, and compares the per-row columns,
    the L1 set contents, the L1/L2 hit and miss counts, and the
    predictor totals.
    """
    cfg = SystemConfig.for_chip(chip)
    trace = TraceGenerator(profile, seed=seed).generate_arrays(n)
    cuts = sorted(int(f * n) for f in cut_fracs)

    core = _leading_core(cfg)
    if preload:
        core.memory.preload_profile(profile)
    windows = [
        core.prepare_window(trace, start, end)
        for start, end in zip([0, *cuts], [*cuts, n])
    ]
    got = {
        name: np.concatenate(
            [getattr(w, name) for w in windows]
        ).tolist()
        for name in ("fetch_add", "latency", "mispredicted")
    }

    memory = MemoryHierarchy(cfg.leading, cfg.nuca, cfg.chip)
    if preload:
        memory.preload_profile(profile)
    predictor = BranchPredictor()
    i_hit = cfg.leading.l1_icache.hit_latency_cycles
    expected = {"fetch_add": [], "latency": [], "mispredicted": []}
    last_line = -1
    for op, pc, address, taken, target in zip(
        trace.op.tolist(), trace.pc.tolist(), trace.address.tolist(),
        trace.taken.tolist(), trace.target.tolist(),
    ):
        fetch_add = 0
        if pc >> 6 != last_line:
            last_line = pc >> 6
            fetch = memory.fetch_latency(pc)
            fetch_add = fetch if fetch > i_hit else 0
        expected["fetch_add"].append(fetch_add)
        if op == OP_LOAD:
            expected["latency"].append(memory.load_latency(address))
        else:
            expected["latency"].append(EXECUTION_LATENCY_BY_CODE[op])
        if op == OP_STORE:
            memory.store_commit(address)
        expected["mispredicted"].append(
            int(predictor.update(pc, taken, target))
            if op == OP_BRANCH else -1
        )

    assert got == expected
    fast = core.memory
    assert fast.l1i._sets == memory.l1i._sets
    assert fast.l1d._sets == memory.l1d._sets
    for level in ("l1i", "l1d", "l2"):
        a, b = getattr(fast, level), getattr(memory, level)
        assert (a.hits, a.misses) == (b.hits, b.misses)
    assert (core.predictor.lookups, core.predictor.mispredicts) == (
        predictor.lookups, predictor.mispredicts
    )


def test_usage_maps_stay_bounded_across_prunes():
    """The ring-based `_prune` keeps both usage maps bounded.

    Scheduling many ROB lifetimes' worth of instructions must not grow
    ``_issue_usage``/``_fu_usage`` beyond a few prune periods' worth of
    distinct cycle keys, on both the kernel and the per-row oracle.
    """
    n = 3 * _PRUNE_PERIOD + 123
    trace = TraceGenerator(get_profile("gzip"), seed=5).generate_arrays(n)
    for entry in (LeadingCoreTiming.run, LeadingCoreTiming._run_reference):
        cfg = SystemConfig.for_chip(ChipModel.TWO_D_A)
        core = _leading_core(cfg)
        entry(core, trace)
        # A prune retains at most the live horizon plus the keys issued
        # since the previous prune — far below one key per instruction.
        bound = 2 * _PRUNE_PERIOD
        assert len(core._issue_usage) < bound
        assert len(core._fu_usage) < 4 * bound
        assert len(core._fresh_usage_keys) < bound
        assert sum(len(p) for p in core._usage_key_ring) < 2 * bound


# The run contract, for both classes through the kernel and the oracle
# entry alike: 3d-2a, gzip, seed 1, no preload.
_GZIP = TraceGenerator(get_profile("gzip"), seed=1).generate_arrays(3000)
_CFG_3D = SystemConfig.for_chip(ChipModel.THREE_D_2A)
_ENTRIES = ("run", "_run_reference")
_KINDS = ("leading", "rmt")


def _fresh(kind):
    """A fresh leading core or RMT simulator, and the core it runs."""
    if kind == "leading":
        core = _leading_core(_CFG_3D)
        return core, core
    simulator = _rmt_sim(_CFG_3D, 1, 1.0)
    return simulator, simulator.leading


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize(
    "rows, warmup", [(100, 200), (100, 101), (3000, -5), (3000, -1)]
)
def test_warmup_outside_the_trace_is_rejected(kind, entry, rows, warmup):
    subject, core = _fresh(kind)
    with pytest.raises(ConfigError, match="warmup"):
        getattr(subject, entry)(_GZIP[:rows], warmup)
    # Rejected before the run began: the object still takes a run, and a
    # warmup of the whole trace is in range.
    getattr(subject, entry)(_GZIP[:rows], rows)
    assert len(core.commits) == rows


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("first", _ENTRIES)
@pytest.mark.parametrize("second", _ENTRIES)
def test_second_run_is_rejected(kind, first, second):
    subject, core = _fresh(kind)
    getattr(subject, first)(_GZIP, 500)
    commits = list(core.commits)
    with pytest.raises(SimulationError):
        getattr(subject, second)(_GZIP, 500)
    with pytest.raises(SimulationError):
        core.begin_kernel(build_trace_schedule(_GZIP, core.config))
    assert core.commits == commits
    if kind == "rmt":
        assert subject.checker.consumed == len(_GZIP)


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
