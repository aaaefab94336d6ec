"""The compiled issue/retire kernel vs its per-row Python oracle.

Each timing layer has one production path and one reference oracle.
The leading core's compiled scan (:meth:`LeadingCoreTiming.run`) must be
*bit-identical* to the per-row ``_advance`` oracle
(``LeadingCoreTiming._run_reference``), and the RMT harness's gated scan
to its per-row gating loop (``RmtSimulator._run_reference``) — results,
full commit streams, queue-stall attribution, consume and occupancy
streams.  Usage-map eviction is exact on both sides, so evicting never
changes a result; the cases here make both evict (and the kernel's ring
grow) far more often than real runs do.  Kernel and oracle share the
window prepass (``prepare_window``), so the prepass gets its own oracle
here: a trace-order replay through the per-event ``MemoryHierarchy`` and
``BranchPredictor`` calls.  Both entries of both classes share one run
contract (warmup in range, one run per object).  Exact Figure 6 goldens
through the sweep engine at one and two jobs pin the end-to-end numbers.
The kernel must load wherever the configured C compiler exists, and
without it every entry falls back to the oracles.
"""

import dataclasses
import logging
import shutil
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import memo
from repro.common.config import (
    CheckerCoreConfig,
    ChipModel,
    NucaPolicy,
    QueueConfig,
    SystemConfig,
)
from repro.common.errors import ConfigError, SimulationError
from repro.core import _native, leading
from repro.core.branch import BranchPredictor, BranchStream
from repro.core.checker import InOrderCheckerTiming
from repro.core.leading import (
    LeadingCoreTiming,
    _PRUNE_PERIOD,
    build_trace_schedule,
)
from repro.core.memory import MemoryHierarchy
from repro.core.rmt import RmtSimulator
from repro.experiments.perf import fig6_performance
from repro.experiments.runner import SimulationWindow
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    EXECUTION_LATENCY_BY_CODE,
    OP_BRANCH,
    OP_LOAD,
    OP_STORE,
    POOL_BY_CODE,
    OpClass,
)
from repro.isa.soa import TraceArrays
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
    assert kernel_core.commits.tolist() == oracle_core.commits.tolist()


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
    assert sim_k._commit_times.tolist() == sim_o._commit_times.tolist()
    assert sim_k._consume_times.tolist() == sim_o._consume_times.tolist()
    assert sim_k._occupancy_samples == sim_o._occupancy_samples


@pytest.mark.parametrize("rvp", [True, False])
@pytest.mark.parametrize("name", ["gzip", "mcf"])
def test_kernel_equals_oracle_under_heavy_backpressure(name, rvp):
    """Tiny queues drained by a 1-wide half-speed checker 4 cycles away:
    every queue gates commits hundreds of times, so the scan's gates,
    stall attribution and drain points are all exercised."""
    checker = CheckerCoreConfig(
        issue_width=1, uses_register_value_prediction=rvp,
        queues=QueueConfig(slack_target=16, rvq_entries=16, lvq_entries=4,
                           boq_entries=2, stb_entries=2),
    )
    cfg = SystemConfig.for_chip(ChipModel.THREE_D_2A)
    trace = TraceGenerator(get_profile(name), seed=3).generate_arrays(3000)

    def simulator():
        memory = MemoryHierarchy(cfg.leading, cfg.nuca, cfg.chip)
        return RmtSimulator(cfg.leading, checker, memory, BranchPredictor(),
                            transfer_latency_cycles=4, checker_peak_ratio=0.5)

    sim_k, sim_o = simulator(), simulator()
    result_k = sim_k.run(trace, 500)
    result_o = sim_o._run_reference(trace, 500)
    assert dataclasses.asdict(result_k) == dataclasses.asdict(result_o)
    assert sim_k.queue_stalls == sim_o.queue_stalls
    assert min(sim_k.queue_stalls.values()) > 0
    assert sim_k._commit_times.tolist() == sim_o._commit_times.tolist()
    assert sim_k._consume_times.tolist() == sim_o._consume_times.tolist()
    assert sim_k._occupancy_samples == sim_o._occupancy_samples


def _with_caches(cfg, policy=None, icache_line=None):
    """``cfg`` with another L2 placement policy or I-cache line size."""
    nuca = cfg.nuca
    if policy is not None:
        nuca = dataclasses.replace(nuca, policy=policy)
    core = cfg.leading
    if icache_line is not None:
        core = dataclasses.replace(
            core,
            l1_icache=dataclasses.replace(
                core.l1_icache, line_bytes=icache_line
            ),
        )
    return dataclasses.replace(cfg, nuca=nuca, leading=core)


def _assert_same_tags(a, b):
    """Same installed runs, the same touched sets and the same rows in
    them (an untouched set's row is the runs' warm row on both)."""
    assert a._runs.tolist() == b._runs.tolist()
    assert a._owned.tolist() == b._owned.tolist()
    touched = np.flatnonzero(a._owned).tolist()
    assert [a.row(s) for s in touched] == [b.row(s) for s in touched]


def _assert_prepass_matches_replay(cfg, profile, trace, cuts, preload):
    """Prepare ``trace`` in the windows ``cuts`` makes and compare with a
    trace-order replay of the per-event calls on a second hierarchy:
    the per-row columns, every cache's tag state, the L1/L2 hit and
    miss counts, the L2's per-bank accesses and hit-latency statistics,
    and the predictor totals."""
    n = len(trace)
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
    shift = cfg.leading.l1_icache.line_bytes.bit_length() - 1
    expected = {"fetch_add": [], "latency": [], "mispredicted": []}
    last_line = -1
    for op, pc, address, taken, target in zip(
        trace.op.tolist(), trace.pc.tolist(), trace.address.tolist(),
        trace.taken.tolist(), trace.target.tolist(),
    ):
        fetch_add = 0
        if pc >> shift != last_line:
            last_line = pc >> shift
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
    for level in ("l1i", "l1d", "l2"):
        a, b = getattr(fast, level), getattr(memory, level)
        assert (a.hits, a.misses) == (b.hits, b.misses)
        _assert_same_tags(a, b)
    l2, reference = fast.l2, memory.l2
    assert l2.bank_access_counts() == reference.bank_access_counts()
    assert l2.stats["hit_latency"] == reference.stats["hit_latency"]
    assert (core.predictor.lookups, core.predictor.mispredicts) == (
        predictor.lookups, predictor.mispredicts
    )
    return fast


@given(
    profile=st.sampled_from(_PROFILES),
    seed=st.integers(0, 10_000),
    n=st.integers(1, 1500),
    cut_fracs=st.lists(st.floats(0.0, 1.0), max_size=3),
    chip=st.sampled_from(list(ChipModel)),
    policy=st.sampled_from(list(NucaPolicy)),
    preload=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_window_prepass_matches_per_event_replay(
    profile, seed, n, cut_fracs, chip, policy, preload
):
    """``prepare_window`` == a trace-order replay of per-event calls.

    The kernel and the ``_advance`` oracle both consume the prepass, so
    neither can see a prepass defect; this replays the same trace row
    by row through ``fetch_latency`` (on a break of the I-cache's line),
    ``load_latency``, ``store_commit`` and ``BranchPredictor.update``,
    over 0-3 arbitrary window cuts, under both L2 placement policies.
    Where the kernel loads, the prepass runs the compiled cache probe, so
    this is also the probe's oracle check (first-touch rows in C
    included, with ``preload``).
    """
    cfg = _with_caches(SystemConfig.for_chip(chip), policy=policy)
    trace = TraceGenerator(profile, seed=seed).generate_arrays(n)
    cuts = sorted(int(f * n) for f in cut_fracs)
    _assert_prepass_matches_replay(cfg, profile, trace, cuts, preload)


@pytest.mark.parametrize("line_bytes", [32, 128])
def test_prepass_breaks_fetch_lines_on_the_icache_line(line_bytes):
    """Fetch-line breaks follow ``l1_icache.line_bytes``: with 32- or
    128-byte I-lines, breaking every 64 bytes fetches other lines than
    the I-cache holds (vortex seed 1, 20k rows from cold caches, 2d-a)."""
    cfg = _with_caches(
        SystemConfig.for_chip(ChipModel.TWO_D_A), icache_line=line_bytes
    )
    profile = get_profile("vortex")
    trace = TraceGenerator(profile, seed=1).generate_arrays(20_000)
    memory = _assert_prepass_matches_replay(
        cfg, profile, trace, [6000], preload=False
    )
    assert memory.l1i.misses > 0


def test_usage_maps_stay_bounded_across_prunes():
    """Both usage maps hold only cycles at or above the exact bound.

    With the caches preloaded, as in every sweep, the kernel's rings
    keep their initial span, end with the tail at
    ``commits[n - 1 - rob_size] + 2`` (evicted before the last row's
    probe) and hold exactly the live cycles' counts; the oracle's dicts,
    evicted every ``_PRUNE_PERIOD`` rows, hold only cycles of the last
    ``rob_size`` rows before the last eviction and the rows after it.
    """
    n = 3 * _PRUNE_PERIOD + 123
    profile = get_profile("gzip")
    trace = TraceGenerator(profile, seed=5).generate_arrays(n)
    cfg = SystemConfig.for_chip(ChipModel.TWO_D_A)
    rob = cfg.leading.rob_size

    core = _leading_core(cfg)
    core.memory.preload_profile(profile)
    kernel = _scan(core, trace)
    assert len(kernel.issue_ring) == _native.RING_CYCLES
    assert kernel.tail == core.commits[n - 1 - rob] + 2
    _assert_rings_hold_live_counts(kernel, trace)

    oracle = _leading_core(cfg)
    oracle.memory.preload_profile(profile)
    oracle._run_reference(trace)
    last = n - n % _PRUNE_PERIOD
    floor = oracle.commits[last - rob] + 2
    assert min(oracle._issue_usage) >= floor
    assert min(k >> 2 for k in oracle._fu_usage) >= floor
    assert len(oracle._issue_usage) <= rob + n % _PRUNE_PERIOD
    assert len(oracle._fu_usage) <= rob + n % _PRUNE_PERIOD


def _filler(rows, count):
    """``count`` independent IALUs (far sources, one fetch line)."""
    for _ in range(count):
        i = len(rows)
        rows.append(Instruction(i, OpClass.IALU, dst=i % 28, src1=30,
                                src2=30, pc=0))


def _load(rows, dst, src):
    """A cold-miss load (a fresh line 1 MB from every other)."""
    i = len(rows)
    rows.append(Instruction(i, OpClass.LOAD, dst=dst, src1=src, src2=-1,
                            pc=0, address=(1 << 30) + i * (1 << 20)))


def _scan(core, trace):
    """Run ``trace`` through the kernel and stay in kernel mode, so the
    test can inspect the scan's streams and rings."""
    core.begin_kernel(build_trace_schedule(trace, core.config))
    core.advance_window(core.prepare_window(trace, 0, len(trace)), 0)
    return core._kernel


def _assert_rings_hold_live_counts(kernel, trace):
    """Each ring slot holds exactly the issue (and per-pool) count of the
    one live cycle ``>= tail`` that maps to it."""
    size = len(kernel.issue_ring)
    issues = kernel.issues[:len(trace)]
    live = issues >= kernel.tail
    assert issues.max() < kernel.tail + size
    slots = issues[live] & (size - 1)
    pools = np.array(POOL_BY_CODE)[trace.op][live]
    issue_counts = np.zeros(size, dtype=np.int64)
    fu_counts = np.zeros((size, 4), dtype=np.int64)
    np.add.at(issue_counts, slots, 1)
    np.add.at(fu_counts, (slots, pools), 1)
    assert kernel.issue_ring.tolist() == issue_counts.tolist()
    assert kernel.fu_ring.tolist() == fu_counts.tolist()


def _never_evicting(entry, subject_factory, trace, warmup=0):
    """Run ``entry`` with the oracle's eviction switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LeadingCoreTiming, "_prune", lambda self: None)
        subject = subject_factory()
        return subject, getattr(subject, entry)(trace, warmup)


def test_eviction_counterexample_issues_within_width():
    """A trace where the old four-ROB-lifetimes prune evicted live cycles.

    The prune after row 4095 (which waits on three chained cold misses
    behind load L) dropped the cycle in which four IALUs woke on L; two
    FALUs woken by L then probed an empty cycle, so 5 rows issued in one
    cycle of the 4-wide core, and the error propagated through a chain
    of six more cold misses into ~400 commit cycles.  The exact bound
    evicts nothing a later probe reads: no cycle issues more than
    ``dispatch_width``, and evicting == never evicting on both paths.
    """
    rows = []
    _filler(rows, 4085)
    _load(rows, 50, 30)                            # row 4085: L
    for k in range(3):                             # rows 4086-4088
        _load(rows, 51 + k, 50 + k)
    for k in range(4):                             # rows 4089-4092
        rows.append(Instruction(len(rows), OpClass.IALU, dst=k, src1=50,
                                src2=30, pc=0))
    _filler(rows, 2)                               # rows 4093-4094
    rows.append(Instruction(4095, OpClass.IALU, dst=5, src1=53, src2=30,
                            pc=0))
    for dst in (54, 55):                           # rows 4096-4097
        rows.append(Instruction(len(rows), OpClass.FALU, dst=dst, src1=50,
                                src2=62, pc=0))
    prev = 54
    for k in range(6):                             # rows 4098-4103
        _load(rows, 56 + k, prev)
        prev = 56 + k
    _filler(rows, 4496 - len(rows))
    trace = TraceArrays.from_instructions(rows)
    cfg = SystemConfig.for_chip(ChipModel.TWO_D_A)
    factory = lambda: _leading_core(cfg)  # noqa: E731

    never, expected = _never_evicting("_run_reference", factory, trace)
    for entry in ("run", "_run_reference"):
        core = factory()
        assert getattr(core, entry)(trace) == expected
        assert core.commits.tolist() == never.commits.tolist()

    per_cycle = Counter(_scan(factory(), trace).issues.tolist())
    assert max(per_cycle.values()) <= cfg.leading.dispatch_width


@given(
    profile=st.sampled_from([get_profile("mcf"), get_profile("art")]),
    seed=st.integers(0, 10_000),
    n=st.integers(100, 1200),
    warmup_frac=st.floats(0.0, 0.5),
    period=st.integers(1, 64),
    ring=st.sampled_from([16, 64, 4096]),
    kind=st.sampled_from(["leading", "rmt"]),
)
@settings(max_examples=12, deadline=None)
def test_eviction_never_changes_a_result(
    profile, seed, n, warmup_frac, period, ring, kind
):
    """Evicting == never evicting, on the kernel and the oracle alike.

    The oracle evicts every 1-64 rows instead of every 4096 and the
    kernel's usage rings start at 16-4096 cycles, so short memory-bound
    traces evict and grow many times; the RMT cases add queue gating.
    """
    cfg = SystemConfig.for_chip(ChipModel.THREE_D_2A)
    trace = TraceGenerator(profile, seed=seed).generate_arrays(n)
    warmup = int(n * warmup_frac)
    if kind == "leading":
        factory = lambda: _leading_core(cfg)  # noqa: E731
    else:
        factory = lambda: _rmt_sim(cfg, 1, 1.0)  # noqa: E731
    never, expected = _never_evicting(
        "_run_reference", factory, trace, warmup
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(leading, "_PRUNE_PERIOD", period)
        mp.setattr(_native, "RING_CYCLES", ring)
        for entry in ("run", "_run_reference"):
            subject = factory()
            result = getattr(subject, entry)(trace, warmup)
            assert dataclasses.asdict(result) == dataclasses.asdict(expected)
            core = subject if kind == "leading" else subject.leading
            never_core = never if kind == "leading" else never.leading
            assert core.commits.tolist() == never_core.commits.tolist()


def _miss_chain_trace():
    """16 chained cold misses inside one ROB window: a probe ~5,000
    cycles past the eviction bound, beyond a 4,096-cycle ring."""
    rows = []
    _filler(rows, 300)
    prev = 30
    for k in range(16):
        _load(rows, 40 + k, prev)
        prev = 40 + k
    rows.append(Instruction(len(rows), OpClass.IALU, dst=1, src1=prev,
                            src2=30, pc=0))
    _filler(rows, 300)
    return TraceArrays.from_instructions(rows)


@pytest.mark.parametrize("ring, make_trace", [
    (4096, _miss_chain_trace),
    (16, lambda: TraceGenerator(get_profile("art"), seed=4).generate_arrays(
        3000)),
], ids=["miss-chain", "art-ring16"])
def test_ring_grows_under_a_long_miss_chain(ring, make_trace, monkeypatch):
    """Probes beyond the ring make the kernel double it; every live
    cycle keeps its counts, and the kernel still equals the oracle."""
    monkeypatch.setattr(_native, "RING_CYCLES", ring)
    trace = make_trace()
    cfg = SystemConfig.for_chip(ChipModel.TWO_D_A)

    core = _leading_core(cfg)
    kernel = _scan(core, trace)
    assert len(kernel.issue_ring) > ring
    _assert_rings_hold_live_counts(kernel, trace)

    oracle = _leading_core(cfg)
    oracle._run_reference(trace)
    assert core.commits.tolist() == oracle.commits.tolist()


def test_kernel_loads_where_a_compiler_exists():
    """The suite must not test the fallback by accident: where the C
    compiler this Python was built with exists, the kernel loads."""
    cc = _native.compiler()
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler configured for this Python")
    assert _native.load() is not None


def test_kernel_rejects_columns_it_cannot_read():
    """An address reaches C only for a C-ordered column of the right
    dtype and length whose codes index what the scan indexes; a
    rejected call binds nothing, so the next good call still works."""
    if _native.load() is None:
        pytest.skip("compiled kernel unavailable")
    checker = InOrderCheckerTiming(CheckerCoreConfig())
    columns = [np.zeros(4, dtype=np.int64) for _ in range(5)]
    available = np.arange(4.0)
    for bad in (
        [c.astype(np.int32) for c in columns] + [available],
        [np.full(4, 7, dtype=np.int64), *columns[1:], available],
        [*columns, available[::2]],
    ):
        with pytest.raises(SimulationError):
            checker.consume_window(*bad)
    with pytest.raises(SimulationError):
        checker.consume_window(*columns, available, hi=5)
    scalar = InOrderCheckerTiming(CheckerCoreConfig())
    assert checker.consume_window(*columns, available).tolist() == [
        scalar.consume_op(0, 0, 0, 0, 0, a) for a in available.tolist()
    ]

    core = _leading_core(_CFG_3D)
    trace = _GZIP[:100]
    core.begin_kernel(build_trace_schedule(trace, core.config))
    with pytest.raises(SimulationError):
        core.gate_commits(
            np.zeros(100, dtype=np.int64), np.full(100, 4, dtype=np.int8),
            np.zeros(1), np.zeros(4, dtype=np.int64),
        )
    with pytest.raises(SimulationError):
        core.advance_window(core.prepare_window(trace, 10, 100), 10)

    # The cache probe: event kinds and fill counts index its tables.
    memory = MemoryHierarchy(_CFG_3D.leading, _CFG_3D.nuca, _CFG_3D.chip)
    reference = MemoryHierarchy(_CFG_3D.leading, _CFG_3D.nuca, _CFG_3D.chip)
    with pytest.raises(SimulationError):
        memory.access_window([1, 3], [0, 64])
    memory.l1d._fill[0] = memory.l1d.geometry.ways + 1
    with pytest.raises(SimulationError):
        memory.access_window([1], [0])
    memory.l1d._fill[0] = 0
    assert (memory.l1d.accesses, memory.l2.accesses) == (0, 0)
    kinds, addresses = [1, 0, 2, 1], [0, 0, 64, 64]
    assert memory.access_window(kinds, addresses).tolist() == (
        reference._access_window_reference(kinds, addresses).tolist()
    )


def _front_end(profile, trace, config):
    """A pretrained predictor, a stream view's flags over ``trace``'s
    branches and ``trace``'s schedule under ``config``."""
    predictor = BranchPredictor()
    TraceGenerator(profile, seed=1).pretrain_predictor(predictor)
    branches = trace.op == OP_BRANCH
    view = BranchStream(predictor.clone()).view()
    flags = view.update_window(
        trace.pc[branches], trace.taken[branches], trace.target[branches]
    )
    return predictor, view, flags, build_trace_schedule(trace, config)


def test_fallback_runs_the_oracles(monkeypatch):
    """With the kernel unavailable, ``run`` on both classes,
    ``consume_window``, ``MemoryHierarchy.access_window``, pretraining,
    branch-stream resolution and ``build_trace_schedule`` equal their
    oracles (the cache probe and the predictor's update are never bound),
    the fig6 goldens hold, and the process logs exactly one warning."""
    def no_kernel():
        raise OSError("no compiler")

    # The compiled front end, before the loader fails.
    front_end_cfg = SystemConfig.for_chip(ChipModel.THREE_D_CHECKER).leading
    expected = _front_end(get_profile("gzip"), _GZIP, front_end_cfg)
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_failed", False)
    monkeypatch.setattr(_native, "_build", no_kernel)
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("repro.core")
    logger.addHandler(handler)
    try:
        cfg = SystemConfig.for_chip(ChipModel.THREE_D_CHECKER)
        trace = _GZIP[:1500]
        core, oracle = _leading_core(cfg), _leading_core(cfg)
        assert core.run(trace, 300) == oracle._run_reference(trace, 300)
        assert core.commits.tolist() == oracle.commits.tolist()
        sim, sim_o = _rmt_sim(cfg, 1, 0.7), _rmt_sim(cfg, 1, 0.7)
        assert sim.run(trace, 300) == sim_o._run_reference(trace, 300)
        assert sim._consume_times.tolist() == sim_o._consume_times.tolist()

        for rvp in (True, False):
            config = CheckerCoreConfig(uses_register_value_prediction=rvp)
            batched = InOrderCheckerTiming(config)
            scalar = InOrderCheckerTiming(config)
            columns = [
                np.array(c, dtype=np.int64) for c in
                ([0, 2, 3, 1], [1, 5, -1, 2], [3, 1, 5, -1],
                 [5, 2, 1, 3], [1, 4, 2, 3])
            ]
            available = np.array([1.0, 1.5, 4.0, 4.25])
            got = batched.consume_window(*columns, available)
            assert got.tolist() == [
                scalar.consume_op(*(int(c[i]) for c in columns), a)
                for i, a in enumerate(available.tolist())
            ]

        memory = MemoryHierarchy(cfg.leading, cfg.nuca, cfg.chip)
        reference = MemoryHierarchy(cfg.leading, cfg.nuca, cfg.chip)
        kinds, addresses = [1, 0, 2, 1, 0], [0, 0, 64, 64, 1 << 20]
        got = memory.access_window(kinds, addresses)
        assert memory._probe is None
        assert got.tolist() == reference._access_window_reference(
            kinds, addresses
        ).tolist()

        predictor, view, flags, schedule = _front_end(
            get_profile("gzip"), _GZIP, front_end_cfg
        )
        assert predictor._native is None
        assert view._stream.predictor._native is None
        for table in ("_bimodal", "_pht", "_chooser", "_btb_tags",
                      "_btb_targets", "_btb_fill"):
            assert np.array_equal(
                getattr(predictor, table), getattr(expected[0], table)
            )
        assert predictor._history == expected[0]._history
        assert np.array_equal(flags, expected[2])
        assert (view.lookups, view.mispredicts) == (
            expected[1].lookups, expected[1].mispredicts
        )
        for column in ("cg", "ig", "w1", "w2"):
            assert np.array_equal(
                getattr(schedule, column), getattr(expected[3], column)
            )

        assert _fig6_rows(jobs=1) == _GOLDEN_FIG6
    finally:
        logger.removeHandler(handler)
    assert len(records) == 1
    assert "kernel unavailable" in records[0].getMessage()


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
    commits = core.commits.tolist()
    with pytest.raises(SimulationError):
        getattr(subject, second)(_GZIP, 500)
    with pytest.raises(SimulationError):
        core.begin_kernel(build_trace_schedule(_GZIP, core.config))
    assert core.commits.tolist() == commits
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
        before = clone.mispredicts
        expected = clone.update_window(pcs, takens, targets)
        # Interleave the two views: each keeps its own cursor.
        flags_a = view_a.update_window(pcs, takens, targets)
        flags_b = view_b.update_window(pcs, takens, targets)
        assert np.array_equal(flags_a, expected)
        assert np.array_equal(flags_b, expected)
        # Read-only bool flags: builtin sum counts them in Python ints.
        assert flags_a.format == "?" and flags_a.readonly
        mispredicts = sum(flags_a)
        assert type(mispredicts) is int
        assert mispredicts == clone.mispredicts - before
        assert view_a.lookups == clone.lookups
        assert view_a.mispredicts == clone.mispredicts
        assert view_b.misprediction_rate == clone.misprediction_rate
