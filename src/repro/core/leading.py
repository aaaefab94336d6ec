"""Timing model of the out-of-order leading core.

A one-pass dependence-driven scheduler: each dynamic instruction is assigned
fetch, issue, completion and commit cycles subject to

* fetch bandwidth and I-cache misses,
* branch mispredictions (front-end redirect at branch resolution plus the
  Table 1 penalty of 12 cycles),
* register dependences through a rename map,
* functional-unit and issue-bandwidth structural hazards,
* load latencies observed from the L1/NUCA-L2 hierarchy,
* ROB / LSQ occupancy and in-order commit bandwidth,
* an optional external *commit gate* used by the RMT harness to model
  RVQ/StB backpressure from the trailing core.

This style of scheduler tracks the cycle-by-cycle simulators it abstracts
closely for the quantities the paper's evaluation needs (relative IPC across
L2 organizations, commit-time streams for the checker co-simulation) at a
small fraction of the cost.

Two entry points share one state machine (:meth:`LeadingCoreTiming._advance`):
:meth:`~LeadingCoreTiming.schedule` feeds it one :class:`Instruction` at a
time, and the columnar batch path (:meth:`~LeadingCoreTiming.run_arrays` /
:meth:`~LeadingCoreTiming.prepare_window`) precomputes whole windows of
memory latencies, fetch-line breaks and mispredict flags as NumPy passes
first — legal because the cache and predictor access order is a pure
function of the trace order, independent of the cycle timing — then drives
the same state machine with plain ints.  Results are bit-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.common.config import LeadingCoreConfig
from repro.common.stats import StatGroup
from repro.core.branch import BranchPredictor
from repro.core.memory import MemoryHierarchy
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    EXECUTION_LATENCY_BY_CODE,
    OP_BRANCH,
    OP_BY_CODE,
    OP_CODE,
    OP_FALU,
    OP_FMUL,
    OP_LOAD,
    OP_STORE,
    POOL_BY_CODE,
    OpClass,
)
from repro.isa.soa import TraceArrays

__all__ = [
    "LeadingCoreTiming",
    "LeadingRunResult",
    "PreparedWindow",
    "TraceSchedule",
    "build_trace_schedule",
]

# Front-end depth from fetch to dispatch (rename/decode stages).
_FRONT_END_DEPTH = 4
_PRUNE_PERIOD = 4096

_POOL_ARR = np.array(POOL_BY_CODE, dtype=np.int64)
_LATENCY_ARR = np.array(EXECUTION_LATENCY_BY_CODE, dtype=np.int64)


@dataclass
class LeadingRunResult:
    """Summary of a leading-core timing run."""

    instructions: int
    cycles: int
    ipc: float
    branch_mispredict_rate: float
    l1d_miss_rate: float
    l2_misses_per_10k: float
    average_l2_hit_latency: float
    op_counts: dict[str, int]


@dataclass
class PreparedWindow:
    """Per-row columns for one batch-scheduled trace window.

    Produced by :meth:`LeadingCoreTiming.prepare_window`; every column is
    a NumPy array (one entry per row), kept as arrays end-to-end so
    downstream consumers — the windowed kernel and the RMT harness's
    windowed checker — can slice them without round-trips.
    ``mispredicted`` is an int8 column: ``-1`` for non-branches (the
    object path's ``None``), ``0`` for correctly predicted branches,
    ``1`` for mispredicts.  Memory and predictor side effects have
    already been applied when this exists.
    """

    pool: np.ndarray
    is_mem: np.ndarray
    is_fp: np.ndarray
    writes: np.ndarray
    dst: np.ndarray
    src1: np.ndarray
    src2: np.ndarray
    fetch_add: np.ndarray
    latency: np.ndarray
    mispredicted: np.ndarray

    def __len__(self) -> int:
        return len(self.pool)

    def window_slice(self, lo: int, hi: int) -> "PreparedWindow":
        """Zero-copy view of rows ``[lo, hi)`` (kernel chunking)."""
        return PreparedWindow(
            self.pool[lo:hi], self.is_mem[lo:hi], self.is_fp[lo:hi],
            self.writes[lo:hi], self.dst[lo:hi], self.src1[lo:hi],
            self.src2[lo:hi], self.fetch_add[lo:hi], self.latency[lo:hi],
            self.mispredicted[lo:hi],
        )

    def rows(self):
        """Iterate rows as `_advance` argument tuples (sans commit gate).

        Columns convert to plain lists here, once per window: the
        scheduling state machine's integer arithmetic must touch Python
        ints, never NumPy scalars.  ``mispredicted`` converts back to the
        object path's ``None`` / ``bool`` values.
        """
        return zip(
            self.fetch_add.tolist(), self.pool.tolist(),
            self.is_mem.tolist(), self.is_fp.tolist(), self.writes.tolist(),
            self.dst.tolist(), self.src1.tolist(), self.src2.tolist(),
            self.latency.tolist(),
            [None if v < 0 else v == 1 for v in self.mispredicted.tolist()],
        )


@dataclass
class TraceSchedule:
    """Timing-independent positional indices for one whole trace.

    Everything the windowed issue/retire kernel needs that is a pure
    function of the *trace order* (never of any cycle time), computed
    once per (trace, core geometry) with vectorized NumPy passes:

    * ``cg`` — combined ROB/LSQ commit-gate row: the absolute row whose
      commit must precede row ``i``'s dispatch (``-1`` when ungated).
      ROB and LSQ gates fold into one index because commit cycles are
      monotone non-decreasing, so ``max(commit[j1], commit[j2]) ==
      commit[max(j1, j2)]``.
    * ``ig`` — issue-queue gate row: the ``(k - iq_size)``-th previous
      same-class (int/fp) row, whose *issue* gates dispatch.  Issue
      cycles are not monotone, so this stays a separate gather.
    * ``w1``/``w2`` — last-writer rows for each source operand (``-1``
      when the operand has no in-trace writer), replacing the rename
      map with a completion-time gather.
    * ``mem_rows`` / ``int_rows`` / ``fp_rows`` / ``writer_rows`` /
      ``writer_regs`` — the positional streams needed to rebuild the
      scalar state machine's deques and rename map when a kernel run
      hands back to :meth:`LeadingCoreTiming._advance`.
    """

    cg: list[int]
    ig: list[int]
    w1: list[int]
    w2: list[int]
    mem_rows: np.ndarray
    int_rows: np.ndarray
    fp_rows: np.ndarray
    writer_rows: np.ndarray
    writer_regs: np.ndarray


def build_trace_schedule(
    arrays: TraceArrays, config: LeadingCoreConfig
) -> TraceSchedule:
    """Precompute :class:`TraceSchedule` for ``arrays`` under ``config``.

    Depends only on the op/register columns and the queue geometry
    (``rob_size``, ``lsq_size``, issue-queue sizes) — cacheable per
    (trace, geometry) and shared across every simulation of that pair.
    """
    ops = arrays.op
    n = len(ops)
    idx = np.arange(n, dtype=np.int64)
    is_mem = (ops == OP_LOAD) | (ops == OP_STORE)
    is_fp = (ops == OP_FALU) | (ops == OP_FMUL)

    # ROB gate: the ring is full from row rob_size on; rob[0] is then the
    # commit of row i - rob_size.  LSQ likewise over memory rows only.
    cg = idx - config.rob_size
    mem_rows = np.flatnonzero(is_mem)
    if mem_rows.size > config.lsq_size:
        sel = mem_rows[config.lsq_size:]
        cand = mem_rows[: mem_rows.size - config.lsq_size]
        cg[sel] = np.maximum(cg[sel], cand)

    # Issue-queue gate: the (k - iq_size)-th previous same-class row.
    ig = np.full(n, -1, dtype=np.int64)
    fp_rows = np.flatnonzero(is_fp)
    int_rows = np.flatnonzero(~is_fp)
    for rows_, qsize in (
        (int_rows, config.int_issue_queue_size),
        (fp_rows, config.fp_issue_queue_size),
    ):
        if rows_.size > qsize:
            ig[rows_[qsize:]] = rows_[: rows_.size - qsize]

    # Last-writer rows per source operand via one keyed searchsorted:
    # writer keys (reg, row) sorted lexicographically collapse the
    # "latest write of reg r before row i" query to a binary search.
    dst = arrays.dst
    writer_rows = np.flatnonzero(dst >= 0)
    writer_regs = dst[writer_rows].astype(np.int64)
    stride = n + 1
    order = np.argsort(writer_regs, kind="stable")
    wrows_sorted = writer_rows[order]
    wkeys = writer_regs[order] * stride + wrows_sorted

    def last_writer(src: np.ndarray) -> np.ndarray:
        src = src.astype(np.int64)
        readers = np.flatnonzero(src >= 0)
        w = np.full(n, -1, dtype=np.int64)
        if readers.size:
            regs = src[readers]
            pos = np.searchsorted(wkeys, regs * stride + readers) - 1
            safe = np.maximum(pos, 0)
            hit = (pos >= 0) & (wkeys[safe] // stride == regs)
            w[readers[hit]] = wrows_sorted[safe[hit]]
        return w

    return TraceSchedule(
        cg=np.maximum(cg, -1).tolist(),
        ig=ig.tolist(),
        w1=last_writer(arrays.src1).tolist(),
        w2=last_writer(arrays.src2).tolist(),
        mem_rows=mem_rows,
        int_rows=int_rows,
        fp_rows=fp_rows,
        writer_rows=writer_rows,
        writer_regs=writer_regs,
    )


class _KernelState:
    """Mutable scalar carries + absolute cycle streams of one kernel run.

    ``commits`` / ``issues`` / ``completes`` are absolute (row 0 of the
    trace onward) plain-int lists: the scan's gate gathers index them by
    the :class:`TraceSchedule` rows, and the RMT harness shares
    ``commits`` directly as its commit-time stream.
    """

    __slots__ = (
        "schedule", "commits", "issues", "completes",
        "fetch", "group", "redirect", "lcc", "cic",
    )

    def __init__(self, schedule: TraceSchedule):
        self.schedule = schedule
        self.commits: list[int] = []
        self.issues: list[int] = []
        self.completes: list[int] = []
        self.fetch = 0
        self.group = 0
        self.redirect = 0
        self.lcc = 0   # last commit cycle
        self.cic = 0   # commits in that cycle


def _scan_window(
    ks: _KernelState,
    cg: list[int], ig: list[int], w1: list[int], w2: list[int],
    pool_l: list[int], lat_l: list[int], fa_l: list[int], mp_l: list[bool],
    gates,
    issue_usage: dict[int, int], fu_usage: dict[int, int],
    fresh_keys: list[int],
    width: int, caps: tuple[int, ...], commit_width: int,
    fetch_width: int, penalty: int,
    prune, countdown: int,
) -> None:
    """The issue/retire recurrence over one window, fully gate-resolved.

    Plain-int zip-driven tight loop (the `_consume_window_dep` idiom):
    every dependence is a precomputed :class:`TraceSchedule` index into
    the absolute ``commits``/``issues``/``completes`` streams, so each
    row is a handful of list gathers, the structural-hazard probe, and
    the commit-width counter — no deques, no rename map, no per-row
    NumPy, no per-row method call.  ``cg``/``ig``/``w1``/``w2`` are
    window-local slices holding *absolute* row values; ``gates`` is any
    per-row iterable of commit gates (``repeat(0)`` when the RMT harness
    is absent — a zero gate never binds).  ``prune`` fires every
    ``countdown`` rows at exactly the scalar path's cadence — prune
    timing is part of the bit-identity contract.
    """
    commits = ks.commits
    issues = ks.issues
    completes = ks.completes
    ap_c = commits.append
    ap_i = issues.append
    ap_m = completes.append
    fc = ks.fetch
    g = ks.group
    redirect = ks.redirect
    lcc = ks.lcc
    cic = ks.cic
    for fa, pool, lat, mp, k1, k2, kw1, kw2, gate in zip(
        fa_l, pool_l, lat_l, mp_l, cg, ig, w1, w2, gates
    ):
        # ---- fetch ----
        if fc < redirect:
            fc = redirect
            g = 0
        if fa:
            fc += fa
            g = 0
        if g >= fetch_width:
            fc += 1
            g = 0
        g += 1
        # ---- dispatch (ROB/LSQ fold into one commit gather; IQ gates
        # on the k-size-th previous same-class issue) ----
        d = fc + _FRONT_END_DEPTH
        if k1 >= 0:
            gd = commits[k1] + 1
            if gd > d:
                d = gd
        if k2 >= 0:
            gd = issues[k2] + 1
            if gd > d:
                d = gd
        # ---- operand readiness (last-writer completion gathers) ----
        r = d + 1
        if kw1 >= 0:
            t = completes[kw1]
            if t > r:
                r = t
        if kw2 >= 0:
            t = completes[kw2]
            if t > r:
                r = t
        # ---- issue (structural hazards) ----
        cap = caps[pool]
        c = r
        while True:
            iu = issue_usage.get(c, 0)
            if iu < width:
                fk = (c << 2) | pool
                fu = fu_usage.get(fk, 0)
                if fu < cap:
                    if iu == 0:
                        fresh_keys.append(c)
                    issue_usage[c] = iu + 1
                    fu_usage[fk] = fu + 1
                    break
            c += 1
        ap_i(c)
        comp = c + lat
        ap_m(comp)
        if mp:
            redirect = comp + penalty
        # ---- in-order commit ----
        cm = comp + 1
        if lcc > cm:
            cm = lcc
        if gate > cm:
            cm = gate
        if cm == lcc:
            if cic >= commit_width:
                cm += 1
                cic = 1
            else:
                cic += 1
        else:
            cic = 1
        lcc = cm
        ap_c(cm)
        countdown -= 1
        if countdown == 0:
            prune(c)
            countdown = _PRUNE_PERIOD
    ks.fetch = fc
    ks.group = g
    ks.redirect = redirect
    ks.lcc = lcc
    ks.cic = cic


class LeadingCoreTiming:
    """Incremental OoO timing model; feed instructions via :meth:`schedule`
    (object path) or whole traces via :meth:`run_arrays` (columnar path)."""

    def __init__(
        self,
        config: LeadingCoreConfig,
        memory: MemoryHierarchy,
        predictor: BranchPredictor | None = None,
    ):
        self.config = config
        self.memory = memory
        self.predictor = predictor or BranchPredictor()
        self.stats = StatGroup("leading")

        # Pool-code-indexed capacities used by the scheduling state machine.
        self._fu_cap_by_pool = (
            config.int_alus, config.int_mults, config.fp_alus, config.fp_mults,
        )
        self._mispredict_penalty = self.predictor.config.mispredict_penalty_cycles
        # Per-cycle structural usage maps, pruned periodically.  FU keys
        # combine cycle and pool into one int (``cycle << 2 | pool``) so
        # the hot loops never build tuples.  ``_fresh_usage_keys``
        # records each cycle key on first insertion; :meth:`_prune`
        # retires whole periods of them from a ring instead of
        # rebuilding the dicts.
        self._issue_usage: dict[int, int] = {}
        self._fu_usage: dict[int, int] = {}
        self._fresh_usage_keys: list[int] = []
        self._usage_key_ring: deque[list[int]] = deque()
        self._kernel: _KernelState | None = None

        self._fetch_cycle = 0
        self._fetch_in_group = 0
        self._redirect_until = 0
        self._last_fetch_line = -1
        self._rename: dict[int, int] = {}  # reg -> completion cycle
        self._rob_commits: deque[int] = deque(maxlen=config.rob_size)
        self._lsq_commits: deque[int] = deque(maxlen=config.lsq_size)
        # Issue-queue occupancy: an IQ entry is held from dispatch until
        # issue, so dispatch stalls until the (i - iq_size)-th same-class
        # instruction has issued.
        self._int_issues: deque[int] = deque(maxlen=config.int_issue_queue_size)
        self._fp_issues: deque[int] = deque(maxlen=config.fp_issue_queue_size)
        self._last_commit_cycle = 0
        self._commits_in_cycle = 0
        self._scheduled = 0
        self._last_commit = 0
        self._op_counts: dict[str, int] = {c.value: 0 for c in OpClass}

    # ------------------------------------------------------------------
    def schedule(self, instr: Instruction, commit_gate: int = 0) -> int:
        """Schedule one instruction; returns its commit cycle.

        ``commit_gate`` is the earliest cycle the instruction may commit
        (RVQ/StB backpressure from the RMT harness); 0 means unconstrained.
        """
        op = instr.op
        self._op_counts[op.value] += 1
        code = OP_CODE[op]

        # I-cache access on fetch-line change; the stall feeds _advance.
        fetch_add = 0
        line = instr.pc >> 6
        if line != self._last_fetch_line:
            self._last_fetch_line = line
            fetch_latency = self.memory.fetch_latency(instr.pc)
            if fetch_latency > self.config.l1_icache.hit_latency_cycles:
                fetch_add = fetch_latency

        if code == OP_LOAD:
            latency = self.memory.load_latency(instr.address)
        else:
            latency = EXECUTION_LATENCY_BY_CODE[code]

        mispredicted = None
        if code == OP_BRANCH:
            mispredicted = self.predictor.update(
                instr.pc, instr.taken, instr.target
            )

        return self._advance(
            fetch_add,
            POOL_BY_CODE[code],
            code == OP_LOAD or code == OP_STORE,
            code == OP_FALU or code == OP_FMUL,
            instr.dst >= 0,
            instr.dst,
            instr.src1,
            instr.src2,
            latency,
            mispredicted,
            commit_gate,
            store_address=instr.address if code == OP_STORE else -1,
        )

    # ------------------------------------------------------------------
    def _advance(
        self,
        fetch_add: int,
        pool: int,
        is_mem: bool,
        is_fp: bool,
        writes: bool,
        dst: int,
        src1: int,
        src2: int,
        latency: int,
        mispredicted: bool | None,
        commit_gate: int = 0,
        store_address: int = -1,
    ) -> int:
        """The scheduling state machine: one instruction, already resolved.

        All memory/predictor lookups have happened by the time this runs
        (inline for :meth:`schedule`, in a window pre-pass for the columnar
        path); what remains is pure integer cycle arithmetic over the
        pipeline state.  ``fetch_add`` is the I-fetch stall in cycles (0 on
        an I-cache hit or a same-line fetch); ``store_address`` >= 0 asks
        this call to apply the store-commit cache access itself.
        """
        cfg = self.config

        # ---- fetch ----
        fetch_cycle = self._fetch_cycle
        if fetch_cycle < self._redirect_until:
            fetch_cycle = self._redirect_until
            self._fetch_in_group = 0
        if fetch_add:
            fetch_cycle += fetch_add
            self._fetch_in_group = 0
        if self._fetch_in_group >= cfg.fetch_width:
            fetch_cycle += 1
            self._fetch_in_group = 0
        self._fetch_in_group += 1
        self._fetch_cycle = fetch_cycle

        # ---- dispatch (ROB / LSQ / issue-queue availability) ----
        dispatch = fetch_cycle + _FRONT_END_DEPTH
        rob = self._rob_commits
        if len(rob) == cfg.rob_size:
            gated = rob[0] + 1
            if gated > dispatch:
                dispatch = gated
        if is_mem and len(self._lsq_commits) == cfg.lsq_size:
            gated = self._lsq_commits[0] + 1
            if gated > dispatch:
                dispatch = gated
        issue_ring = self._fp_issues if is_fp else self._int_issues
        if len(issue_ring) == issue_ring.maxlen:
            gated = issue_ring[0] + 1
            if gated > dispatch:
                dispatch = gated

        # ---- operand readiness ----
        ready = dispatch + 1
        rename = self._rename
        if src1 >= 0:
            t = rename.get(src1, 0)
            if t > ready:
                ready = t
        if src2 >= 0:
            t = rename.get(src2, 0)
            if t > ready:
                ready = t

        # ---- issue (structural hazards) ----
        cap = self._fu_cap_by_pool[pool]
        width = cfg.dispatch_width
        issue_usage = self._issue_usage
        fu_usage = self._fu_usage
        issue = ready
        while True:
            iu = issue_usage.get(issue, 0)
            if iu < width:
                key = (issue << 2) | pool
                fu = fu_usage.get(key, 0)
                if fu < cap:
                    if iu == 0:
                        self._fresh_usage_keys.append(issue)
                    issue_usage[issue] = iu + 1
                    fu_usage[key] = fu + 1
                    break
            issue += 1
        issue_ring.append(issue)

        # ---- execute ----
        complete = issue + latency
        if writes:
            rename[dst] = complete

        # ---- branch resolution ----
        if mispredicted:
            self._redirect_until = complete + self._mispredict_penalty

        # ---- in-order commit ----
        commit = complete + 1
        if self._last_commit_cycle > commit:
            commit = self._last_commit_cycle
        if commit_gate > commit:
            commit = commit_gate
        if commit == self._last_commit_cycle:
            if self._commits_in_cycle >= cfg.commit_width:
                commit += 1
                self._commits_in_cycle = 1
            else:
                self._commits_in_cycle += 1
        else:
            self._commits_in_cycle = 1
        self._last_commit_cycle = commit

        rob.append(commit)
        if is_mem:
            self._lsq_commits.append(commit)
            if store_address >= 0:
                self.memory.store_commit(store_address)

        self._scheduled += 1
        self._last_commit = commit
        if self._scheduled % _PRUNE_PERIOD == 0:
            self._prune(issue)
        return commit

    # ------------------------------------------------------------------
    def prepare_window(
        self, arrays: TraceArrays, start: int, end: int
    ) -> PreparedWindow:
        """Resolve a trace window's per-row columns for batch scheduling.

        Applies every cache access and predictor update for rows
        ``[start, end)`` in exact trace order — legal to do ahead of the
        cycle arithmetic because those state machines see only the address
        and outcome streams, never the timing.  The event interleaving
        matches the object path: per row, the I-fetch access (on a line
        break) precedes the data access; stores touch L1D only.
        """
        ops = arrays.op[start:end]
        n = len(ops)
        if n == 0:
            zi = np.empty(0, dtype=np.int64)
            zb = np.empty(0, dtype=bool)
            z8 = np.empty(0, dtype=np.int8)
            return PreparedWindow(zi, zb, zb, zb, zi, zi, zi, zi, zi, z8)
        pc = arrays.pc[start:end]
        address = arrays.address[start:end]
        is_load = ops == OP_LOAD
        is_store = ops == OP_STORE
        is_mem = is_load | is_store

        # Fetch-line breaks (carrying the last line across windows).
        lines = pc >> 6
        prev_lines = np.concatenate([[self._last_fetch_line], lines[:-1]])
        breaks = lines != prev_lines
        self._last_fetch_line = int(lines[-1])

        # One merged event stream keeps the hierarchy's access order
        # identical to the object path: fetch (key 2r) before data (2r+1).
        fetch_rows = np.nonzero(breaks)[0]
        mem_rows = np.nonzero(is_mem)[0]
        keys = np.concatenate([2 * fetch_rows, 2 * mem_rows + 1])
        kinds = np.concatenate(
            [
                np.zeros(fetch_rows.size, dtype=np.int64),
                np.where(is_store[mem_rows], 2, 1),
            ]
        )
        event_addrs = np.concatenate([pc[fetch_rows], address[mem_rows]])
        order = np.argsort(keys)  # keys are unique: plain sort is stable here
        sorted_rows = keys[order] >> 1
        sorted_kinds = kinds[order]
        latencies = np.array(
            self.memory.access_window(
                sorted_kinds.tolist(), event_addrs[order].tolist()
            ),
            dtype=np.int64,
        )

        fetch_lat = np.zeros(n, dtype=np.int64)
        fmask = sorted_kinds == 0
        fetch_lat[sorted_rows[fmask]] = latencies[fmask]
        i_hit = self.config.l1_icache.hit_latency_cycles
        fetch_add = np.where(fetch_lat > i_hit, fetch_lat, 0)

        load_lat = np.zeros(n, dtype=np.int64)
        lmask = sorted_kinds == 1
        load_lat[sorted_rows[lmask]] = latencies[lmask]
        latency = np.where(is_load, load_lat, _LATENCY_ARR[ops])

        # Branch resolution pre-pass (predictor state is trace-ordered).
        mispredicted = np.full(n, -1, dtype=np.int8)
        branch_rows = np.nonzero(ops == OP_BRANCH)[0]
        if branch_rows.size:
            flags = self.predictor.update_window(
                pc[branch_rows].tolist(),
                arrays.taken[start:end][branch_rows].tolist(),
                arrays.target[start:end][branch_rows].tolist(),
            )
            mispredicted[branch_rows] = np.asarray(flags, dtype=np.int8)

        op_counts = np.bincount(ops, minlength=len(OP_BY_CODE)).tolist()
        for code, count in enumerate(op_counts):
            if count:
                self._op_counts[OP_BY_CODE[code].value] += count

        dst = arrays.dst[start:end]
        return PreparedWindow(
            pool=_POOL_ARR[ops],
            is_mem=is_mem,
            is_fp=(ops == OP_FALU) | (ops == OP_FMUL),
            writes=dst >= 0,
            dst=dst,
            src1=arrays.src1[start:end],
            src2=arrays.src2[start:end],
            fetch_add=fetch_add,
            latency=latency,
            mispredicted=mispredicted,
        )

    def run_arrays(
        self, arrays: TraceArrays, warmup: int = 0,
        schedule: TraceSchedule | None = None,
    ) -> LeadingRunResult:
        """Columnar counterpart of :meth:`run` — bit-identical results.

        Windowed at the warmup boundary so the measurement snapshot sees
        exactly the same cache/predictor state as the object path.  A
        fresh core takes the windowed issue/retire kernel; a core with
        prior scheduling history falls back to the scalar oracle
        (:meth:`_advance`), which remains the reference semantics.
        """
        if self.kernel_eligible():
            self.begin_kernel(
                schedule or build_trace_schedule(arrays, self.config)
            )
            if warmup:
                self.advance_window(self.prepare_window(arrays, 0, warmup), 0)
                self.start_measurement()
            if len(arrays) > warmup:
                prepared = self.prepare_window(arrays, warmup, len(arrays))
                self.advance_window(prepared, warmup)
            self.end_kernel()
        else:
            if warmup:
                self._run_window(arrays, 0, warmup)
                self.start_measurement()
            self._run_window(arrays, warmup, len(arrays))
        return self.result(len(arrays) - warmup)

    def _run_window(self, arrays: TraceArrays, start: int, end: int) -> None:
        if end <= start:
            return
        prepared = self.prepare_window(arrays, start, end)
        advance = self._advance
        for row in prepared.rows():
            advance(*row)

    # -- windowed issue/retire kernel ----------------------------------
    def kernel_eligible(self) -> bool:
        """True when the kernel may own this core's timing state.

        The kernel's gate indices are absolute trace rows, so it requires
        a core with no scheduling history (``_advance`` never ran) —
        exactly the state every simulation entry point constructs.
        """
        return self._scheduled == 0 and self._kernel is None

    def begin_kernel(self, schedule: TraceSchedule) -> None:
        """Enter kernel mode over a fresh core (see :meth:`kernel_eligible`)."""
        if not self.kernel_eligible():
            raise RuntimeError("kernel requires a freshly constructed core")
        self._kernel = _KernelState(schedule)

    def advance_window(
        self, prepared: PreparedWindow, start: int,
        gates: list[int] | None = None,
    ) -> None:
        """Kernel counterpart of the per-row `_advance` loop over a window.

        ``start`` is the absolute trace row of ``prepared``'s first row;
        ``gates`` (window-local, one per row) carries RMT commit gates.
        All columns convert to plain lists once, the schedule's gate and
        last-writer indices are sliced to the window, and
        :func:`_scan_window` closes every cycle in one fused pass.
        """
        ks = self._kernel
        n = len(prepared)
        if n == 0:
            return
        cfg = self.config
        sched = ks.schedule
        end = start + n
        _scan_window(
            ks,
            sched.cg[start:end], sched.ig[start:end],
            sched.w1[start:end], sched.w2[start:end],
            prepared.pool.tolist(), prepared.latency.tolist(),
            prepared.fetch_add.tolist(),
            (prepared.mispredicted == 1).tolist(),
            gates if gates is not None else repeat(0),
            self._issue_usage, self._fu_usage, self._fresh_usage_keys,
            cfg.dispatch_width, self._fu_cap_by_pool, cfg.commit_width,
            cfg.fetch_width, self._mispredict_penalty,
            self._prune, _PRUNE_PERIOD - self._scheduled % _PRUNE_PERIOD,
        )
        self._scheduled += n
        self._last_commit = ks.lcc

    def end_kernel(self) -> None:
        """Leave kernel mode, rebuilding the scalar state machine.

        After this, :meth:`_advance` (or another kernel run's results)
        observes exactly the state it would have reached row by row: the
        ROB/LSQ/issue rings, rename map, fetch carries and commit-width
        counter are reconstructed from the schedule's positional streams
        and the kernel's absolute cycle lists.
        """
        ks = self._kernel
        if ks is None:
            return
        self._kernel = None
        n = len(ks.commits)
        if n == 0:
            return
        cfg = self.config
        sched = ks.schedule
        commits = ks.commits
        issues = ks.issues
        self._fetch_cycle = ks.fetch
        self._fetch_in_group = ks.group
        self._redirect_until = ks.redirect
        self._last_commit_cycle = ks.lcc
        self._commits_in_cycle = ks.cic
        self._last_commit = commits[-1]
        self._rob_commits = deque(
            commits[max(0, n - cfg.rob_size):], maxlen=cfg.rob_size
        )
        mem = sched.mem_rows[sched.mem_rows < n][-cfg.lsq_size:]
        self._lsq_commits = deque(
            [commits[r] for r in mem.tolist()], maxlen=cfg.lsq_size
        )
        ints = sched.int_rows[sched.int_rows < n][-cfg.int_issue_queue_size:]
        self._int_issues = deque(
            [issues[r] for r in ints.tolist()],
            maxlen=cfg.int_issue_queue_size,
        )
        fps = sched.fp_rows[sched.fp_rows < n][-cfg.fp_issue_queue_size:]
        self._fp_issues = deque(
            [issues[r] for r in fps.tolist()],
            maxlen=cfg.fp_issue_queue_size,
        )
        live = sched.writer_rows < n
        completes = ks.completes
        self._rename = {
            reg: completes[row]
            for reg, row in zip(
                sched.writer_regs[live].tolist(),
                sched.writer_rows[live].tolist(),
            )
        }

    # ------------------------------------------------------------------
    def _prune(self, horizon: int) -> None:
        """Retire usage-map entries that can never be probed again.

        Keys older than the pruning horizon (4 ROB lifetimes behind the
        latest issue) are dead; instead of rebuilding both dicts, the
        keys recorded since the last prune rotate through a ring and the
        oldest period's dead keys are deleted in place.  Still-live keys
        (>= floor) are pushed back to re-check at the next prune, so the
        maps stay bounded by a few periods' worth of distinct cycles.
        """
        floor = horizon - 4 * self.config.rob_size
        ring = self._usage_key_ring
        # Copy-and-clear keeps the list's identity stable: the kernel
        # scan holds a local alias and keeps appending after a prune.
        fresh = self._fresh_usage_keys
        ring.append(fresh[:])
        fresh.clear()
        old = ring.popleft()
        issue_usage = self._issue_usage
        fu_usage = self._fu_usage
        survivors = []
        for c in old:
            if c >= floor:
                survivors.append(c)
                continue
            issue_usage.pop(c, None)
            base = c << 2
            fu_usage.pop(base, None)
            fu_usage.pop(base | 1, None)
            fu_usage.pop(base | 2, None)
            fu_usage.pop(base | 3, None)
        if survivors:
            ring.appendleft(survivors)

    # ------------------------------------------------------------------
    def run(
        self, trace, warmup: int = 0,
        schedule: TraceSchedule | None = None,
    ) -> LeadingRunResult:
        """Schedule a whole trace (no RMT backpressure) and summarise.

        The first ``warmup`` instructions train the caches and predictor but
        are excluded from the reported statistics (SimPoint-style
        measurement window).  Columnar traces take the batch path;
        ``schedule`` optionally supplies a precomputed (memoized)
        :class:`TraceSchedule` for the kernel.
        """
        if isinstance(trace, TraceArrays):
            return self.run_arrays(trace, warmup, schedule)
        for instr in trace[:warmup]:
            self.schedule(instr)
        if warmup:
            self.start_measurement()
        for instr in trace[warmup:]:
            self.schedule(instr)
        return self.result(len(trace) - warmup)

    def start_measurement(self) -> None:
        """Snapshot counters so subsequent results report deltas only."""
        self._baseline = {
            "cycles": self._last_commit,
            "l2_misses": self.memory.l2.misses,
            "l1d_hits": self.memory.l1d.hits,
            "l1d_misses": self.memory.l1d.misses,
            "bpred_lookups": self.predictor.lookups,
            "bpred_misses": self.predictor.mispredicts,
        }

    def result(self, instructions: int) -> LeadingRunResult:
        """Summary over the measurement window (everything scheduled since
        :meth:`start_measurement`, or since construction)."""
        base = getattr(self, "_baseline", None) or {
            "cycles": 0, "l2_misses": 0, "l1d_hits": 0,
            "l1d_misses": 0, "bpred_lookups": 0, "bpred_misses": 0,
        }
        cycles = max(1, self._last_commit - base["cycles"])
        l1d_hits = self.memory.l1d.hits - base["l1d_hits"]
        l1d_misses = self.memory.l1d.misses - base["l1d_misses"]
        l1d_total = l1d_hits + l1d_misses
        lookups = self.predictor.lookups - base["bpred_lookups"]
        mispredicts = self.predictor.mispredicts - base["bpred_misses"]
        l2_misses = self.memory.l2.misses - base["l2_misses"]
        return LeadingRunResult(
            instructions=instructions,
            cycles=cycles,
            ipc=instructions / cycles,
            branch_mispredict_rate=mispredicts / lookups if lookups else 0.0,
            l1d_miss_rate=l1d_misses / l1d_total if l1d_total else 0.0,
            l2_misses_per_10k=l2_misses * 10_000.0 / max(1, instructions),
            average_l2_hit_latency=self.memory.average_l2_hit_latency,
            op_counts=dict(self._op_counts),
        )

    @property
    def current_cycle(self) -> int:
        """The commit cycle of the most recently scheduled instruction."""
        return self._last_commit
