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

One production path: :meth:`LeadingCoreTiming.run` takes a whole columnar
trace.  :meth:`~LeadingCoreTiming.prepare_window` first resolves a window's
fetch-line breaks, memory latencies (one compiled cache-probe call,
:meth:`~repro.core.memory.MemoryHierarchy.access_window`) and mispredict
flags — legal because the cache and predictor access order is a pure
function of the trace order, independent of the cycle timing — and the
compiled issue/retire scan (``leading_scan`` in ``_kernel.c``, built on
first use by :mod:`repro.core._native`) then closes every cycle from the
positional indices of a :class:`TraceSchedule`.  The per-row state machine
(:meth:`LeadingCoreTiming._advance`, driven by
:meth:`~LeadingCoreTiming._run_reference`) is the scan's reference oracle:
deques and a rename map, no schedule.  Results are bit-identical; where no
C compiler is available, :meth:`~LeadingCoreTiming.run` runs the oracle.

Both keep per-cycle issue and functional-unit usage for the structural
hazard probe, and both evict it exactly: dispatch of row ``i`` waits for
the commit of row ``i - rob_size`` and commits never decrease, so no probe
from row ``i`` on lands below ``commits[i - rob_size] + 2``.  Eviction
therefore never changes a result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.common.config import LeadingCoreConfig
from repro.common.errors import ConfigError, SimulationError
from repro.common.stats import StatGroup
from repro.core.branch import BranchPredictor
from repro.core.memory import MemoryHierarchy
from repro.isa.opcodes import (
    EXECUTION_LATENCY_BY_CODE,
    OP_BRANCH,
    OP_BY_CODE,
    OP_FALU,
    OP_FMUL,
    OP_LOAD,
    OP_STORE,
    POOL_BY_CODE,
    OpClass,
)
from repro.isa.soa import TraceArrays
from repro.obs.tracing import span

__all__ = [
    "LeadingCoreTiming",
    "LeadingRunResult",
    "PreparedWindow",
    "TraceSchedule",
    "build_trace_schedule",
]

# Front-end depth from fetch to dispatch (rename/decode stages).
_FRONT_END_DEPTH = 4
# Rows between the oracle's usage-map evictions.
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
    a NumPy array (one entry per row) that the compiled scan reads in
    place (``pool``, ``latency`` and ``fetch_add`` are int64).
    ``mispredicted`` is an int8 column: ``-1`` for non-branches, ``0``
    for correctly predicted branches, ``1`` for mispredicts.  Memory and
    predictor side effects have already been applied when this exists.
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

    def rows(self):
        """Iterate rows as `_advance` argument tuples (sans commit gate).

        Columns convert to plain lists here, once per window: the
        oracle's integer arithmetic must touch Python ints, never NumPy
        scalars.
        """
        return zip(
            self.fetch_add.tolist(), self.pool.tolist(),
            self.is_mem.tolist(), self.is_fp.tolist(), self.writes.tolist(),
            self.dst.tolist(), self.src1.tolist(), self.src2.tolist(),
            self.latency.tolist(), (self.mispredicted == 1).tolist(),
        )


@dataclass
class TraceSchedule:
    """Timing-independent positional indices for one whole trace.

    Everything the compiled issue/retire scan needs that is a pure
    function of the *trace order* (never of any cycle time), computed
    once per (trace, core geometry) with vectorized NumPy passes, as
    int64 arrays with one entry per row:

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
    """

    cg: np.ndarray
    ig: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    def prefix(self, rows: int) -> "TraceSchedule":
        """The schedule of the first ``rows`` rows (zero-copy views): a
        memoized schedule may cover a longer stream than a run's trace."""
        return TraceSchedule(
            self.cg[:rows], self.ig[:rows], self.w1[:rows], self.w2[:rows]
        )


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
        cg=np.maximum(cg, -1),
        ig=ig,
        w1=last_writer(arrays.src1),
        w2=last_writer(arrays.src2),
    )


def _check_warmup(arrays: TraceArrays, warmup: int) -> None:
    """Reject a warmup outside ``[0, len(arrays)]`` before a run starts."""
    if not 0 <= warmup <= len(arrays):
        raise ConfigError(
            f"warmup must be in [0, {len(arrays)}] (the trace length), "
            f"got {warmup}"
        )


def _kernel_library():
    """The compiled kernel library, or ``None`` (then the oracles run)."""
    from repro.core import _native

    return _native.load()


class LeadingCoreTiming:
    """OoO timing model of one leading core over one trace (:meth:`run`)."""

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
        self._kernel = None  # a _native.LeadingScan while in kernel mode
        # The commit cycle of every row of this core's one run, in trace
        # order (kernel or oracle), sized when the run starts; the RMT
        # harness reads it as its commit stream.
        self._commits = np.zeros(0, dtype=np.int64)
        self._claimed = False
        self._last_fetch_line = -1  # window prepass carry
        self._scheduled = 0
        self._last_commit = 0
        self._op_counts: dict[str, int] = {c.value: 0 for c in OpClass}

        # Scalar pipeline state of the per-row oracle (:meth:`_advance`).
        self._fetch_cycle = 0
        self._fetch_in_group = 0
        self._redirect_until = 0
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
        # Per-cycle structural usage of the oracle, evicted every
        # ``_PRUNE_PERIOD`` rows (:meth:`_prune`).  FU keys combine cycle
        # and pool into one int (``cycle << 2 | pool``).
        self._issue_usage: dict[int, int] = {}
        self._fu_usage: dict[int, int] = {}

    @property
    def commits(self) -> np.ndarray:
        """Commit cycle of every row scheduled so far, in trace order (a
        read-only int64 view)."""
        view = self._commits[:self._scheduled]
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    def run(
        self, arrays: TraceArrays, warmup: int = 0,
        schedule: TraceSchedule | None = None,
    ) -> LeadingRunResult:
        """Schedule a whole trace (no RMT backpressure) and summarise.

        The first ``warmup`` rows train the caches and predictor but are
        excluded from the reported statistics (SimPoint-style measurement
        window); ``warmup`` must lie in ``[0, len(arrays)]``.
        ``schedule`` optionally supplies a precomputed (memoized)
        :class:`TraceSchedule` for the kernel.  A core runs one trace: a
        second run raises :class:`~repro.common.errors.SimulationError`.
        Without the compiled kernel this runs :meth:`_run_reference`.
        """
        _check_warmup(arrays, warmup)
        if _kernel_library() is None:
            return self._run_reference(arrays, warmup)
        self.begin_kernel(
            (schedule or build_trace_schedule(arrays, self.config))
            .prefix(len(arrays))
        )
        for start, prepared in self._windows(arrays, warmup):
            self.advance_window(prepared, start)
        self.end_kernel()
        return self.result(len(arrays) - warmup)

    def _run_reference(
        self, arrays: TraceArrays, warmup: int = 0
    ) -> LeadingRunResult:
        """The per-row oracle of :meth:`run`: the same window prepass,
        then :meth:`_advance` row by row instead of the kernel."""
        _check_warmup(arrays, warmup)
        self._claim(len(arrays))
        advance = self._advance
        for _, prepared in self._windows(arrays, warmup):
            for row in prepared.rows():
                advance(*row)
        return self.result(len(arrays) - warmup)

    def _windows(self, arrays: TraceArrays, warmup: int):
        """Yield ``(start, PreparedWindow)`` for a run, split at ``warmup``.

        Lazy on purpose: the measured window is prepared — and
        :meth:`start_measurement` snapshots the counters — only once the
        caller has scheduled the warmup window, so the snapshot sees
        exactly the warmed cache/predictor state.  Each prepass runs
        under the ``sim.prepass`` span, apart from the scan that
        consumes it.
        """
        for start, end in ((0, warmup), (warmup, len(arrays))):
            if start == warmup and warmup:
                self.start_measurement()
            if end > start:
                with span("sim.prepass"):
                    prepared = self.prepare_window(arrays, start, end)
                yield start, prepared

    def _claim(self, rows: int) -> None:
        """Take this core for its one run (kernel or oracle) of ``rows``
        rows.

        Gate indices and :attr:`commits` are absolute trace rows, so a
        run cannot continue another one's pipeline.
        """
        if self._claimed:
            raise SimulationError(
                "a LeadingCoreTiming runs one trace; build a fresh core "
                "for another run"
            )
        self._claimed = True
        self._commits = np.zeros(rows, dtype=np.int64)

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
        mispredicted: bool,
        commit_gate: int = 0,
    ) -> None:
        """The per-row oracle of the kernel: one instruction, resolved.

        Every memory/predictor lookup has happened in the window prepass
        (:meth:`prepare_window`); what remains is pure integer cycle
        arithmetic over the scalar pipeline state.  ``fetch_add`` is the
        I-fetch stall in cycles (0 on an I-cache hit or a same-line
        fetch).  Records the row's commit cycle in :attr:`commits`.
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

        self._commits[self._scheduled] = commit
        self._scheduled += 1
        self._last_commit = commit
        if self._scheduled % _PRUNE_PERIOD == 0:
            self._prune()

    # ------------------------------------------------------------------
    def prepare_window(
        self, arrays: TraceArrays, start: int, end: int
    ) -> PreparedWindow:
        """Resolve a trace window's per-row columns for batch scheduling.

        Applies every cache access and predictor update for rows
        ``[start, end)`` in exact trace order — legal to do ahead of the
        cycle arithmetic because those state machines see only the address
        and outcome streams, never the timing.  The hierarchy sees the
        per-event order of a row-by-row replay: per row, the I-fetch
        (:meth:`MemoryHierarchy.fetch_latency`, on a break of the
        I-cache's line) precedes the data access (``load_latency``, or
        ``store_commit``, which touches L1D only).
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

        # Fetch-line breaks on the I-cache's own lines (carrying the last
        # line across windows).
        memory = self.memory
        lines = pc >> memory.l1i.geometry.line_bytes.bit_length() - 1
        prev_lines = np.concatenate([[self._last_fetch_line], lines[:-1]])
        self._last_fetch_line = int(lines[-1])

        # One merged event stream keeps the hierarchy's access order
        # identical to the per-event replay: row r's fetch (event slot
        # 2r, on a line break) precedes its data access (slot 2r + 1).
        present = np.empty((n, 2), dtype=bool)
        present[:, 0] = lines != prev_lines
        present[:, 1] = is_mem
        events = np.flatnonzero(present)
        kinds = np.empty((n, 2), dtype=np.int64)
        kinds[:, 0] = memory.FETCH
        kinds[:, 1] = np.where(is_store, memory.STORE, memory.LOAD)
        slot_latency = np.zeros(2 * n, dtype=np.int64)
        slot_latency[events] = memory.access_window(
            kinds.reshape(-1)[events],
            np.stack([pc, address], axis=1).reshape(-1)[events],
        )
        fetch_lat, load_lat = slot_latency.reshape(n, 2).T
        i_hit = self.config.l1_icache.hit_latency_cycles
        fetch_add = np.where(fetch_lat > i_hit, fetch_lat, 0)

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

    # -- compiled issue/retire kernel ----------------------------------
    def begin_kernel(self, schedule: TraceSchedule) -> None:
        """Enter kernel mode over a fresh core (see :meth:`_claim`).

        Raises :class:`~repro.common.errors.SimulationError` when the
        compiled kernel is unavailable.
        """
        lib = _kernel_library()
        if lib is None:
            raise SimulationError("the compiled timing kernel is unavailable")
        from repro.core._native import LeadingScan

        self._claim(len(schedule.cg))
        self._kernel = LeadingScan(
            lib, schedule, self._commits, self.config,
            self._fu_cap_by_pool, self._mispredict_penalty,
        )

    def gate_commits(
        self, needed: np.ndarray, binding: np.ndarray,
        consume: np.ndarray, stalls: np.ndarray,
    ) -> None:
        """Gate the kernel's commits on a consume stream (RMT queues).

        Row ``i`` with ``needed[i] >= 0`` commits no earlier than
        ``ceil(consume[needed[i]])``; when that gate exceeds the previous
        row's commit, ``stalls[binding[i]]`` counts one stall.  int64
        ``needed`` and ``stalls``, int8 ``binding``, float64 ``consume``;
        the scan reads them in place for the rest of the run.
        """
        self._kernel.gate(needed, binding, consume, stalls)

    def advance_window(
        self, prepared: PreparedWindow, start: int, consumed: int = 0
    ) -> int:
        """Schedule a prepared window through the compiled scan.

        ``start`` is the absolute trace row of ``prepared``'s first row;
        the scan continues from the next unscheduled row.  Returns the row
        it stopped at: the window's end, or — when commits are gated
        (:meth:`gate_commits`) — the first row whose gating entry is not
        among the first ``consumed`` rows, the ones with a consume time.
        """
        kernel = self._kernel
        row = kernel.scan(prepared, start, consumed)
        self._scheduled = row
        self._last_commit = kernel.last_commit
        return row

    def end_kernel(self) -> None:
        """Leave kernel mode; the commit cycles stay in :attr:`commits`."""
        self._kernel = None

    # ------------------------------------------------------------------
    def _prune(self) -> None:
        """Evict the oracle's usage-map cycles that no later probe reads.

        Dispatch of the next row ``i`` waits for the commit of row
        ``i - rob_size``, and commits never decrease, so every probe from
        row ``i`` on starts at or above ``commits[i - rob_size] + 2``.
        """
        row = self._scheduled - self.config.rob_size
        if row < 0:
            return
        floor = int(self._commits[row]) + 2
        self._issue_usage = {
            c: n for c, n in self._issue_usage.items() if c >= floor
        }
        self._fu_usage = {
            k: n for k, n in self._fu_usage.items() if k >> 2 >= floor
        }

    # ------------------------------------------------------------------
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
