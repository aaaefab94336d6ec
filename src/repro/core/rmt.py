"""RMT co-simulation: leading core + trailing checker + DFS, in time.

The two cores execute the same dynamic instruction stream separated by a
slack (Section 2).  The leading core commits into the RVQ/LVQ/BOQ/StB; the
trailing core consumes entries at its own (DFS-scaled) frequency; when any
queue fills, the leading core's commit stalls (backpressure).  The DFS
controller samples RVQ occupancy every interval and adjusts the trailing
frequency, producing the residency histogram of Figure 7.

All four bounded queues gate the leading core exactly as the sized
structures of Section 2.1 would (200-entry RVQ, 80-entry LVQ, 40-entry BOQ,
40-entry StB).

One production path: :meth:`RmtSimulator.run` drives the leading core's
compiled scan with the queue gating inline — each row's commit gate (the
consume time of its gating entry) and the stall attribution are computed
in the scan, which stops at the first row whose gating entry has no
consume time yet; :meth:`RmtSimulator.advance_window` then drains the
checker (``consume_window``, one compiled scan per DFS interval) and
resumes it.  The per-row gating loop over the leading core's ``_advance``
oracle (:meth:`RmtSimulator._run_reference`) is the reference, and runs
in production where no C compiler is available.  The commit and consume
streams are int64 and float64 arrays sized to the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common.config import CheckerCoreConfig, LeadingCoreConfig
from repro.core.branch import BranchPredictor
from repro.core.checker import InOrderCheckerTiming
from repro.core.dfs import DfsController
from repro.core.leading import (
    LeadingCoreTiming,
    LeadingRunResult,
    TraceSchedule,
    _check_warmup,
    _kernel_library,
    build_trace_schedule,
)
from repro.core.memory import MemoryHierarchy
from repro.isa.opcodes import (
    EXECUTION_LATENCY_BY_CODE,
    OP_BRANCH,
    OP_LOAD,
    OP_STORE,
    POOL_BY_CODE,
)
from repro.isa.soa import TraceArrays
from repro.obs.metrics import FRACTION_EDGES, get_registry
from repro.obs.tracing import span

__all__ = ["RmtSimulator", "RmtTimingResult"]

_POOL_ARR = np.array(POOL_BY_CODE, dtype=np.int64)
_LATENCY_ARR = np.array(EXECUTION_LATENCY_BY_CODE, dtype=np.int64)
# Queue binding codes of the gate pre-pass (indexes of stall counts).
_BINDINGS = ("rvq", "lvq", "stb", "boq")


@dataclass
class RmtTimingResult:
    """Timing outcome of an RMT co-simulation."""

    leading: LeadingRunResult
    frequency_residency: dict[float, float]
    mean_frequency_fraction: float
    modal_frequency_fraction: float
    mean_rvq_occupancy_fraction: float
    backpressure_commits: int
    checker_instructions: int

    def mean_checker_frequency_hz(self, peak_hz: float) -> float:
        """Average absolute checker frequency for a given peak."""
        return self.mean_frequency_fraction * peak_hz

    def checker_energy_ratio(self, leakage_fraction: float = 0.25) -> float:
        """Checker energy relative to running pinned at peak frequency.

        DFS scales the dynamic share linearly with frequency while leakage
        persists — this is the power saving Section 2.1's throttling buys.
        """
        if not 0.0 <= leakage_fraction <= 1.0:
            raise ValueError("leakage fraction must be in [0, 1]")
        dynamic = 1.0 - leakage_fraction
        return leakage_fraction + dynamic * self.mean_frequency_fraction


class RmtSimulator:
    """Co-simulates the reliable processor's two cores over one trace."""

    def __init__(
        self,
        leading_config: LeadingCoreConfig,
        checker_config: CheckerCoreConfig,
        memory: MemoryHierarchy,
        predictor: BranchPredictor | None = None,
        transfer_latency_cycles: int = 1,
        checker_peak_ratio: float = 1.0,
    ):
        """``transfer_latency_cycles`` models the inter-core interconnect
        (≈1 cycle over 3D vias, ≈4 cycles over 2D global wires).

        ``checker_peak_ratio`` caps the checker's peak frequency as a
        fraction of the leading core's — e.g. 0.7 for the 1.4 GHz ceiling of
        a 90 nm checker under a 2 GHz leading core (Section 4).
        """
        self.leading_config = leading_config
        self.checker_config = checker_config
        self.leading = LeadingCoreTiming(leading_config, memory, predictor)
        levels = checker_config.dfs.levels()
        max_index = max(
            i for i, lvl in enumerate(levels) if lvl <= checker_peak_ratio + 1e-9
        )
        self.dfs = DfsController(checker_config.dfs, max_level_index=max_index)
        self.checker = InOrderCheckerTiming(
            checker_config, frequency_ratio=self.dfs.level
        )
        self.transfer_latency = transfer_latency_cycles

        qc = checker_config.queues
        self._rvq_capacity = qc.rvq_entries
        self._lvq_capacity = qc.lvq_entries
        self._boq_capacity = qc.boq_entries
        self._stb_capacity = qc.stb_entries

        # The leading core's commit array doubles as this harness's commit
        # stream; ``_consume`` holds the first ``_next_consume`` rows'
        # check-commit times (both sized to the trace by :meth:`_bind`).
        self._consume = np.zeros(0, dtype=np.float64)
        self._next_consume = 0
        self._next_boundary = float(checker_config.dfs.interval_cycles)
        self._boundary_commit_ptr = 0
        self._boundary_consume_ptr = 0
        self._occupancy_samples: list[float] = []
        self.backpressure_commits = 0
        # Which bounded queue gated each backpressured commit (counted by
        # the scan or the oracle loop; published to the metrics registry
        # once per run).
        self.queue_stalls = {"rvq": 0, "lvq": 0, "stb": 0, "boq": 0}

    @property
    def _commit_times(self) -> np.ndarray:
        """The commit stream so far (the leading core's :attr:`commits`)."""
        return self.leading.commits

    @property
    def _consume_times(self) -> np.ndarray:
        """The check-commit times consumed so far."""
        return self._consume[:self._next_consume]

    # ------------------------------------------------------------------
    def run(
        self, arrays: TraceArrays, warmup: int = 0,
        schedule: TraceSchedule | None = None,
    ) -> RmtTimingResult:
        """Co-simulate the full trace and return the timing summary.

        The first ``warmup`` rows flow through both cores but are
        excluded from the reported leading-core statistics; ``warmup``
        must lie in ``[0, len(arrays)]``.  The leading core's compiled
        scan runs each prepared window (split at the warmup boundary)
        through :meth:`advance_window`; ``schedule`` optionally supplies
        a precomputed (memoized) :class:`~repro.core.leading.TraceSchedule`.
        A simulator runs one trace: a second run raises
        :class:`~repro.common.errors.SimulationError`.  Without the
        compiled kernel this runs :meth:`_run_reference`.
        """
        _check_warmup(arrays, warmup)
        if _kernel_library() is None:
            return self._run_reference(arrays, warmup)
        self.leading.begin_kernel(
            (schedule or build_trace_schedule(arrays, self.leading_config))
            .prefix(len(arrays))
        )
        self._bind(arrays)
        self.leading.gate_commits(
            self._needed, self._binding, self._consume, self._stall_counts
        )
        for start, prepared in self.leading._windows(arrays, warmup):
            self.advance_window(prepared, start)
        return self.end_windows(len(arrays) - warmup)

    def _run_reference(
        self, arrays: TraceArrays, warmup: int = 0
    ) -> RmtTimingResult:
        """The per-row oracle of :meth:`run`.

        The same window prepass, gate indices and checker drains, but the
        leading core advances one row at a time (``_advance``), each row
        gated by the consume time of its queue-gating entry, draining the
        checker exactly when that entry is beyond the consume stream.
        """
        _check_warmup(arrays, warmup)
        leading = self.leading
        leading._claim(len(arrays))
        self._bind(arrays)
        needed_list = self._needed.tolist()
        binding_list = self._binding.tolist()
        advance = leading._advance
        consume = self._consume
        queue_stalls = self.queue_stalls
        ceil = math.ceil
        for start, prepared in leading._windows(arrays, warmup):
            for i, row in enumerate(prepared.rows(), start):
                needed = needed_list[i]
                gate = 0
                if needed >= 0:
                    if needed >= self._next_consume:
                        self._drain_to(needed)
                    gate = ceil(consume[needed])
                    if gate > leading._last_commit:
                        self.backpressure_commits += 1
                        queue_stalls[_BINDINGS[binding_list[i]]] += 1
                advance(*row, gate)
        self._drain_to(len(arrays) - 1)
        return self._result(len(arrays) - warmup)

    def _bind(self, arrays: TraceArrays) -> None:
        """Attach ``arrays``: checker columns, queue-gate indices and the
        consume stream, all arrays over the whole trace.

        The checker columns are int64, so ``consume_window`` binds them
        (and the commit and consume streams) once per run.
        """
        self._trace = arrays
        ops = arrays.op
        self._cw_pool = _POOL_ARR[ops]
        self._cw_latency = _LATENCY_ARR[ops]
        self._cw_src1 = arrays.src1.astype(np.int64)
        self._cw_src2 = arrays.src2.astype(np.int64)
        self._cw_dst = arrays.dst.astype(np.int64)
        self._needed, self._binding = self._precompute_gates(ops)
        self._consume = np.zeros(len(arrays), dtype=np.float64)
        self._stall_counts = np.zeros(len(_BINDINGS), dtype=np.int64)

    def advance_window(self, prepared, start: int) -> None:
        """Co-simulate one prepared window, draining at gated rows.

        The compiled scan gates every row on the consume time of its
        gating entry and stops at the first row whose entry has no consume
        time yet — exactly where the per-row oracle drains the checker
        (``needed >= consumed``).  Draining there sees the same
        commit/consume prefixes as the per-row schedule (DFS occupancy
        sampling included), and the scan resumes at that row.
        """
        leading = self.leading
        end = start + len(prepared)
        row = leading.advance_window(prepared, start, self._next_consume)
        while row < end:
            self._drain_to(int(self._needed[row]))
            row = leading.advance_window(prepared, start, self._next_consume)

    def end_windows(self, instructions: int) -> RmtTimingResult:
        """Finish a kernel run: drain the checker, leave kernel mode and
        take the scan's stall counts."""
        self._drain_to(len(self._trace) - 1)
        self.leading.end_kernel()
        for queue, count in zip(_BINDINGS, self._stall_counts.tolist()):
            self.queue_stalls[queue] += count
            self.backpressure_commits += count
        return self._result(instructions)

    def _precompute_gates(
        self, ops: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorize the queue-gating recurrence's *candidate* indices.

        For each row ``i`` the gating entry — the earlier row whose
        check-commit must precede row ``i``'s commit — is a pure
        positional recurrence over the class masks (the k-th previous
        same-class row), independent of any timing.  Only the consume
        *times* are runtime-dependent, so a row's gate reduces to a
        lookup.  Returns ``(needed, binding)`` arrays (int64, int8);
        ``needed[i] < 0`` means row ``i`` is ungated and ``binding[i]``
        indexes ``_BINDINGS`` for stall attribution.
        """
        n = len(ops)
        # RVQ: every instruction occupies one entry (negative = ungated).
        needed = np.arange(-self._rvq_capacity, n - self._rvq_capacity)
        binding = np.zeros(n, dtype=np.int8)
        for code, capacity, bcode in (
            (OP_LOAD, self._lvq_capacity, 1),
            (OP_STORE, self._stb_capacity, 2),
            (OP_BRANCH, self._boq_capacity, 3),
        ):
            pos = np.flatnonzero(ops == code)
            if len(pos) > capacity:
                sel = pos[capacity:]
                cand = pos[: len(pos) - capacity]
                win = cand > needed[sel]
                needed[sel] = np.where(win, cand, needed[sel])
                binding[sel[win]] = bcode
        return needed, binding

    def _drain_to(self, index: int) -> None:
        """Consume every RVQ entry up to ``index``, extending eagerly.

        Committed rows whose arrival precedes the next DFS boundary are
        consumed as one :meth:`InOrderCheckerTiming.consume_window` batch
        — the frequency ratio cannot change inside such a window.  A row
        whose arrival crosses the boundary is consumed alone through
        :meth:`InOrderCheckerTiming.consume_op`, after firing the boundary
        (and any ratio change).  Eager extension past ``index`` is safe:
        consumption order and per-row arrivals are exactly those of the
        lazy schedule, so the published consume times are identical, and
        DFS occupancy sampling sees identical commit/consume prefixes
        because boundary-crossing rows are never consumed early.
        """
        commits = self.leading._commits
        consume = self._consume
        transfer = self.transfer_latency
        checker = self.checker
        while self._next_consume <= index:
            k = self._next_consume
            committed = self.leading._scheduled
            j = k + int(np.searchsorted(
                commits[k:committed], self._next_boundary - transfer
            )) - 1
            if j >= k:
                with span("rmt.consume_window"):
                    checker.consume_window(
                        self._cw_pool, self._cw_src1, self._cw_src2,
                        self._cw_dst, self._cw_latency, commits, transfer,
                        k, j + 1, consume,
                    )
                self._next_consume = j + 1
            else:
                available = int(commits[k]) + transfer
                self._process_boundaries(available)
                consume[k] = checker.consume_op(
                    int(self._cw_pool[k]),
                    int(self._cw_src1[k]),
                    int(self._cw_src2[k]),
                    int(self._cw_dst[k]),
                    int(self._cw_latency[k]),
                    available,
                )
                self._next_consume += 1

    # ------------------------------------------------------------------
    def _process_boundaries(self, up_to_time: float) -> None:
        """Apply DFS interval boundaries that have passed."""
        commits = self.leading._commits
        committed = self.leading._scheduled
        while self._next_boundary <= up_to_time:
            b = self._next_boundary
            # Both streams are monotone non-decreasing, so advancing each
            # pointer past every entry <= b is a search from the pointer.
            ptr = self._boundary_commit_ptr
            self._boundary_commit_ptr = ptr + int(np.searchsorted(
                commits[ptr:committed], b, side="right"
            ))
            ptr = self._boundary_consume_ptr
            self._boundary_consume_ptr = ptr + int(np.searchsorted(
                self._consume[ptr:self._next_consume], b, side="right"
            ))
            occupancy = self._boundary_commit_ptr - self._boundary_consume_ptr
            fraction = max(0.0, min(1.0, occupancy / self._rvq_capacity))
            self._occupancy_samples.append(fraction)
            ratio = self.dfs.update(fraction)
            self.checker.set_frequency_ratio(ratio)
            self._next_boundary += self.checker_config.dfs.interval_cycles

    # ------------------------------------------------------------------
    def _result(self, instructions: int) -> RmtTimingResult:
        mean_occ = (
            sum(self._occupancy_samples) / len(self._occupancy_samples)
            if self._occupancy_samples
            else 0.0
        )
        self._publish_metrics(mean_occ)
        return RmtTimingResult(
            leading=self.leading.result(instructions),
            frequency_residency=self.dfs.residency_fractions(),
            mean_frequency_fraction=self.dfs.mean_frequency_fraction(),
            modal_frequency_fraction=self.dfs.modal_frequency_fraction(),
            mean_rvq_occupancy_fraction=mean_occ,
            backpressure_commits=self.backpressure_commits,
            checker_instructions=self.checker.consumed,
        )

    def _publish_metrics(self, mean_occupancy: float) -> None:
        """Push this co-simulation's totals into the metrics registry.

        Runs once, at the end of :meth:`run` — the hot loops only bump
        plain attributes, and the registry sees aggregates.
        """
        m = get_registry()
        m.counter("rmt.simulations").inc()
        m.counter("rmt.backpressure_commits").inc(self.backpressure_commits)
        for queue, stalls in self.queue_stalls.items():
            m.counter(f"rmt.stalls.{queue}").inc(stalls)
        m.counter("rmt.checker_instructions").inc(self.checker.consumed)
        windows = self.checker.windows_consumed
        if windows:
            m.counter("rmt.consume_windows").inc(windows)
            m.counter("rmt.consume_window_rows").inc(
                self.checker.window_rows_consumed
            )
            m.gauge("rmt.mean_consume_window_rows_max").set(
                self.checker.window_rows_consumed / windows
            )
        m.counter("dfs.transitions_up").inc(self.dfs.throttle_ups)
        m.counter("dfs.transitions_down").inc(self.dfs.throttle_downs)
        m.gauge("rmt.mean_rvq_occupancy_max").set(mean_occupancy)
        residency = m.histogram("dfs.residency", FRACTION_EDGES)
        for level, count in zip(self.dfs.residency.bins, self.dfs.residency.counts):
            if count:
                residency.observe(level, count)
        occupancy = m.histogram("rmt.rvq_occupancy", FRACTION_EDGES)
        for sample in self._occupancy_samples:
            occupancy.observe(sample)
