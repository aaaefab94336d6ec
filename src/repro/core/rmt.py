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
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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
    build_trace_schedule,
)
from repro.core.memory import MemoryHierarchy
from repro.isa.instruction import Instruction
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
# Queue binding codes used by the vectorized gate pre-pass.
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

        self._commit_times: list[int] = []
        self._consume_times: list[float] = []
        self._trace: list[Instruction] | TraceArrays = []
        self._consume_row = self._consume_row_object
        self._next_consume = 0
        self._load_indices: list[int] = []
        self._store_indices: list[int] = []
        self._branch_indices: list[int] = []
        self._next_boundary = float(checker_config.dfs.interval_cycles)
        self._boundary_commit_ptr = 0
        self._boundary_consume_ptr = 0
        self._occupancy_samples: list[float] = []
        self.backpressure_commits = 0
        # Which bounded queue gated each backpressured commit (plain dict
        # bumps in the hot path; published to the metrics registry once
        # per run).
        self.queue_stalls = {"rvq": 0, "lvq": 0, "stb": 0, "boq": 0}

    # ------------------------------------------------------------------
    def run(
        self, trace, warmup: int = 0,
        schedule: TraceSchedule | None = None,
    ) -> RmtTimingResult:
        """Co-simulate the full trace and return the timing summary.

        The first ``warmup`` instructions flow through both cores but are
        excluded from the reported leading-core statistics.  Columnar
        traces take the batch path; ``schedule`` optionally supplies a
        precomputed (memoized) :class:`~repro.core.leading.TraceSchedule`
        for the windowed kernel.
        """
        if isinstance(trace, TraceArrays):
            return self.run_arrays(trace, warmup, schedule)
        self._trace = trace
        self._consume_row = self._consume_row_object
        for i, instr in enumerate(trace):
            if i == warmup and warmup:
                self.leading.start_measurement()
            gate = self._gate_for(
                i, instr.is_load, instr.is_store, instr.is_branch
            )
            commit = self.leading.schedule(instr, commit_gate=gate)
            self._commit_times.append(commit)
            if instr.is_load:
                self._load_indices.append(i)
            elif instr.is_store:
                self._store_indices.append(i)
            elif instr.is_branch:
                self._branch_indices.append(i)
        self._consume_until(len(trace) - 1)
        return self._result(len(trace) - warmup)

    def run_arrays(
        self, arrays: TraceArrays, warmup: int = 0,
        schedule: TraceSchedule | None = None,
    ) -> RmtTimingResult:
        """Columnar co-simulation — bit-identical to :meth:`run`.

        The leading core's memory/predictor behaviour is pre-resolved per
        window (:meth:`LeadingCoreTiming.prepare_window`, split at the
        warmup boundary so the measurement snapshot is unchanged); the
        checker consumes whole windows of precomputed integer columns at
        once (:meth:`_drain_to`), and the queue-gating recurrence is
        reduced to a table lookup by a vectorized pre-pass
        (:meth:`_precompute_gates`).  A fresh simulator takes the
        windowed issue/retire kernel (:meth:`_run_arrays_kernel`); the
        per-row scalar loop below is retained as the oracle.
        """
        self._trace = arrays
        ops = arrays.op
        # Checker columns stay NumPy arrays end-to-end: consume_window
        # slices them per window, and the rare boundary-row fallback
        # indexes them directly.
        self._cw_pool = _POOL_ARR[ops]
        self._cw_latency = _LATENCY_ARR[ops]
        self._cw_src1 = arrays.src1
        self._cw_src2 = arrays.src2
        self._cw_dst = arrays.dst
        self._consume_row = self._consume_row_columnar
        needed_arr, binding_arr = self._precompute_gates(ops)

        if (
            self.leading.kernel_eligible()
            and not self._commit_times
            and not self._consume_times
        ):
            return self._run_arrays_kernel(
                arrays, warmup, needed_arr, binding_arr, schedule
            )

        needed_list = needed_arr.tolist()
        binding_list = binding_arr.tolist()
        n = len(arrays)
        leading = self.leading
        advance = leading._advance
        commit_times = self._commit_times
        consume_times = self._consume_times
        queue_stalls = self.queue_stalls
        ceil = math.ceil
        i = 0
        for start, end in ((0, min(warmup, n)), (min(warmup, n), n)):
            if start == end:
                continue
            if start == warmup and warmup:
                leading.start_measurement()
            prepared = leading.prepare_window(arrays, start, end)
            for row in prepared.rows():
                needed = needed_list[i]
                if needed >= 0:
                    if needed >= len(consume_times):
                        self._drain_to(needed)
                    gate = ceil(consume_times[needed])
                    if gate > leading._last_commit:
                        self.backpressure_commits += 1
                        queue_stalls[_BINDINGS[binding_list[i]]] += 1
                    commit = advance(*row, gate)
                else:
                    commit = advance(*row)
                commit_times.append(commit)
                i += 1
        self._drain_to(n - 1)
        return self._result(n - warmup)

    def _run_arrays_kernel(
        self,
        arrays: TraceArrays,
        warmup: int,
        needed_arr: np.ndarray,
        binding_arr: np.ndarray,
        schedule: TraceSchedule | None,
    ) -> RmtTimingResult:
        """Windowed-kernel co-simulation, chunked at checker drains.

        Enters kernel mode over the fresh leading core, drives
        :meth:`advance_window` once per trace window (split at the warmup
        boundary) and finishes with :meth:`end_windows`.
        """
        n = len(arrays)
        if schedule is None:
            schedule = build_trace_schedule(arrays, self.leading_config)
        self.leading.begin_kernel(schedule)
        # The leading kernel's absolute commit list is shared as this
        # harness's commit stream — no per-row copying in either
        # direction.
        self._commit_times = self.leading._kernel.commits
        self._kw_needed_arr = needed_arr
        self._kw_needed_list = needed_arr.tolist()
        self._kw_needed_max = np.maximum.accumulate(needed_arr)
        self._kw_binding_arr = binding_arr
        w = min(warmup, n)
        for start, end in ((0, w), (w, n)):
            if start == end:
                continue
            if start == warmup and warmup:
                self.leading.start_measurement()
            self.advance_window(
                self.leading.prepare_window(arrays, start, end), start
            )
        return self.end_windows(n - warmup)

    def advance_window(self, prepared, start: int) -> None:
        """Co-simulate one prepared window, chunked at checker drains.

        The scalar loop drains the checker exactly when a row's gating
        entry is beyond the consume stream (``needed >= len(consume)``),
        so those rows — found by a searchsorted over the running max of
        ``needed`` — are the only sound chunk boundaries: between two of
        them every gate is a plain gather over already-final consume
        times, and draining at the boundary sees the exact same
        commit/consume prefixes as the scalar schedule (DFS occupancy
        sampling included).
        """
        leading = self.leading
        ks = leading._kernel
        consume_times = self._consume_times
        queue_stalls = self.queue_stalls
        needed_arr = self._kw_needed_arr
        needed_list = self._kw_needed_list
        needed_max = self._kw_needed_max
        binding_arr = self._kw_binding_arr
        ceil = math.ceil
        end = start + len(prepared)
        i0 = start
        while i0 < end:
            if needed_list[i0] >= len(consume_times):
                self._drain_to(needed_list[i0])
            avail = len(consume_times)
            i1 = min(
                int(np.searchsorted(needed_max, avail, side="left")), end
            )
            gates = [
                0 if k < 0 else ceil(consume_times[k])
                for k in needed_list[i0:i1]
            ]
            leading.advance_window(
                prepared.window_slice(i0 - start, i1 - start), i0, gates
            )
            # Stall attribution, identical to the scalar per-row
            # check: gate > the previous row's commit.
            chunk_needed = needed_arr[i0:i1]
            gated = chunk_needed >= 0
            if gated.any():
                prev = np.empty(i1 - i0, dtype=np.int64)
                prev[0] = ks.commits[i0 - 1] if i0 else 0
                prev[1:] = ks.commits[i0:i1 - 1]
                stalled = gated & (np.asarray(gates, dtype=np.int64) > prev)
                count = int(np.count_nonzero(stalled))
                if count:
                    self.backpressure_commits += count
                    for b, c in enumerate(
                        np.bincount(
                            binding_arr[i0:i1][stalled], minlength=4
                        ).tolist()
                    ):
                        if c:
                            queue_stalls[_BINDINGS[b]] += c
            i0 = i1

    def end_windows(self, instructions: int) -> RmtTimingResult:
        """Finish a windowed run: drain the checker, leave kernel mode."""
        self._drain_to(len(self._trace) - 1)
        self.leading.end_kernel()
        return self._result(instructions)

    def _precompute_gates(
        self, ops: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorize the queue-gating recurrence's *candidate* indices.

        For each row ``i`` the gating entry — the earlier row whose
        check-commit must precede row ``i``'s commit — is a pure
        positional recurrence over the class masks (the k-th previous
        same-class row), independent of any timing.  Only the consume
        *times* are runtime-dependent, so the per-row work in
        :meth:`run_arrays` reduces to a list lookup.  Returns
        ``(needed, binding)`` arrays; ``needed[i] < 0`` means row ``i``
        is ungated and ``binding[i]`` indexes ``_BINDINGS`` for stall
        attribution.
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
        whose arrival crosses the boundary falls back to the scalar
        oracle step, which fires the boundary (and any ratio change)
        first.  Eager extension past ``index`` is safe: consumption order
        and per-row arrivals are exactly those of the lazy schedule, so
        the published consume times are identical, and DFS occupancy
        sampling sees identical commit/consume prefixes because
        boundary-crossing rows are never consumed early.
        """
        commit_times = self._commit_times
        consume_times = self._consume_times
        transfer = self.transfer_latency
        checker = self.checker
        while self._next_consume <= index:
            k = self._next_consume
            j = bisect_left(commit_times, self._next_boundary - transfer, k) - 1
            if j >= k:
                avail = np.asarray(commit_times[k:j + 1], dtype=np.float64)
                avail += transfer
                with span("rmt.consume_window"):
                    done = checker.consume_window(
                        self._cw_pool[k:j + 1],
                        self._cw_src1[k:j + 1],
                        self._cw_src2[k:j + 1],
                        self._cw_dst[k:j + 1],
                        self._cw_latency[k:j + 1],
                        avail,
                    )
                consume_times.extend(done.tolist())
                self._next_consume = j + 1
            else:
                available = commit_times[k] + transfer
                self._process_boundaries(available)
                consume_times.append(self._consume_row(k, available))
                self._next_consume += 1

    # ------------------------------------------------------------------
    def _commit_gate(self, i: int, instr: Instruction) -> int:
        """Earliest commit cycle for instruction ``i`` given queue space."""
        return self._gate_for(i, instr.is_load, instr.is_store, instr.is_branch)

    def _gate_for(
        self, i: int, is_load: bool, is_store: bool, is_branch: bool
    ) -> int:
        """The queue-occupancy gating recurrence, on plain class flags."""
        needed = -1
        binding = "rvq"
        # RVQ: every instruction occupies one entry.
        if i >= self._rvq_capacity:
            needed = i - self._rvq_capacity
        # LVQ / BOQ / StB: per-class occupancy.
        if is_load and len(self._load_indices) >= self._lvq_capacity:
            cand = self._load_indices[len(self._load_indices) - self._lvq_capacity]
            if cand > needed:
                needed, binding = cand, "lvq"
        elif is_store and len(self._store_indices) >= self._stb_capacity:
            cand = self._store_indices[len(self._store_indices) - self._stb_capacity]
            if cand > needed:
                needed, binding = cand, "stb"
        elif is_branch and len(self._branch_indices) >= self._boq_capacity:
            cand = self._branch_indices[len(self._branch_indices) - self._boq_capacity]
            if cand > needed:
                needed, binding = cand, "boq"
        if needed < 0:
            return 0
        self._consume_until(needed)
        gate = self._consume_times[needed]
        gate_cycle = int(math.ceil(gate))
        if gate_cycle > self.leading.current_cycle:
            self.backpressure_commits += 1
            self.queue_stalls[binding] += 1
        return gate_cycle

    def _consume_until(self, index: int) -> None:
        """Run the checker over all instructions up to ``index`` inclusive."""
        consume_row = self._consume_row
        while self._next_consume <= index:
            k = self._next_consume
            available = self._commit_times[k] + self.transfer_latency
            self._process_boundaries(available)
            self._consume_times.append(consume_row(k, available))
            self._next_consume += 1

    def _consume_row_object(self, k: int, available: float) -> float:
        return self.checker.consume(self._trace[k], available)

    def _consume_row_columnar(self, k: int, available: float) -> float:
        return self.checker.consume_op(
            int(self._cw_pool[k]),
            int(self._cw_src1[k]),
            int(self._cw_src2[k]),
            int(self._cw_dst[k]),
            int(self._cw_latency[k]),
            available,
        )

    def _process_boundaries(self, up_to_time: float) -> None:
        """Apply DFS interval boundaries that have passed."""
        while self._next_boundary <= up_to_time:
            b = self._next_boundary
            # Both streams are monotone non-decreasing, so advancing each
            # pointer past every entry <= b is a bisect from the pointer.
            self._boundary_commit_ptr = bisect_right(
                self._commit_times, b, self._boundary_commit_ptr
            )
            self._boundary_consume_ptr = bisect_right(
                self._consume_times, b, self._boundary_consume_ptr
            )
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
