"""Timing model of the in-order trailing checker core.

With register value prediction (RVP) the checker's instructions never stall
on data dependences: operands arrive with the RVQ entry, so throughput is
bounded only by fetch/issue bandwidth and functional units (Section 2.1).
Without RVP the model honours in-order dependence stalls, which is what
makes the paper's case for RVP measurable.

The checker runs at a frequency that is a fraction of the leading core's;
all times exchanged with the RMT harness are expressed in *leading-core
cycles* so the two clock domains compose (GALS-style, Section 2.1).

One production path: :meth:`InOrderCheckerTiming.consume_window` runs a
whole run of RVQ entries through one compiled scan (``checker_consume`` in
``_kernel.c``, the per-row form of both the RVP and the dependence-stall
model).  :meth:`~InOrderCheckerTiming.consume_op` is its per-row oracle;
the RMT harness also uses it for the rows whose arrival crosses a DFS
interval boundary, and ``consume_window`` falls back to it where no C
compiler is available.  Both read and write the same state buffers.
"""

from __future__ import annotations

import numpy as np

from repro.common.config import CheckerCoreConfig
from repro.isa.opcodes import OP_CODE, POOL_BY_CODE, OpClass

__all__ = ["InOrderCheckerTiming"]

# Checker FU capacities per pool code [IALU, IMUL, FALU, FMUL]; the single
# source of truth for both the scalar and windowed consume paths (memory
# and branch ops check through the IALU pool, see POOL_BY_CODE).
_FU_CAP_BY_POOL = (4, 2, 1, 1)

_NUM_POOLS = len(_FU_CAP_BY_POOL)
# Architectural registers tracked from the start (grown on demand).
_INITIAL_REGS = 64


class InOrderCheckerTiming:
    """Incremental in-order consumption model for the trailing core."""

    def __init__(self, config: CheckerCoreConfig, frequency_ratio: float = 1.0):
        self.config = config
        # The state both consume paths share, as the buffers the compiled
        # scan reads: ``_carry`` holds the leading-cycle start of the
        # current trailing cycle, the trailing cycle's length and the last
        # check-commit time; ``_use`` the slots used this cycle, then the
        # units used per pool; ``_reg_ready`` each architectural
        # register's ready time (without RVP).
        self._carry = np.zeros(3, dtype=np.float64)
        self._use = np.zeros(1 + _NUM_POOLS, dtype=np.int64)
        self._reg_ready = np.zeros(_INITIAL_REGS, dtype=np.float64)
        self._scan = None  # a _native.CheckerScan, made on first use
        self._regs_sized_for = None  # the dst column _reg_ready covers
        self._consumed = 0
        # Windowed-consume accounting (published by the RMT harness).
        self.windows_consumed = 0
        self.window_rows_consumed = 0
        self.set_frequency_ratio(frequency_ratio)

    # ------------------------------------------------------------------
    def set_frequency_ratio(self, ratio: float) -> None:
        """Set the trailing/leading frequency ratio (0 < ratio <= 1).

        The change takes effect at the *next* trailing clock edge: the
        cycle already in progress completes under the old clock (a faster
        clock must not retroactively shorten work already scheduled).
        """
        if not 0.0 < ratio <= 1.0 + 1e-9:
            raise ValueError(f"frequency ratio must be in (0, 1], got {ratio}")
        if self._use[0] > 0:
            cycle, length, _ = self._carry.tolist()
            self._new_cycle(cycle + length)
        self._ratio = ratio
        self._carry[1] = 1.0 / ratio  # leading cycles per trailing cycle

    @property
    def frequency_ratio(self) -> float:
        """Current trailing/leading frequency ratio."""
        return self._ratio

    # ------------------------------------------------------------------
    def consume_op(
        self,
        pool: int,
        src1: int,
        src2: int,
        dst: int,
        latency: int,
        available_time: float,
    ) -> float:
        """Check one instruction whose RVQ entry arrives at
        ``available_time`` (leading cycles); returns the check-commit time.

        Takes the row's resolved integer fields (FU pool code, operands,
        execution latency).  This is the reference oracle of
        :meth:`consume_window`, and the RMT harness's path for the rows
        whose arrival crosses a DFS interval boundary.
        """
        rvp = self.config.uses_register_value_prediction
        cycle, length, last_done = self._carry.tolist()
        slots, *fu = self._use.tolist()
        earliest = available_time
        if not rvp:
            reg_ready = self._reg_ready
            known = len(reg_ready)
            if 0 <= src1 < known:
                t = float(reg_ready[src1])
                if t > earliest:
                    earliest = t
            if 0 <= src2 < known:
                t = float(reg_ready[src2])
                if t > earliest:
                    earliest = t

        if earliest >= cycle + length:
            # The trailer idles until the entry arrives; start a new cycle.
            cycle = earliest
            slots = 0
            fu = [0] * _NUM_POOLS
        while (
            slots >= self.config.issue_width
            or fu[pool] >= _FU_CAP_BY_POOL[pool]
        ):
            cycle += length
            slots = 0
            fu = [0] * _NUM_POOLS
        slots += 1
        fu[pool] += 1

        done = cycle + length
        # Check-commit times are monotone by construction; guard against
        # any residual clock-domain boundary effect.
        if done < last_done:
            done = last_done
        self._carry[0] = cycle
        self._carry[2] = done
        self._use[:] = (slots, *fu)
        if dst >= 0 and not rvp:
            self._write_reg_ready(dst, done + (latency - 1) * length)
        self._consumed += 1
        return done

    def _write_reg_ready(self, dst: int, ready: float) -> None:
        self._grow_regs(dst + 1)
        self._reg_ready[dst] = ready

    def _grow_regs(self, count: int) -> None:
        """Track at least ``count`` registers (new ones are ready at 0)."""
        known = len(self._reg_ready)
        if count > known:
            self._reg_ready = np.concatenate(
                [self._reg_ready, np.zeros(count - known)]
            )

    # ------------------------------------------------------------------
    def consume_window(
        self,
        pool,
        src1,
        src2,
        dst,
        latency,
        available,
        transfer: float = 0,
        lo: int = 0,
        hi: int | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Consume rows ``[lo, hi)`` (default: all) of RVQ entries in one
        compiled pass.

        Bit-identical to calling :meth:`consume_op` once per row (the
        scalar path remains the oracle).  Every row shares the current
        frequency ratio — the RMT harness splits windows at DFS interval
        boundaries, where :meth:`set_frequency_ratio` may change the
        trailing clock.

        The columns are int64 arrays (FU pool code, operands, execution
        latency).  Row ``i`` arrives at ``available[i] + transfer`` in
        float64: ``available`` holds arrival times (float64) or the
        leading core's commit cycles (int64), and must be non-decreasing.
        The check-commit times go to ``out[lo:hi]`` (a new float64 array
        when ``out`` is None), which is returned.  The RMT harness passes
        the same whole-trace arrays on every call, so their addresses are
        bound once per run.
        """
        if hi is None:
            hi = len(available)
        if out is None:
            out = np.empty(len(available), dtype=np.float64)
        n = hi - lo
        if n <= 0:
            return out[lo:hi]
        scan = self._scan or self._make_scan()
        if scan is None:
            for i in range(lo, hi):
                out[i] = self.consume_op(
                    int(pool[i]), int(src1[i]), int(src2[i]), int(dst[i]),
                    int(latency[i]), float(available[i]) + transfer,
                )
        else:
            if (not self.config.uses_register_value_prediction
                    and dst is not self._regs_sized_for):
                # The scan writes every dst in place: track them all
                # first (an untouched register reads as ready at 0).
                self._grow_regs(int(np.max(dst)) + 1)
                self._regs_sized_for = dst
            scan.consume(
                pool, src1, src2, dst, latency, available, out,
                self._reg_ready, lo, hi, transfer,
            )
            self._consumed += n
        self.windows_consumed += 1
        self.window_rows_consumed += n
        return out[lo:hi]

    def _make_scan(self):
        """Bind this checker's state to the compiled scan (``None`` when
        the kernel is unavailable)."""
        from repro.core import _native

        lib = _native.load()
        if lib is None:
            return None
        self._scan = _native.CheckerScan(
            lib, self._carry, self._use, self.config.issue_width,
            self.config.uses_register_value_prediction, _FU_CAP_BY_POOL,
        )
        return self._scan

    def _new_cycle(self, start: float) -> None:
        self._carry[0] = start
        self._use[:] = 0

    # ------------------------------------------------------------------
    @property
    def consumed(self) -> int:
        """Number of instructions checked so far."""
        return self._consumed

    def peak_throughput_per_trailing_cycle(self, op_mix: dict[OpClass, float]) -> float:
        """Upper-bound instructions per trailing cycle for a given op mix.

        The binding constraint is either issue width or the most contended
        functional-unit pool.
        """
        width = float(self.config.issue_width)
        bound = width
        pool_demand: dict[int, float] = {}
        for op, frac in op_mix.items():
            pool = POOL_BY_CODE[OP_CODE[op]]
            pool_demand[pool] = pool_demand.get(pool, 0.0) + frac
        for pool, demand in pool_demand.items():
            if demand > 0:
                bound = min(bound, _FU_CAP_BY_POOL[pool] / demand)
        return min(width, bound)
