"""Timing model of the in-order trailing checker core.

With register value prediction (RVP) the checker's instructions never stall
on data dependences: operands arrive with the RVQ entry, so throughput is
bounded only by fetch/issue bandwidth and functional units (Section 2.1).
Without RVP the model honours in-order dependence stalls, which is what
makes the paper's case for RVP measurable.

The checker runs at a frequency that is a fraction of the leading core's;
all times exchanged with the RMT harness are expressed in *leading-core
cycles* so the two clock domains compose (GALS-style, Section 2.1).
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


class InOrderCheckerTiming:
    """Incremental in-order consumption model for the trailing core."""

    def __init__(self, config: CheckerCoreConfig, frequency_ratio: float = 1.0):
        self.config = config
        self.set_frequency_ratio(frequency_ratio)
        self._cycle_start = 0.0   # leading-cycle time of the current trailing cycle
        self._slots_used = 0
        self._fu_used: dict[int, int] = {}  # pool code -> slots this cycle
        # Register-ready times indexed by architectural register (grown on
        # demand); a flat list so the non-RVP window loop does no dict
        # lookups in its hot path.
        self._reg_ready: list[float] = [0.0] * 64
        self._consumed = 0
        self._last_done = 0.0
        # Windowed-consume accounting (published by the RMT harness).
        self.windows_consumed = 0
        self.window_rows_consumed = 0

    # ------------------------------------------------------------------
    def set_frequency_ratio(self, ratio: float) -> None:
        """Set the trailing/leading frequency ratio (0 < ratio <= 1).

        The change takes effect at the *next* trailing clock edge: the
        cycle already in progress completes under the old clock (a faster
        clock must not retroactively shorten work already scheduled).
        """
        if not 0.0 < ratio <= 1.0 + 1e-9:
            raise ValueError(f"frequency ratio must be in (0, 1], got {ratio}")
        if getattr(self, "_slots_used", 0) > 0:
            self._new_cycle(self._cycle_start + self._cycle_len)
        self._ratio = ratio
        self._cycle_len = 1.0 / ratio  # leading cycles per trailing cycle

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
        earliest = available_time
        if not self.config.uses_register_value_prediction:
            reg_ready = self._reg_ready
            known = len(reg_ready)
            if 0 <= src1 < known:
                t = reg_ready[src1]
                if t > earliest:
                    earliest = t
            if 0 <= src2 < known:
                t = reg_ready[src2]
                if t > earliest:
                    earliest = t

        if earliest >= self._cycle_start + self._cycle_len:
            # The trailer idles until the entry arrives; start a new cycle.
            self._new_cycle(earliest)
        while (
            self._slots_used >= self.config.issue_width
            or self._fu_used.get(pool, 0) >= _FU_CAP_BY_POOL[pool]
        ):
            self._new_cycle(self._cycle_start + self._cycle_len)
        self._slots_used += 1
        self._fu_used[pool] = self._fu_used.get(pool, 0) + 1

        done = self._cycle_start + self._cycle_len
        # Check-commit times are monotone by construction; guard against
        # any residual clock-domain boundary effect.
        if done < self._last_done:
            done = self._last_done
        self._last_done = done
        if dst >= 0 and not self.config.uses_register_value_prediction:
            self._write_reg_ready(dst, done + (latency - 1) * self._cycle_len)
        self._consumed += 1
        return done

    def _write_reg_ready(self, dst: int, ready: float) -> None:
        reg_ready = self._reg_ready
        if dst >= len(reg_ready):
            reg_ready.extend([0.0] * (dst + 1 - len(reg_ready)))
        reg_ready[dst] = ready

    # ------------------------------------------------------------------
    def consume_window(
        self,
        pool,
        src1,
        src2,
        dst,
        latency,
        available,
    ) -> np.ndarray:
        """Consume a whole run of RVQ entries in one pass.

        Bit-identical to calling :meth:`consume_op` once per row (the
        scalar path remains the oracle).  Every row of the window shares
        the current frequency ratio — the RMT harness splits windows at
        DFS interval boundaries, where :meth:`set_frequency_ratio` may
        change the trailing clock.

        ``available`` must be non-decreasing (check-commit arrival order),
        which holds because leading-core commit times are monotone.  With
        RVP there are no dependence stalls, so the check-commit times are
        a slot/FU-counting scan over the arrival times: idle runs — rows
        whose arrival gap exceeds one trailing cycle — are resolved by a
        single vectorized pass, and only densely packed stretches fall
        back to a tight integer loop.  Without RVP the dependence wakeups
        serialize the scan, which runs as one tight loop over precomputed
        integer columns (no dict lookups, no per-row attribute chasing).

        Returns the per-row check-commit times as a float64 array.
        """
        n = len(available)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        if self.config.uses_register_value_prediction:
            out = self._consume_window_rvp(pool, available)
        else:
            out = self._consume_window_dep(
                pool, src1, src2, dst, latency, available
            )
        self._consumed += n
        self.windows_consumed += 1
        self.window_rows_consumed += n
        return out

    def _consume_window_rvp(self, pool, available) -> np.ndarray:
        """The RVP slot/FU-counting scan (no dependence stalls).

        Rows split into *idle runs* and *packed stretches*.  A row whose
        arrival lands at or beyond the end of the current trailing cycle
        opens a fresh cycle at its own arrival ("jump"); consecutive jumps
        (arrival gap >= one trailing cycle) form an idle run whose
        check-commit times are simply ``arrival + cycle_len`` — assigned
        as one vector slice.  Rows that land inside the current cycle pack
        greedily under the issue-width/FU caps in a tight local loop.
        """
        a = np.asarray(available, dtype=np.float64)
        n = len(a)
        length = self._cycle_len
        width = self.config.issue_width
        caps = _FU_CAP_BY_POOL
        cycle = self._cycle_start
        slots = self._slots_used
        fu = [self._fu_used.get(p, 0) for p in range(_NUM_POOLS)]

        # chain[j-1]: had row j-1 opened a cycle at its own arrival, row j
        # would too.  Idle runs extend while the chain holds.
        chain_break = np.flatnonzero(a[1:] < a[:-1] + length)
        out = np.empty(n, dtype=np.float64)
        pool_list = None
        a_list = None
        i = 0
        while i < n:
            if a[i] >= cycle + length:
                # Idle run [i..end]: each row opens its own cycle.
                k = np.searchsorted(chain_break, i, side="left")
                end = int(chain_break[k]) if k < len(chain_break) else n - 1
                np.add(a[i:end + 1], length, out=out[i:end + 1])
                cycle = float(a[end])
                slots = 1
                fu = [0] * _NUM_POOLS
                fu[int(pool[end])] = 1
                i = end + 1
            else:
                # Packed stretch: tight loop until a row jumps again.
                if a_list is None:
                    a_list = a.tolist()
                    pool_list = (
                        pool.tolist() if hasattr(pool, "tolist") else list(pool)
                    )
                while i < n:
                    arrival = a_list[i]
                    if arrival >= cycle + length:
                        break
                    p = pool_list[i]
                    if slots >= width or fu[p] >= caps[p]:
                        cycle += length
                        slots = 0
                        fu = [0] * _NUM_POOLS
                    slots += 1
                    fu[p] += 1
                    out[i] = cycle + length
                    i += 1

        # ``cycle`` never decreases within a window, so the check-commit
        # times are non-decreasing and the scalar path's per-row
        # ``last_done`` guard reduces to one elementwise max against the
        # carried value.
        np.maximum(out, self._last_done, out=out)
        self._last_done = float(out[-1])
        self._cycle_start = cycle
        self._slots_used = slots
        self._fu_used = {p: c for p, c in enumerate(fu) if c}
        return out

    def _consume_window_dep(
        self, pool, src1, src2, dst, latency, available
    ) -> np.ndarray:
        """The non-RVP scan: in-order dependence stalls serialize rows,
        so this is one tight loop over plain integer/float columns."""
        a_list = np.asarray(available, dtype=np.float64).tolist()
        as_list = (
            lambda c: c.tolist() if hasattr(c, "tolist") else list(c)
        )
        pool_list = as_list(pool)
        src1_list = as_list(src1)
        src2_list = as_list(src2)
        dst_list = as_list(dst)
        latency_list = as_list(latency)

        length = self._cycle_len
        width = self.config.issue_width
        caps = _FU_CAP_BY_POOL
        cycle = self._cycle_start
        slots = self._slots_used
        fu = [self._fu_used.get(p, 0) for p in range(_NUM_POOLS)]
        last_done = self._last_done
        reg_ready = self._reg_ready
        known = len(reg_ready)
        max_dst = max(dst_list)
        if max_dst >= known:
            reg_ready.extend([0.0] * (max_dst + 1 - known))
            known = len(reg_ready)

        out = []
        append = out.append
        for i, earliest in enumerate(a_list):
            r = src1_list[i]
            if 0 <= r < known:
                t = reg_ready[r]
                if t > earliest:
                    earliest = t
            r = src2_list[i]
            if 0 <= r < known:
                t = reg_ready[r]
                if t > earliest:
                    earliest = t
            if earliest >= cycle + length:
                cycle = earliest
                slots = 0
                fu = [0] * _NUM_POOLS
            p = pool_list[i]
            if slots >= width or fu[p] >= caps[p]:
                cycle += length
                slots = 0
                fu = [0] * _NUM_POOLS
            slots += 1
            fu[p] += 1
            done = cycle + length
            if done < last_done:
                done = last_done
            last_done = done
            r = dst_list[i]
            if r >= 0:
                reg_ready[r] = done + (latency_list[i] - 1) * length
            append(done)

        self._last_done = last_done
        self._cycle_start = cycle
        self._slots_used = slots
        self._fu_used = {p: c for p, c in enumerate(fu) if c}
        return np.array(out, dtype=np.float64)

    def _new_cycle(self, start: float) -> None:
        self._cycle_start = start
        self._slots_used = 0
        self._fu_used = {}

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
