"""The in-order checker timing model."""

import pytest

from repro.common.config import CheckerCoreConfig
from repro.core.checker import InOrderCheckerTiming
from repro.isa.opcodes import (
    EXECUTION_LATENCY_BY_CODE,
    OP_CODE,
    POOL_BY_CODE,
    OpClass,
)


def op(kind, dst, src1, src2):
    """``consume_op``'s leading fields for one ``kind`` instruction:
    FU pool, operands, and execution latency."""
    code = OP_CODE[kind]
    return POOL_BY_CODE[code], src1, src2, dst, EXECUTION_LATENCY_BY_CODE[code]


def alu(seq, dst=None, src=30):
    return op(OpClass.IALU, dst if dst is not None else seq % 28, src, 30)


class TestBandwidth:
    def test_full_speed_consumes_width_per_cycle(self):
        checker = InOrderCheckerTiming(CheckerCoreConfig(), frequency_ratio=1.0)
        times = [checker.consume_op(*alu(i), 0.0) for i in range(40)]
        # 4-wide: 40 instructions need 10 trailing cycles.
        assert times[-1] <= 11.0

    def test_half_speed_doubles_time(self):
        fast = InOrderCheckerTiming(CheckerCoreConfig(), frequency_ratio=1.0)
        slow = InOrderCheckerTiming(CheckerCoreConfig(), frequency_ratio=0.5)
        t_fast = [fast.consume_op(*alu(i), 0.0) for i in range(40)][-1]
        t_slow = [slow.consume_op(*alu(i), 0.0) for i in range(40)][-1]
        assert t_slow == pytest.approx(2 * t_fast, rel=0.2)

    def test_fp_units_limit_throughput(self):
        checker = InOrderCheckerTiming(CheckerCoreConfig(), frequency_ratio=1.0)
        fmuls = [op(OpClass.FMUL, 32 + i % 28, 62, 62) for i in range(20)]
        done = [checker.consume_op(*i, 0.0) for i in fmuls]
        assert done[-1] >= 20.0  # one FMUL unit -> one per trailing cycle


class TestAvailability:
    def test_waits_for_rvq_entry(self):
        checker = InOrderCheckerTiming(CheckerCoreConfig(), frequency_ratio=1.0)
        done = checker.consume_op(*alu(0), available_time=100.0)
        assert done >= 100.0

    def test_in_order_non_decreasing(self):
        checker = InOrderCheckerTiming(CheckerCoreConfig(), frequency_ratio=0.7)
        times = [checker.consume_op(*alu(i), float(i)) for i in range(200)]
        assert all(b >= a for a, b in zip(times, times[1:]))


class TestRvp:
    def test_rvp_removes_dependence_stalls(self):
        chained = []
        for i in range(200):
            src = (i - 1) % 28 if i else 30
            chained.append(op(OpClass.IMUL, i % 28, src, 30))

        with_rvp = InOrderCheckerTiming(
            CheckerCoreConfig(uses_register_value_prediction=True),
            frequency_ratio=1.0,
        )
        without = InOrderCheckerTiming(
            CheckerCoreConfig(uses_register_value_prediction=False),
            frequency_ratio=1.0,
        )
        t_rvp = [with_rvp.consume_op(*i, 0.0) for i in chained][-1]
        t_plain = [without.consume_op(*i, 0.0) for i in chained][-1]
        # IMUL latency 7: the chain serializes without RVP.
        assert t_plain > 3 * t_rvp


class TestFrequencyControl:
    def test_invalid_ratio_rejected(self):
        checker = InOrderCheckerTiming(CheckerCoreConfig())
        with pytest.raises(ValueError):
            checker.set_frequency_ratio(0.0)
        with pytest.raises(ValueError):
            checker.set_frequency_ratio(1.5)

    def test_ratio_change_takes_effect(self):
        checker = InOrderCheckerTiming(CheckerCoreConfig(), frequency_ratio=1.0)
        checker.set_frequency_ratio(0.25)
        assert checker.frequency_ratio == 0.25

    def test_consumed_counter(self):
        checker = InOrderCheckerTiming(CheckerCoreConfig())
        for i in range(7):
            checker.consume_op(*alu(i), 0.0)
        assert checker.consumed == 7


class TestPeakThroughput:
    def test_bound_respects_issue_width(self):
        checker = InOrderCheckerTiming(CheckerCoreConfig())
        mix = {OpClass.IALU: 1.0}
        assert checker.peak_throughput_per_trailing_cycle(mix) == pytest.approx(4.0)

    def test_bound_respects_fp_contention(self):
        checker = InOrderCheckerTiming(CheckerCoreConfig())
        mix = {OpClass.FALU: 0.5, OpClass.IALU: 0.5}
        # One FP ALU serving 50% of the stream caps throughput at 2.
        assert checker.peak_throughput_per_trailing_cycle(mix) == pytest.approx(2.0)
