"""Property-based tests over the timing engines with generated traces."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import (
    CheckerCoreConfig,
    ChipModel,
    LeadingCoreConfig,
    NucaConfig,
)
from repro.core.leading import LeadingCoreTiming, build_trace_schedule
from repro.core.memory import MemoryHierarchy
from repro.core.rmt import RmtSimulator
from repro.isa.trace import TraceGenerator
from repro.workloads.profiles import spec2k_suite

_PROFILES = spec2k_suite()


def _core():
    config = LeadingCoreConfig()
    memory = MemoryHierarchy(config, NucaConfig(num_banks=6), ChipModel.TWO_D_A)
    return LeadingCoreTiming(config, memory)


@given(
    profile=st.sampled_from(_PROFILES),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=10, deadline=None)
def test_leading_commits_monotone_for_any_workload(profile, seed):
    core = _core()
    trace = TraceGenerator(profile, seed=seed).generate_arrays(3000)
    result = core.run(trace)
    commits = core.commits
    assert len(commits) == len(trace)
    assert all(b >= a for a, b in zip(commits, commits[1:]))
    assert 0.0 < result.ipc <= 4.0 + 1e-9


@given(
    profile=st.sampled_from(_PROFILES),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=8, deadline=None)
def test_rmt_invariants_for_any_workload(profile, seed):
    config = LeadingCoreConfig()
    memory = MemoryHierarchy(config, NucaConfig(num_banks=6), ChipModel.TWO_D_A)
    simulator = RmtSimulator(
        leading_config=config,
        checker_config=CheckerCoreConfig(),
        memory=memory,
    )
    trace = TraceGenerator(profile, seed=seed).generate_arrays(3000)
    result = simulator.run(trace)
    # Every instruction is checked, after its commit, in order.
    assert result.checker_instructions == len(trace)
    consumes = simulator._consume_times
    commits = simulator._commit_times
    assert all(b >= a for a, b in zip(consumes, consumes[1:]))
    assert all(c >= k for k, c in zip(commits, consumes))
    # Residency fractions are a distribution.
    total = sum(result.frequency_residency.values())
    assert abs(total - 1.0) < 1e-9 or total == 0.0


@given(gate=st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_commit_gate_is_respected(gate):
    from repro.isa.instruction import Instruction
    from repro.isa.opcodes import OpClass
    from repro.isa.soa import TraceArrays

    core = _core()
    trace = TraceArrays.from_instructions(
        [Instruction(0, OpClass.IALU, dst=1, src1=30, src2=30, pc=0)]
    )
    core.begin_kernel(build_trace_schedule(trace, core.config))
    # The row gates on entry 0 of a consume stream, consumed at ``gate``.
    core.gate_commits(
        np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int8),
        np.array([float(gate)]), np.zeros(4, dtype=np.int64),
    )
    assert core.advance_window(core.prepare_window(trace, 0, 1), 0, 1) == 1
    assert core.commits[0] >= gate
    # Nothing consumed yet: the scan stops before the gated row.
    fresh = _core()
    fresh.begin_kernel(build_trace_schedule(trace, fresh.config))
    fresh.gate_commits(
        np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int8),
        np.array([float(gate)]), np.zeros(4, dtype=np.int64),
    )
    assert fresh.advance_window(fresh.prepare_window(trace, 0, 1), 0, 0) == 0
    assert len(fresh.commits) == 0


# ---------------------------------------------------------------------
# consume_window vs the scalar oracle.  Windows of random op mixes under
# random frequency-ratio switches at window boundaries: the batched
# checker consume must reproduce consume_op's check-commit times exactly.

_ROW = st.tuples(
    st.integers(0, 3),                 # FU pool
    st.integers(-1, 70),               # src1 (out-of-range values too)
    st.integers(-1, 70),               # src2
    st.integers(-1, 62),               # dst (-1 = no writeback)
    st.integers(1, 12),                # execution latency
    st.floats(0.0, 6.0),               # arrival gap to the previous row
)


@given(
    rvp=st.booleans(),
    windows=st.lists(
        st.tuples(
            st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0]),  # ratio for the window
            st.lists(_ROW, min_size=0, max_size=60),
        ),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=60, deadline=None)
def test_consume_window_matches_scalar_oracle(rvp, windows):
    import numpy as np

    from repro.core.checker import InOrderCheckerTiming

    config = CheckerCoreConfig(uses_register_value_prediction=rvp)
    batched = InOrderCheckerTiming(config)
    scalar = InOrderCheckerTiming(config)
    clock = 0.0
    for ratio, rows in windows:
        # Both sides switch frequency at the same window boundary, like
        # the RMT harness does at DFS interval edges.
        batched.set_frequency_ratio(ratio)
        scalar.set_frequency_ratio(ratio)
        available = []
        for *_fields, gap in rows:
            clock += gap
            available.append(clock)
        columns = [
            np.array([row[i] for row in rows], dtype=np.int64)
            for i in range(5)
        ]
        got = batched.consume_window(
            *columns, np.array(available, dtype=np.float64)
        )
        expected = [
            scalar.consume_op(pool, s1, s2, dst, lat, avail)
            for (pool, s1, s2, dst, lat, _gap), avail in zip(rows, available)
        ]
        assert got.tolist() == expected
