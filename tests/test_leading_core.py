"""The out-of-order leading core timing model."""

from collections import Counter

import numpy as np
import pytest

from repro.common.config import ChipModel, LeadingCoreConfig, NucaConfig
from repro.core.leading import LeadingCoreTiming, build_trace_schedule
from repro.core.memory import MemoryHierarchy
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.isa.soa import TraceArrays
from repro.isa.trace import TraceGenerator
from repro.workloads.profiles import get_profile


def make_core(config=None, chip=ChipModel.TWO_D_A):
    config = config or LeadingCoreConfig()
    memory = MemoryHierarchy(config, NucaConfig(num_banks=chip.l2_banks), chip)
    return LeadingCoreTiming(config, memory)


def independent_alu_ops(n, start=0):
    # Far register (30) sources: never a dependence.  All instructions
    # share one I-cache line so fetch never misses.
    return TraceArrays.from_instructions(
        Instruction(start + i, OpClass.IALU, dst=i % 28, src1=30, src2=30, pc=0)
        for i in range(n)
    )


def chained_alu_ops(n):
    instrs = []
    for i in range(n):
        src = (i - 1) % 28 if i else 30
        instrs.append(
            Instruction(i, OpClass.IALU, dst=i % 28, src1=src, src2=30, pc=0)
        )
    return TraceArrays.from_instructions(instrs)


def generate(profile, n):
    return TraceGenerator(profile, seed=3).generate_arrays(n)


def gated_commits(trace, gate):
    """Kernel commits of ``trace``, every row's commit gated at ``gate``:
    each row's gating entry is entry 0, consumed at cycle ``gate``."""
    n = len(trace)
    core = make_core()
    core.begin_kernel(build_trace_schedule(trace, core.config))
    core.gate_commits(
        np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int8),
        np.array([float(gate)]), np.zeros(4, dtype=np.int64),
    )
    assert core.advance_window(core.prepare_window(trace, 0, n), 0, 1) == n
    core.end_kernel()
    return core.commits


class TestThroughputBounds:
    def test_independent_ops_reach_high_ipc(self):
        core = make_core()
        result = core.run(independent_alu_ops(4000))
        assert result.ipc > 3.0

    def test_ipc_never_exceeds_width(self):
        core = make_core()
        result = core.run(independent_alu_ops(4000))
        assert result.ipc <= 4.0 + 1e-9

    def test_dependence_chain_serializes(self):
        core = make_core()
        result = core.run(chained_alu_ops(4000))
        assert result.ipc == pytest.approx(1.0, abs=0.1)

    def test_fp_units_bound_fp_throughput(self):
        # Only one FP ALU: dense FALU streams run at ~1 per cycle.
        core = make_core()
        instrs = TraceArrays.from_instructions(
            Instruction(i, OpClass.FALU, dst=32 + i % 28, src1=62, src2=62, pc=0)
            for i in range(3000)
        )
        result = core.run(instrs)
        assert result.ipc == pytest.approx(1.0, abs=0.15)


class TestMemoryBehaviour:
    def test_l2_miss_stalls_more_than_hit(self):
        profile = get_profile("mcf")
        config = LeadingCoreConfig()

        def run(preload):
            memory = MemoryHierarchy(config, NucaConfig(num_banks=6), ChipModel.TWO_D_A)
            if preload:
                memory.preload_profile(profile)
            core = LeadingCoreTiming(config, memory)
            return core.run(generate(profile, 15_000))

        assert run(preload=True).ipc > run(preload=False).ipc

    def test_memory_latency_config_matters(self):
        profile = get_profile("mcf")
        slow = LeadingCoreConfig(memory_latency_cycles=600)
        fast = LeadingCoreConfig(memory_latency_cycles=100)

        def run(cfg):
            memory = MemoryHierarchy(cfg, NucaConfig(num_banks=6), ChipModel.TWO_D_A)
            memory.preload_profile(profile)
            return LeadingCoreTiming(cfg, memory).run(
                generate(profile, 15_000)
            )

        assert run(fast).ipc > run(slow).ipc


class TestBranchCosts:
    def test_mispredicts_cost_cycles(self):
        def run(hard_fraction):
            import dataclasses
            profile = dataclasses.replace(
                get_profile("gzip"), hard_branch_fraction=hard_fraction
            )
            config = LeadingCoreConfig()
            memory = MemoryHierarchy(config, NucaConfig(num_banks=6), ChipModel.TWO_D_A)
            memory.preload_profile(profile)
            return LeadingCoreTiming(config, memory).run(
                generate(profile, 15_000)
            )

        assert run(0.0).ipc > run(0.3).ipc


class TestCommitGate:
    def test_gate_delays_commit(self):
        core = make_core()
        core.run(independent_alu_ops(100))
        ungated = core.commits
        gated = gated_commits(independent_alu_ops(100), gate=500)
        assert gated[0] >= 500
        assert ungated[0] < 500

    def test_commits_are_monotonic(self):
        core = make_core()
        core.run(independent_alu_ops(500))
        commits = core.commits
        assert len(commits) == 500
        assert all(b >= a for a, b in zip(commits, commits[1:]))

    def test_commit_width_limit(self):
        core = make_core()
        core.run(independent_alu_ops(400))
        per_cycle = Counter(core.commits)
        assert max(per_cycle.values()) <= 4


class TestMeasurementWindow:
    def test_warmup_excluded_from_stats(self):
        profile = get_profile("gzip")
        trace = generate(profile, 20_000)
        config = LeadingCoreConfig()
        memory = MemoryHierarchy(config, NucaConfig(num_banks=6), ChipModel.TWO_D_A)
        core = LeadingCoreTiming(config, memory)
        result = core.run(trace, warmup=10_000)
        assert result.instructions == 10_000
        # Warm measurement should beat a cold full-trace run's IPC.
        memory2 = MemoryHierarchy(config, NucaConfig(num_banks=6), ChipModel.TWO_D_A)
        cold = LeadingCoreTiming(config, memory2).run(
            generate(profile, 20_000)
        )
        assert result.ipc > cold.ipc

    def test_op_counts_accumulate(self):
        core = make_core()
        core.run(independent_alu_ops(100))
        result = core.result(100)
        assert result.op_counts["ialu"] == 100

