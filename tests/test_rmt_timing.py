"""The RMT co-simulation: slack, DFS, backpressure."""

import pytest

from repro.common.config import (
    CheckerCoreConfig,
    ChipModel,
    LeadingCoreConfig,
    NucaConfig,
    QueueConfig,
)
from repro.core.memory import MemoryHierarchy
from repro.core.rmt import RmtSimulator
from repro.isa.trace import TraceGenerator
from repro.workloads.profiles import get_profile


def simulate(benchmark="gzip", n=20_000, checker=None, peak_ratio=1.0, seed=3):
    profile = get_profile(benchmark)
    leading = LeadingCoreConfig()
    memory = MemoryHierarchy(leading, NucaConfig(num_banks=6), ChipModel.TWO_D_A)
    memory.preload_profile(profile)
    generator = TraceGenerator(profile, seed=seed)
    simulator = RmtSimulator(
        leading_config=leading,
        checker_config=checker or CheckerCoreConfig(),
        memory=memory,
        transfer_latency_cycles=1,
        checker_peak_ratio=peak_ratio,
    )
    return simulator, simulator.run(generator.generate_arrays(n))


@pytest.fixture(scope="module")
def gzip_run():
    return simulate()


class TestBasics:
    def test_checker_consumes_everything(self, gzip_run):
        _, result = gzip_run
        assert result.checker_instructions == 20_000

    def test_leading_ipc_reasonable(self, gzip_run):
        _, result = gzip_run
        assert 0.5 < result.leading.ipc < 4.0

    def test_residency_sums_to_one(self, gzip_run):
        _, result = gzip_run
        assert sum(result.frequency_residency.values()) == pytest.approx(1.0)

    def test_mean_frequency_below_peak(self, gzip_run):
        _, result = gzip_run
        assert 0.1 <= result.mean_frequency_fraction < 1.0

    def test_mean_checker_frequency_hz(self, gzip_run):
        _, result = gzip_run
        expected = result.mean_frequency_fraction * 2.0e9
        assert result.mean_checker_frequency_hz(2.0e9) == pytest.approx(expected)

    def test_checker_energy_ratio(self, gzip_run):
        _, result = gzip_run
        ratio = result.checker_energy_ratio()
        # DFS throttling saves real energy, bounded by the leakage floor.
        assert 0.25 <= ratio < 1.0
        assert ratio == pytest.approx(
            0.25 + 0.75 * result.mean_frequency_fraction
        )
        with pytest.raises(ValueError):
            result.checker_energy_ratio(leakage_fraction=2.0)


class TestSlackInvariant:
    def test_consumption_never_precedes_commit(self, gzip_run):
        simulator, _ = gzip_run
        for commit, consume in zip(
            simulator._commit_times, simulator._consume_times
        ):
            assert consume >= commit

    def test_queue_occupancy_bounded_by_capacity(self, gzip_run):
        """No more than rvq_entries instructions sit between the cores."""
        simulator, _ = gzip_run
        capacity = simulator.checker_config.queues.rvq_entries
        commits = simulator._commit_times
        consumes = simulator._consume_times
        for i in range(capacity, len(commits)):
            # Entry i needed a slot: the (i-capacity)-th must be consumed.
            assert commits[i] >= consumes[i - capacity] - 1e-9


class TestDfsBehaviour:
    def test_low_ilp_workload_runs_checker_slower(self):
        _, mcf = simulate("mcf")
        _, mesa = simulate("mesa")
        assert (
            mcf.mean_frequency_fraction < mesa.mean_frequency_fraction
        )

    def test_peak_cap_respected(self):
        _, result = simulate(peak_ratio=0.7)
        assert max(
            level for level, frac in result.frequency_residency.items() if frac > 0
        ) <= 0.7 + 1e-9

    def test_capped_checker_still_keeps_up(self):
        _, capped = simulate(peak_ratio=0.7)
        _, free = simulate(peak_ratio=1.0)
        loss = 1.0 - capped.leading.ipc / free.leading.ipc
        assert loss < 0.10  # Section 4: only a minor slowdown (~3%)


class TestBackpressure:
    def test_tiny_queues_raise_backpressure(self):
        small = CheckerCoreConfig(
            queues=QueueConfig(
                slack_target=16, rvq_entries=16, lvq_entries=8,
                boq_entries=8, stb_entries=8,
            )
        )
        _, throttled = simulate(checker=small)
        _, free = simulate()
        assert throttled.backpressure_commits > free.backpressure_commits

    def test_slow_capped_checker_stalls_the_leader(self):
        small = CheckerCoreConfig(
            queues=QueueConfig(
                slack_target=16, rvq_entries=16, lvq_entries=8,
                boq_entries=8, stb_entries=8,
            )
        )
        _, throttled = simulate(checker=small, peak_ratio=0.3)
        _, free = simulate()
        assert throttled.leading.ipc < free.leading.ipc * 0.95

    def test_backpressure_negligible_with_paper_sizes(self, gzip_run):
        _, result = gzip_run
        assert result.backpressure_commits / 20_000 < 0.2


class TestDeterminism:
    def test_same_seed_same_result(self):
        _, a = simulate(seed=9)
        _, b = simulate(seed=9)
        assert a.leading.ipc == b.leading.ipc
        assert a.frequency_residency == b.frequency_residency

