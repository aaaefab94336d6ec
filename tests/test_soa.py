"""The columnar trace pipeline: SoA round-trips, vectorized kernels vs
their per-instruction references, and end-to-end golden IPC values.

The contract under test is *bit-identity*: the structure-of-arrays fast
paths must reproduce the object paths' RNG draw order and float results
exactly, so every assertion here is ``==``, never ``approx``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import memo
from repro.common.config import ChipModel, NucaPolicy
from repro.experiments.perf import fig6_performance
from repro.experiments.runner import SimulationWindow, build_memory
from repro.isa.soa import TraceArrays
from repro.isa.trace import TraceGenerator
from repro.workloads.profiles import get_profile


@pytest.fixture(autouse=True)
def _fresh_cache():
    memo.clear_cache()
    yield
    memo.clear_cache()


# ---------------------------------------------------------------------
class TestRoundTrip:
    @given(
        name=st.sampled_from(["gzip", "mcf", "swim", "art"]),
        seed=st.integers(0, 2**16),
        n=st.integers(1, 160),
    )
    @settings(max_examples=20, deadline=None)
    def test_objects_and_arrays_are_interconvertible(self, name, seed, n):
        profile = get_profile(name)
        objects = TraceGenerator(profile, seed=seed).generate(n)
        arrays = TraceGenerator(profile, seed=seed).generate_arrays(n)
        assert TraceArrays.from_instructions(objects) == arrays
        assert arrays.to_instructions() == objects

    def test_slices_are_views_with_correct_sequence(self):
        arrays = TraceGenerator(get_profile("gzip"), seed=3).generate_arrays(64)
        window = arrays[10:20]
        assert len(window) == 10
        assert window.to_instructions() == arrays.to_instructions()[10:20]

    def test_concat_matches_single_generation(self):
        gen = TraceGenerator(get_profile("mcf"), seed=9)
        parts = [gen.generate_arrays(n) for n in (7, 50, 13)]
        whole = TraceGenerator(get_profile("mcf"), seed=9).generate_arrays(70)
        assert TraceArrays.concat(parts) == whole


class TestVectorizedGeneration:
    @pytest.mark.parametrize("name", ["gzip", "mcf", "swim", "art"])
    def test_chunks_match_reference_with_state_carry(self, name):
        # Sequential chunks of awkward sizes: the carried ring/pc/pointer
        # state must hand off exactly as the per-instruction loop's does.
        profile = get_profile(name)
        fast = TraceGenerator(profile, seed=7)
        reference = TraceGenerator(profile, seed=7)
        for size in (1, 3, 513, 1000, 5):
            chunk = fast._generate_chunk(size)
            expected = TraceArrays.from_instructions(
                reference._generate_chunk_reference(size)
            )
            assert chunk == expected

    def test_chunked_api_is_size_invariant(self):
        profile = get_profile("gzip")
        one_shot = TraceGenerator(profile, seed=1).generate_arrays(9000)
        gen = TraceGenerator(profile, seed=1)
        stitched = TraceArrays.concat(
            [gen.generate_arrays(4000), gen.generate_arrays(5000)]
        )
        assert stitched == one_shot


class TestPreloadFastPath:
    @pytest.mark.parametrize("chip", [ChipModel.TWO_D_A, ChipModel.TWO_D_2A])
    @pytest.mark.parametrize(
        "policy", [NucaPolicy.DISTRIBUTED_SETS, NucaPolicy.DISTRIBUTED_WAYS]
    )
    @pytest.mark.parametrize("name", ["eon", "gzip", "mcf"])
    def test_bulk_install_matches_reference_loop(self, name, policy, chip):
        profile = get_profile(name)
        fast = build_memory(chip, policy=policy)
        fast.preload_profile(profile)
        reference = build_memory(chip, policy=policy)
        reference._preload_profile_reference(profile)
        # Every level builds its rows on first touch: nothing is built
        # yet; build every row through the path the access methods take,
        # then compare.
        for level in ("l1d", "l1i", "l2"):
            cache, expected = getattr(fast, level), getattr(reference, level)
            assert not cache._owned.any()
            for s in range(cache.num_sets):
                cache._own(s)
                assert cache.row(s) == expected.row(s)


# ---------------------------------------------------------------------
# End-to-end anchors: exact IPC values recorded from the pre-columnar
# object pipeline (warmup=1000, measured=4000, seed=42).  A change in any
# float here means the fast path broke RNG draw order or timing.
_GOLDEN_FIG6 = {
    "gzip": {
        "2d-a": 1.7014036580178646,
        "2d-2a": 1.5754233950374164,
        "3d-2a": 1.6877637130801688,
        "3d-checker": 1.7014036580178646,
    },
    "swim": {
        "2d-a": 1.2570710245128849,
        "2d-2a": 1.124543154343548,
        "3d-2a": 1.2430080795525171,
        "3d-checker": 1.2570710245128849,
    },
    "mcf": {
        "2d-a": 0.4799616030717543,
        "2d-2a": 0.43043150758635534,
        "3d-2a": 0.47365304914150386,
        "3d-checker": 0.4797313504437515,
    },
}


class TestGoldenFig6:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fig6_is_exact_across_job_counts(self, jobs):
        window = SimulationWindow(warmup=1000, measured=4000)
        rows = fig6_performance(
            window=window,
            benchmarks=[get_profile(name) for name in _GOLDEN_FIG6],
            jobs=jobs,
        )
        assert {row.benchmark: row.ipc for row in rows} == _GOLDEN_FIG6
