"""Multiprogrammed shared-cache pressure (the Hsu et al. citation)."""

import pytest

from repro.common.config import ChipModel
from repro.experiments.shared_cache import shared_cache_pressure


@pytest.fixture(scope="module")
def results():
    return shared_cache_pressure(instructions_per_thread=15_000)


def test_thread_counts_present(results):
    for rows in results.values():
        assert [r.num_threads for r in rows] == [1, 2, 3, 4]


def test_miss_rate_grows_with_threads(results):
    """More co-runners -> more capacity pressure on the small cache."""
    small = results[ChipModel.TWO_D_A.value]
    assert small[-1].miss_rate > small[0].miss_rate


def test_big_cache_absorbs_pressure_better(results):
    """At full load the 15 MB cache misses less than the 6 MB one, and by
    a larger margin than single-threaded (the paper's multicore point)."""
    small = results[ChipModel.TWO_D_A.value]
    big = results[ChipModel.TWO_D_2A.value]
    assert big[-1].miss_rate < small[-1].miss_rate
    gap_loaded = small[-1].miss_rate - big[-1].miss_rate
    gap_single = small[0].miss_rate - big[0].miss_rate
    assert gap_loaded > gap_single


def test_access_counts_scale_with_threads(results):
    rows = results[ChipModel.TWO_D_A.value]
    assert rows[1].accesses > rows[0].accesses * 1.5


def test_pressure_matrix_is_pinned(results):
    """(threads, accesses, misses) per chip, recorded from the
    per-address preload that the run-based install replaced."""
    expected = {
        ChipModel.TWO_D_A.value: [
            (1, 4363, 0), (2, 9592, 2), (3, 16228, 737), (4, 21754, 1873),
        ],
        ChipModel.TWO_D_2A.value: [
            (1, 4363, 0), (2, 9592, 0), (3, 16228, 1), (4, 21754, 5),
        ],
    }
    assert {
        chip: [(r.num_threads, r.accesses, r.misses) for r in rows]
        for chip, rows in results.items()
    } == expected
