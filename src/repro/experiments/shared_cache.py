"""Shared-cache pressure: why the extra 3D capacity matters for multicore.

Section 3.3 notes the SPEC working sets barely exercise 15 MB, but "the
extra cache space may be more valuable if it is shared by multiple
threads in a large multi-core chip [13]" (Hsu et al.).  This experiment
interleaves the memory streams of several co-running workloads into one
NUCA L2 and measures miss rates at 6 MB vs 15 MB — the multiprogrammed
pressure a single SPEC benchmark cannot create.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.nuca import NucaCache, bank_hops_for_model
from repro.common.config import ChipModel, NucaConfig
from repro.core.memory import resident_runs
from repro.experiments import engine
from repro.isa.opcodes import OP_LOAD, OP_STORE
from repro.isa.trace import TraceGenerator
from repro.workloads.profiles import WorkloadProfile, get_profile

__all__ = ["SharedCacheResult", "shared_cache_pressure"]

# Address-space offset between co-running threads (they do not share data).
_THREAD_STRIDE = 1 << 36


@dataclass
class SharedCacheResult:
    """Miss statistics of a multiprogrammed mix on one L2 capacity."""

    chip: str
    num_threads: int
    accesses: int
    misses: int

    @property
    def miss_rate(self) -> float:
        """L2 miss rate over all threads' accesses."""
        return self.misses / self.accesses if self.accesses else 0.0


def _memory_stream(profile: WorkloadProfile, count: int, seed: int, thread: int):
    generator = TraceGenerator(profile, seed=seed + thread)
    arrays = generator.generate_arrays(count)
    ops = arrays.op
    memory_rows = (ops == OP_LOAD) | (ops == OP_STORE)
    base = thread * _THREAD_STRIDE
    for address in arrays.address[memory_rows].tolist():
        yield address + base


def _pressure_point(
    task: tuple[ChipModel, int, tuple[str, ...], int, int],
) -> SharedCacheResult:
    """One (chip, thread-count) cell of the pressure matrix."""
    chip, num_threads, benchmarks, instructions_per_thread, seed = task
    cache = NucaCache(
        NucaConfig(num_banks=chip.l2_banks),
        bank_hops=bank_hops_for_model(chip),
    )
    profiles = [
        get_profile(benchmarks[t % len(benchmarks)])
        for t in range(num_threads)
    ]
    # Every thread's resident regions, coldest first as in the
    # single-core preload, so the measurement sees steady state.
    line = cache.config.line_bytes
    runs = [
        (first + t * (_THREAD_STRIDE // line), count)
        for t, profile in enumerate(profiles)
        for first, count in resident_runs(profile, line)
    ]
    cache.install(cache.preload_plan(runs))
    streams = [
        _memory_stream(profile, instructions_per_thread, seed, t)
        for t, profile in enumerate(profiles)
    ]
    accesses = 0
    # Round-robin interleave the threads' memory accesses.
    active = list(streams)
    while active:
        still = []
        for stream in active:
            address = next(stream, None)
            if address is None:
                continue
            cache.access(address)
            accesses += 1
            still.append(stream)
        active = still
    return SharedCacheResult(
        chip=chip.value,
        num_threads=num_threads,
        accesses=accesses,
        misses=cache.misses,
    )


def shared_cache_pressure(
    benchmarks: tuple[str, ...] = ("gzip", "bzip2", "vortex", "gap"),
    instructions_per_thread: int = 40_000,
    seed: int = 42,
    chips: tuple[ChipModel, ...] = (ChipModel.TWO_D_A, ChipModel.TWO_D_2A),
    jobs: int | None = None,
) -> dict[str, list[SharedCacheResult]]:
    """Miss rates of 1..N co-running threads on each L2 capacity.

    Returns, per chip model, a list of results for thread counts 1..N
    (thread i runs ``benchmarks[i % len]``).  The default mix's resident
    working sets sum to ~12 MB at four threads: comfortably inside 15 MB,
    well past 6 MB.  The expected shape: with one
    thread the capacities are equivalent; as threads pile in, the 6 MB
    cache's miss rate rises much faster than the 15 MB one's — the Hsu et
    al. effect the paper cites.
    """
    thread_counts = range(1, len(benchmarks) + 1)
    tasks = [
        (chip, num_threads, tuple(benchmarks), instructions_per_thread, seed)
        for chip in chips
        for num_threads in thread_counts
    ]
    results = engine.parallel_map(
        _pressure_point, tasks, jobs=jobs, chunksize=1,
        label="shared_cache_pressure",
    )
    out: dict[str, list[SharedCacheResult]] = {}
    for (chip, _n, *_rest), row in zip(tasks, results):
        out.setdefault(chip.value, []).append(row)
    return out
