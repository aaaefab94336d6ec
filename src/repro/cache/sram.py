"""Set-associative cache with true LRU replacement.

Used for the L1 instruction/data caches and as the building block of the
NUCA L2 banks.  The model tracks tags only (the simulator's memory values
are a deterministic function of the address, see
:func:`repro.isa.instruction.load_value_for_address`).

Tag state lives in NumPy arrays allocated with the cache, so the Python
access methods here and the compiled probe of
:meth:`repro.core.memory.MemoryHierarchy.access_window` read and write
the same rows.
"""

from __future__ import annotations

import numpy as np

from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from repro.common.stats import StatGroup

__all__ = ["SetAssociativeCache", "disjoint_runs", "warm_lines"]


def disjoint_runs(runs):
    """``runs`` as a tuple of non-empty ``(first_line, num_lines)`` pairs
    in their given order, or ``None`` when two of them share a line."""
    kept = tuple((int(first), int(count)) for first, count in runs if count > 0)
    ordered = sorted(kept)
    for (first, count), (following, _) in zip(ordered, ordered[1:]):
        if first + count > following:
            return None
    return kept


def warm_lines(runs, set_index: int, num_sets: int, ways: int):
    """One set's LRU row after installing ``runs`` into an empty cache.

    ``runs`` are disjoint ``(first_line, num_lines)`` ranges, installed
    in order and each in ascending line order, so every install misses.
    The lines of one run that map to ``set_index`` form an arithmetic
    progression with stride ``num_sets``; the set keeps its last
    ``ways`` installs, so the row takes O(ways) to build.  Returns that
    row (oldest first) and the number of lines the set received in all.
    """
    progressions = []
    received = 0
    for first, count in runs:
        offset = (set_index - first) % num_sets
        n = (count - offset + num_sets - 1) // num_sets
        progressions.append((first + offset, n))
        received += n
    evicted = received - ways
    row: list[int] = []
    for start, n in progressions:
        if evicted >= n:
            evicted -= n
            continue
        if evicted > 0:
            start += evicted * num_sets
            n -= evicted
            evicted = 0
        row.extend(range(start, start + n * num_sets, num_sets))
    return row, received


def flat_view(array: np.ndarray) -> memoryview:
    """A flat memoryview of ``array``: indexing it yields Python ints,
    which per-access code reads and writes far faster than NumPy
    scalars."""
    return memoryview(array.reshape(-1))


def lru_access(tags: memoryview, fill: memoryview, s: int, ways: int,
               line: int) -> bool:
    """True-LRU lookup-and-fill of ``line`` in set ``s`` of flat
    ``tags``/``fill`` views (rows of ``ways``, oldest first); returns
    whether it hit."""
    start = s * ways
    end = start + fill[s]
    try:
        i = start + tags[start:end].tolist().index(line)
    except ValueError:
        if end - start == ways:  # evict the LRU line
            tags[start:end - 1] = tags[start + 1:end]
            tags[end - 1] = line
        else:
            tags[end] = line
            fill[s] += 1
        return False
    if i != end - 1:  # move to MRU
        tags[i:end - 1] = tags[i + 1:end]
        tags[end - 1] = line
    return True


class SetAssociativeCache:
    """A tag-only set-associative cache with LRU replacement.

    ``access`` performs lookup-and-fill in one step (the common case for a
    simple latency model); ``probe``/``fill`` are exposed separately for
    callers that manage placement themselves (the NUCA controller).

    Set ``s``'s row is ``_tags[s, :_fill[s]]``, oldest (LRU) first.  A
    set whose ``_owned[s]`` is 0 has not been touched since
    :meth:`install`: its row is the warm row of the installed ``_runs``
    (:func:`warm_lines`), built into the arrays on first touch.
    """

    def __init__(self, geometry: CacheGeometry, name: str = "cache"):
        self.geometry = geometry
        self.name = name
        self._offset_bits = geometry.line_bytes.bit_length() - 1
        self._num_sets = geometry.num_sets
        self._ways = geometry.ways
        self._tags = np.zeros((self._num_sets, self._ways), dtype=np.int64)
        self._fill = np.zeros(self._num_sets, dtype=np.int64)
        self._owned = np.zeros(self._num_sets, dtype=np.uint8)
        self._runs = np.zeros((0, 2), dtype=np.int64)
        self._t = flat_view(self._tags)
        self._f = flat_view(self._fill)
        self._o = flat_view(self._owned)
        self.stats = StatGroup(name)
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")

    # -- address helpers ------------------------------------------------
    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self._num_sets

    def set_index(self, address: int) -> int:
        """The set an address maps to."""
        return (address >> self._offset_bits) % self._num_sets

    def tag(self, address: int) -> int:
        """The tag for an address (the full line address, simple and safe)."""
        return address >> self._offset_bits

    # -- operations ------------------------------------------------------
    def _touch(self, line: int) -> int:
        """``line``'s set, its row built first when it is untouched."""
        s = line % self._num_sets
        if not self._o[s]:
            self._own(s)
        return s

    def access(self, address: int) -> bool:
        """Look up the line; on a miss, fill it.  Returns hit/miss."""
        line = address >> self._offset_bits
        if lru_access(self._t, self._f, self._touch(line), self._ways, line):
            self._hits.value += 1
            return True
        self._misses.value += 1
        return False

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU state or filling."""
        return self.tag(address) in self.row(self.set_index(address))

    def fill(self, address: int) -> int | None:
        """Insert the line; return the evicted line address, if any."""
        line = self.tag(address)
        s = self._touch(line)
        start = s * self._ways
        end = start + self._f[s]
        tags = self._t
        if line in tags[start:end].tolist():
            return None
        if end - start < self._ways:
            tags[end] = line
            self._f[s] += 1
            return None
        victim = tags[start]
        tags[start:end - 1] = tags[start + 1:end]
        tags[end - 1] = line
        return victim << self._offset_bits

    def invalidate(self, address: int) -> bool:
        """Remove the line if present; return whether it was present."""
        line = self.tag(address)
        s = self._touch(line)
        start = s * self._ways
        end = start + self._f[s]
        tags = self._t
        try:
            i = start + tags[start:end].tolist().index(line)
        except ValueError:
            return False
        tags[i:end - 1] = tags[i + 1:end]
        self._f[s] -= 1
        return True

    def row(self, set_index: int) -> list[int]:
        """Set ``set_index``'s resident lines in LRU order (oldest first);
        an untouched set's warm row is computed, not built."""
        if not self._o[set_index]:
            return self._warm_row(set_index)[0]
        start = set_index * self._ways
        return self._t[start:start + self._f[set_index]].tolist()

    def _warm_row(self, set_index: int) -> tuple[list[int], int]:
        if not len(self._runs):
            return [], 0
        return warm_lines(
            self._runs.tolist(), set_index, self._num_sets, self._ways
        )

    def _own(self, set_index: int) -> None:
        """Build set ``set_index``'s warm row into the arrays (first
        touch)."""
        lines, _ = self._warm_row(set_index)
        self._tags[set_index, :len(lines)] = lines
        self._fill[set_index] = len(lines)
        self._owned[set_index] = 1

    @property
    def fresh(self) -> bool:
        """Whether no line is resident (nothing accessed or installed)."""
        return not len(self._runs) and not self._fill.any()

    def preload_plan(self, runs):
        """``runs`` validated for :meth:`install`, or ``None``.

        ``runs`` are ``(first_line, num_lines)`` ranges in install
        order; the plan is them with empty runs dropped.  ``None`` when
        two runs share a line (the lines would not all miss).
        """
        return disjoint_runs(runs)

    def install(self, runs) -> None:
        """Warm a :attr:`fresh` cache with :meth:`preload_plan`'s runs.

        Equivalent to :meth:`access` on every line of every run in
        order, then ``stats.reset()``.  Only the runs are stored; each
        set's row is built on first touch.
        """
        if runs is None:
            raise ConfigError("preload runs overlap")
        self._runs = np.array(runs, dtype=np.int64).reshape(-1, 2)
        self._owned[:] = 0

    # -- statistics --------------------------------------------------------
    def add_counts(self, hits: int, misses: int) -> None:
        """Add a batch of accesses' hits and misses (the compiled probe's
        counts) to the statistics."""
        self._hits.increment(hits)
        self._misses.increment(misses)

    @property
    def hits(self) -> int:
        """Number of hits so far."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """Number of misses so far."""
        return self._misses.value

    @property
    def accesses(self) -> int:
        """Total accesses so far."""
        return self._hits.value + self._misses.value

    @property
    def miss_rate(self) -> float:
        """Miss rate over all accesses (0.0 if never accessed)."""
        total = self.accesses
        return self._misses.value / total if total else 0.0

    def resident_lines(self) -> int:
        """Number of lines currently resident (for invariant checks)."""
        return sum(len(self.row(s)) for s in range(self._num_sets))
