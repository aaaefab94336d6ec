"""Set-associative cache with true LRU replacement.

Used for the L1 instruction/data caches and as the building block of the
NUCA L2 banks.  The model tracks tags only (the simulator's memory values
are a deterministic function of the address, see
:func:`repro.isa.instruction.load_value_for_address`).
"""

from __future__ import annotations

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


class SetAssociativeCache:
    """A tag-only set-associative cache with LRU replacement.

    ``access`` performs lookup-and-fill in one step (the common case for a
    simple latency model); ``probe``/``fill`` are exposed separately for
    callers that manage placement themselves (the NUCA controller).
    """

    def __init__(self, geometry: CacheGeometry, name: str = "cache"):
        self.geometry = geometry
        self.name = name
        self._offset_bits = geometry.line_bytes.bit_length() - 1
        self._num_sets = geometry.num_sets
        # Each set is a list of tags in LRU order (index 0 = LRU).
        self._sets: list[list[int]] = [[] for _ in range(self._num_sets)]
        self.stats = StatGroup(name)
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")

    # -- address helpers ------------------------------------------------
    def set_index(self, address: int) -> int:
        """The set an address maps to."""
        return (address >> self._offset_bits) % self._num_sets

    def tag(self, address: int) -> int:
        """The tag for an address (the full line address, simple and safe)."""
        return address >> self._offset_bits

    # -- operations ------------------------------------------------------
    def access(self, address: int) -> bool:
        """Look up the line; on a miss, fill it.  Returns hit/miss."""
        line = self.tag(address)
        ways = self._sets[self.set_index(address)]
        try:
            ways.remove(line)
        except ValueError:
            self._misses.increment()
            ways.append(line)
            if len(ways) > self.geometry.ways:
                del ways[0]
            return False
        ways.append(line)  # move to MRU
        self._hits.increment()
        return True

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU state or filling."""
        return self.tag(address) in self._sets[self.set_index(address)]

    def fill(self, address: int) -> int | None:
        """Insert the line; return the evicted line address, if any."""
        line = self.tag(address)
        ways = self._sets[self.set_index(address)]
        if line in ways:
            return None
        ways.append(line)
        if len(ways) > self.geometry.ways:
            victim = ways.pop(0)
            return victim << self._offset_bits
        return None

    @property
    def fresh(self) -> bool:
        """Whether no line is resident (nothing accessed or installed)."""
        return not any(self._sets)

    def preload_plan(self, runs):
        """The warm rows that installing ``runs`` leaves, or ``None``.

        ``runs`` are ``(first_line, num_lines)`` ranges installed in
        order; the result is every set's LRU row after :meth:`access`
        on each of their lines from an empty cache, built per set by
        :func:`warm_lines`.  ``None`` when two runs share a line (the
        lines would not all miss).
        """
        runs = disjoint_runs(runs)
        if runs is None:
            return None
        return [
            warm_lines(runs, s, self._num_sets, self.geometry.ways)[0]
            for s in range(self._num_sets)
        ]

    def install(self, rows) -> None:
        """Adopt :meth:`preload_plan`'s rows as the tag store.

        On a :attr:`fresh` cache this equals the per-address install
        followed by ``stats.reset()``.
        """
        if rows is None:
            raise ConfigError("preload runs overlap")
        self._sets = rows

    def invalidate(self, address: int) -> bool:
        """Remove the line if present; return whether it was present."""
        line = self.tag(address)
        ways = self._sets[self.set_index(address)]
        try:
            ways.remove(line)
            return True
        except ValueError:
            return False

    # -- statistics --------------------------------------------------------
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
        return sum(len(ways) for ways in self._sets)
