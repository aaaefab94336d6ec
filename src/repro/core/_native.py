"""Build, load and drive the compiled timing kernels (``_kernel.c``).

Imported on the first kernel use, never by ``import repro``.  :func:`load`
compiles ``_kernel.c`` once per source version with the C compiler CPython
was built with (``sysconfig``'s ``CC``), into the per-user cache directory
(``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``), and loads it with
:mod:`ctypes`.  The library is named by a hash of the source, compiler and
flags, so a stale build is never loaded; it is compiled into a temporary
file and renamed into place, so processes that build at once all end
with a valid library.  When it cannot be built or loaded, :func:`load`
logs one warning per process and returns ``None``, and the timing layers
and the memory hierarchy run their Python oracles instead.

Each routine reads one int64 descriptor that Python owns: the addresses
of the columns and tables it reads and writes, the geometry and the
scalar carries.  A run binds its arrays once (:class:`LeadingScan`,
:class:`CheckerScan`, and :class:`MemoryProbe` for a hierarchy's tag
arrays, :class:`BranchUpdate` for a predictor's tables); a call passes
only the descriptor and row bounds (the probe and the predictor: their
event columns), so a call costs about as much as an empty ``ctypes``
call.  :func:`trace_schedule` binds a trace and its outputs for one
call.  The descriptor holds raw addresses, so every array is validated
(dtype, C order, length, and the codes the routine indexes by) before
its address is stored, and the bound object keeps each array referenced.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from repro.common.config import NucaPolicy
from repro.common.errors import SimulationError
from repro.isa.opcodes import OP_BY_CODE, OP_FALU, OP_FMUL, OP_LOAD, OP_STORE
from repro.obs.log import get_logger

__all__ = [
    "BranchUpdate", "CheckerScan", "LeadingScan", "MemoryProbe", "compiler",
    "load", "trace_schedule",
]

_SOURCE = Path(__file__).with_name("_kernel.c")
# Plain IEEE double arithmetic: the checker scan must round exactly like
# the Python oracle's floats, so no -ffast-math and no FMA contraction.
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

# Descriptor slots, in the order of the enums in _kernel.c.
(
    L_CG, L_IG, L_W1, L_W2,
    L_POOL, L_LATENCY, L_FETCH_ADD, L_MISPREDICTED, L_WINDOW_START,
    L_COMMITS, L_ISSUES, L_COMPLETES,
    L_ISSUE_RING, L_FU_RING, L_RING_SIZE, L_TAIL,
    L_NEEDED, L_BINDING, L_CONSUME, L_STALLS,
    L_NEXT, L_FETCH, L_GROUP, L_REDIRECT, L_LAST_COMMIT, L_COMMITS_IN_CYCLE,
    L_ROB, L_WIDTH, L_COMMIT_WIDTH, L_FETCH_WIDTH, L_PENALTY,
    L_CAP0, L_CAP1, L_CAP2, L_CAP3,
    L_SLOTS,
) = range(36)
(
    C_POOL, C_SRC1, C_SRC2, C_DST, C_LATENCY,
    C_ARRIVAL_F64, C_ARRIVAL_I64,
    C_OUT, C_REG_READY, C_NUM_REGS,
    C_CARRY, C_USE,
    C_WIDTH, C_RVP,
    C_CAP0, C_CAP1, C_CAP2, C_CAP3,
    C_SLOTS,
) = range(19)
# memory_probe: one block of cache slots per cache, then the L2's.
(
    K_TAGS, K_FILL, K_OWNED, K_RUNS, K_NUM_RUNS, K_SETS, K_WAYS, K_SHIFT,
    K_SLOTS,
) = range(9)
M_L1I, M_L1D, M_L2 = 0, K_SLOTS, 2 * K_SLOTS
(
    M_L2_SLOTS, M_DISTRIBUTED_WAYS, M_SLOT_BANKS,
    M_BANK_CYCLES, M_NUM_BANKS, M_MEMORY_CYCLES,
    M_RECENT, M_WINDOW, M_BANK_ACCESS_CYCLES,
    M_I_HIT, M_D_HIT, M_I_SPACE, M_COUNTS,
    M_SLOTS,
) = range(3 * K_SLOTS, 3 * K_SLOTS + 14)
# memory_probe counts: L1I hits/misses, L1D hits/misses, L2 hits, misses,
# conflicts and hit latency total/min/max, then one per bank.
N_BANKS = 10
(
    B_BIMODAL, B_PHT, B_CHOOSER,
    B_BTB_TAGS, B_BTB_TARGETS, B_BTB_FILL,
    B_BIMODAL_ENTRIES, B_PHT_ENTRIES, B_HISTORY_MASK,
    B_BTB_SETS, B_BTB_WAYS,
    B_HISTORY,
    B_SLOTS,
) = range(13)
(
    T_OP, T_DST, T_SRC1, T_SRC2,
    T_CG, T_IG, T_W1, T_W2,
    T_OP_CLASS, T_WRITERS,
    T_MEM_RING, T_INT_RING, T_FP_RING,
    T_ROB, T_LSQ, T_INT_IQ, T_FP_IQ,
    T_SLOTS,
) = range(18)
_EVENT_KINDS = 3
# trace_schedule's op classes (bits), per op code.
_CLASS_MEMORY, _CLASS_FP = 1, 2
_OP_CLASS = np.zeros(len(OP_BY_CODE), dtype=np.int8)
_OP_CLASS[[OP_LOAD, OP_STORE]] = _CLASS_MEMORY
_OP_CLASS[[OP_FALU, OP_FMUL]] = _CLASS_FP
# Installed runs' lines stay far from int64 overflow in the probe's
# arithmetic.
_LINE_LIMIT = 1 << 60
# The global history shifts left once per branch inside an int64.
_HISTORY_BITS_LIMIT = 62

# leading_scan results below zero.
_RING_FULL = -1
_BELOW_TAIL = -2

#: Initial usage-ring span in cycles (a power of two); doubled on demand.
RING_CYCLES = 4096

_NUM_POOLS = 4
_lib: ctypes.CDLL | None = None
_failed = False


def compiler() -> list[str]:
    """The C compiler command CPython was built with (empty if none)."""
    return shlex.split(sysconfig.get_config_var("CC") or "")


def _library_path(cc: list[str]) -> Path:
    """The per-user cache path of the library built from this source."""
    digest = hashlib.sha256(_SOURCE.read_bytes())
    for part in (*cc, *_FLAGS, sysconfig.get_platform()):
        digest.update(b"\0" + part.encode())
    suffix = sysconfig.get_config_var("SHLIB_SUFFIX") or ".so"
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(cache) / "repro" / f"kernel-{digest.hexdigest()[:16]}{suffix}"


def _build() -> ctypes.CDLL:
    cc = compiler()
    if not cc:
        raise OSError("this Python was built without a C compiler (CC)")
    path = _library_path(cc)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        os.close(fd)
        try:
            subprocess.run(
                [*cc, *_FLAGS, "-o", tmp, str(_SOURCE)],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(path))
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    layout = ("leading_slots", "checker_slots", "memory_slots",
              "memory_counts", "branch_slots", "schedule_slots")
    for name in layout:
        getattr(lib, name).argtypes = []
        getattr(lib, name).restype = i64
    lib.leading_scan.argtypes = [ptr, i64, i64]
    lib.leading_scan.restype = i64
    lib.checker_consume.argtypes = [ptr, i64, i64, ctypes.c_double]
    lib.checker_consume.restype = None
    lib.memory_probe.argtypes = [ptr, ptr, ptr, ptr, i64]
    lib.memory_probe.restype = None
    lib.branch_update.argtypes = [ptr, ptr, ptr, ptr, ptr, i64]
    lib.branch_update.restype = i64
    lib.trace_schedule.argtypes = [ptr, i64]
    lib.trace_schedule.restype = None
    if tuple(getattr(lib, name)() for name in layout) != (
        L_SLOTS, C_SLOTS, M_SLOTS, N_BANKS, B_SLOTS, T_SLOTS
    ):
        raise OSError(f"{path} does not match this module's descriptors")
    return lib


def load() -> ctypes.CDLL | None:
    """The kernel library, built on first use; ``None`` when it cannot be
    built or loaded (warned once per process)."""
    global _lib, _failed
    if _lib is None and not _failed:
        try:
            _lib = _build()
        except (OSError, subprocess.SubprocessError) as exc:
            _failed = True
            get_logger("core").warning(
                "compiled timing kernel unavailable (%s); running the "
                "Python per-row oracles", exc,
            )
    return _lib


def _address(array: np.ndarray, dtype, rows: int) -> int:
    """``array``'s data address, once it is a C-ordered ``dtype`` array of
    at least ``rows`` entries."""
    if (
        not isinstance(array, np.ndarray)
        or array.dtype != dtype
        or not array.flags.c_contiguous
        or len(array) < rows
    ):
        raise SimulationError(
            f"kernel column must be a C-ordered {np.dtype(dtype)} array of "
            f">= {rows} rows, got {getattr(array, 'dtype', type(array))} "
            f"of {len(array)}"
        )
    return array.ctypes.data


def _check_codes(array: np.ndarray, limit: int, what: str) -> None:
    """Reject codes outside ``[0, limit)``: the scans index by them."""
    if array.size and (array.min() < 0 or array.max() >= limit):
        raise SimulationError(f"{what} codes must lie in [0, {limit})")


def _table(array: np.ndarray, dtype, shape: tuple[int, ...]) -> int:
    """``array``'s data address, once it is a C-ordered ``dtype`` array
    of exactly ``shape``."""
    if getattr(array, "shape", None) != shape:
        raise SimulationError(
            f"kernel table must have shape {shape}, got "
            f"{getattr(array, 'shape', type(array))}"
        )
    return _address(array, dtype, shape[0])


class LeadingScan:
    """The descriptor and buffers of one leading-core kernel run.

    ``commits`` (one int64 per schedule row) receives every row's commit
    cycle; the issue and completion streams and the usage rings live
    here.  :meth:`gate` attaches the RMT harness's queue gating.
    """

    def __init__(self, lib, schedule, commits: np.ndarray, config,
                 caps: tuple[int, ...], penalty: int):
        self._scan = lib.leading_scan
        self.rows = rows = len(commits)
        self.issues = np.zeros(rows, dtype=np.int64)
        self.completes = np.zeros(rows, dtype=np.int64)
        self.desc = d = np.zeros(L_SLOTS, dtype=np.int64)
        self._addr = d.ctypes.data
        self._keep = [schedule, commits]
        self._window = self._window_start = None
        self._consume_rows = None  # set when gated
        for slot, column in (
            (L_CG, schedule.cg), (L_IG, schedule.ig),
            (L_W1, schedule.w1), (L_W2, schedule.w2),
            (L_COMMITS, commits), (L_ISSUES, self.issues),
            (L_COMPLETES, self.completes),
        ):
            d[slot] = _address(column, np.int64, rows)
        # Schedule entries index the streams (negative ones are skipped).
        for column in (schedule.cg, schedule.ig, schedule.w1, schedule.w2):
            if rows and column[:rows].max() >= rows:
                raise SimulationError("schedule row index beyond the trace")
        self._bind_rings(
            np.zeros(RING_CYCLES, dtype=np.int64),
            np.zeros((RING_CYCLES, _NUM_POOLS), dtype=np.int64),
        )
        d[L_ROB] = config.rob_size
        d[L_WIDTH] = config.dispatch_width
        d[L_COMMIT_WIDTH] = config.commit_width
        d[L_FETCH_WIDTH] = config.fetch_width
        d[L_PENALTY] = penalty
        d[L_CAP0:L_CAP3 + 1] = caps

    def gate(self, needed: np.ndarray, binding: np.ndarray,
             consume: np.ndarray, stalls: np.ndarray) -> None:
        """Gate row ``i``'s commit at ``ceil(consume[needed[i]])`` when
        ``needed[i] >= 0``, counting a stall in ``stalls[binding[i]]``
        when that gate exceeds the previous row's commit."""
        rows = min(self.rows, len(needed))
        addresses = (
            _address(needed, np.int64, rows),
            _address(binding, np.int8, rows),
            # The scan reads consume[k] only for k < consumed, and
            # ``scan`` keeps consumed <= len(consume).
            _address(consume, np.float64, 0),
            _address(stalls, np.int64, _NUM_POOLS),
        )
        _check_codes(binding[:rows], _NUM_POOLS, "queue binding")
        self.desc[L_NEEDED:L_STALLS + 1] = addresses
        self._consume_rows = len(consume)
        self.rows = rows
        self._keep += [needed, binding, consume, stalls]
        self._window = None  # revalidate the window against the new rows

    def _bind_rings(self, issue_ring: np.ndarray, fu_ring: np.ndarray):
        self.issue_ring, self.fu_ring = issue_ring, fu_ring
        d = self.desc
        d[L_ISSUE_RING] = _address(issue_ring, np.int64, len(issue_ring))
        d[L_FU_RING] = _address(fu_ring, np.int64, len(issue_ring))
        d[L_RING_SIZE] = len(issue_ring)

    def _grow(self) -> None:
        """Double the rings, keeping every live cycle's counts."""
        size, tail = len(self.issue_ring), int(self.desc[L_TAIL])
        cycles = np.arange(tail, tail + size)
        old, new = cycles & (size - 1), cycles & (2 * size - 1)
        issue_ring = np.zeros(2 * size, dtype=np.int64)
        fu_ring = np.zeros((2 * size, _NUM_POOLS), dtype=np.int64)
        issue_ring[new] = self.issue_ring[old]
        fu_ring[new] = self.fu_ring[old]
        self._bind_rings(issue_ring, fu_ring)

    @property
    def last_commit(self) -> int:
        return int(self.desc[L_LAST_COMMIT])

    @property
    def tail(self) -> int:
        """The lowest cycle the usage rings still hold."""
        return int(self.desc[L_TAIL])

    def scan(self, prepared, start: int, consumed: int) -> int:
        """Schedule rows of ``prepared`` (trace rows ``start`` on) from the
        next unscheduled row; returns the row the scan stopped at (the
        window end, or with gating the first row whose gating entry is
        ``>= consumed``)."""
        d = self.desc
        end = start + len(prepared)
        if prepared is not self._window or start != self._window_start:
            if not 0 <= start <= int(d[L_NEXT]) or end > self.rows:
                raise SimulationError(
                    f"window rows [{start}, {end}) do not continue the "
                    f"kernel at row {int(d[L_NEXT])} of {self.rows}"
                )
            n = len(prepared)
            addresses = (
                _address(prepared.pool, np.int64, n),
                _address(prepared.latency, np.int64, n),
                _address(prepared.fetch_add, np.int64, n),
                _address(prepared.mispredicted, np.int8, n),
            )
            _check_codes(prepared.pool, _NUM_POOLS, "FU pool")
            d[L_POOL:L_MISPREDICTED + 1] = addresses
            d[L_WINDOW_START] = start
            self._window, self._window_start = prepared, start
        if (self._consume_rows is not None
                and not 0 <= consumed <= self._consume_rows):
            raise SimulationError(f"consumed count {consumed} out of range")
        while True:
            row = self._scan(self._addr, end, consumed)
            if row >= 0:
                return row
            if row != _RING_FULL:
                raise SimulationError(
                    "usage-ring probe below the eviction bound at row "
                    f"{int(d[L_NEXT])}"
                )
            self._grow()


class CheckerScan:
    """The descriptor of one checker's compiled consume.

    ``carry`` (float64: trailing-cycle start, cycle length, last
    check-commit time) and ``use`` (int64: slots used, then per-pool
    units used) are the checker's own state buffers, shared with its
    per-row oracle.  Columns bind by identity: a call with the same
    arrays as the previous one rebinds nothing.
    """

    def __init__(self, lib, carry: np.ndarray, use: np.ndarray,
                 width: int, rvp: bool, caps: tuple[int, ...]):
        self._consume = lib.checker_consume
        self.desc = d = np.zeros(C_SLOTS, dtype=np.int64)
        self._addr = d.ctypes.data
        d[C_CARRY] = _address(carry, np.float64, 3)
        d[C_USE] = _address(use, np.int64, 1 + _NUM_POOLS)
        d[C_WIDTH] = width
        d[C_RVP] = int(rvp)
        self._rvp = rvp
        d[C_CAP0:C_CAP3 + 1] = caps
        self._keep = (carry, use)
        self._bound = (None,) * 8
        self._rows = 0

    def consume(self, pool, src1, src2, dst, latency, available, out,
                reg_ready, lo: int, hi: int, transfer: float) -> None:
        """Check rows ``[lo, hi)``, arriving at ``available + transfer``;
        ``out`` receives their check-commit times at the same rows."""
        b = self._bound
        if not (
            pool is b[0] and src1 is b[1] and src2 is b[2] and dst is b[3]
            and latency is b[4] and available is b[5] and out is b[6]
            and reg_ready is b[7]
        ):
            self._bind(pool, src1, src2, dst, latency, available, out,
                       reg_ready)
        if not 0 <= lo <= hi <= self._rows:
            raise SimulationError(
                f"rows [{lo}, {hi}) outside the bound {self._rows} rows"
            )
        self._consume(self._addr, lo, hi, transfer)

    def _bind(self, pool, src1, src2, dst, latency, available, out,
              reg_ready) -> None:
        self._bound = (None,) * 8  # a bind that raises binds nothing
        columns = (pool, src1, src2, dst, latency, available, out)
        rows = min(len(column) for column in columns)
        d = self.desc
        for slot, column in (
            (C_POOL, pool), (C_SRC1, src1), (C_SRC2, src2), (C_DST, dst),
            (C_LATENCY, latency),
        ):
            d[slot] = _address(column, np.int64, rows)
        if getattr(available, "dtype", None) == np.int64:
            d[C_ARRIVAL_I64], d[C_ARRIVAL_F64] = _address(
                available, np.int64, rows
            ), 0
        else:
            d[C_ARRIVAL_F64], d[C_ARRIVAL_I64] = _address(
                available, np.float64, rows
            ), 0
        if not out.flags.writeable:
            raise SimulationError("consume output must be writable")
        d[C_OUT] = _address(out, np.float64, rows)
        d[C_REG_READY] = _address(reg_ready, np.float64, len(reg_ready))
        d[C_NUM_REGS] = len(reg_ready)
        _check_codes(pool[:rows], _NUM_POOLS, "FU pool")
        if not self._rvp and rows and dst[:rows].max() >= len(reg_ready):
            raise SimulationError("a dst register beyond reg_ready")
        self._bound = (pool, src1, src2, dst, latency, available, out,
                       reg_ready)
        self._rows = rows


class MemoryProbe:
    """The descriptor of one memory hierarchy's compiled cache probe.

    Binds the tag arrays of the hierarchy's L1I, L1D and NUCA L2, which
    the caches allocate once, with the L2's placement, latency and
    contention tables.  Each call revalidates what the probe indexes by
    (fill counts, distributed-ways slots, event kinds), rebinds a cache's
    installed runs when an install replaced them, and adds the call's
    counts to the caches' statistics.
    """

    def __init__(self, lib, memory):
        self._probe = lib.memory_probe
        l1i, l1d, l2 = memory.l1i, memory.l1d, memory.l2
        self.desc = d = np.zeros(M_SLOTS, dtype=np.int64)
        self._addr = d.ctypes.data
        self._blocks = (
            (M_L1I, l1i, l1i._tags, l1i.geometry.ways),
            (M_L1D, l1d, l1d._tags, l1d.geometry.ways),
            (M_L2, l2, l2._lines, l2.total_ways),
        )
        self._runs = [None] * len(self._blocks)
        for block, cache, tags, ways in self._blocks:
            sets = cache.num_sets
            if sets < 1 or ways < 1:
                raise SimulationError("a cache needs sets and ways")
            d[block + K_TAGS] = _table(tags, np.int64, (sets, ways))
            d[block + K_FILL] = _table(cache._fill, np.int64, (sets,))
            d[block + K_OWNED] = _table(cache._owned, np.uint8, (sets,))
            d[block + K_SETS] = sets
            d[block + K_WAYS] = ways
            d[block + K_SHIFT] = cache._offset_bits
        banks = l2.config.num_banks
        ways = l2.total_ways
        self._distributed_ways = (
            l2.config.policy is NucaPolicy.DISTRIBUTED_WAYS
        )
        slot_banks = np.array(l2._data_banks, dtype=np.int64)
        bank_cycles = np.array(l2._bank_cycles, dtype=np.int64)
        _check_codes(slot_banks, banks, "slot bank")
        self.counts = np.zeros(N_BANKS + banks, dtype=np.int64)
        d[M_L2_SLOTS] = _table(l2._slots, np.int8, (l2.num_sets, ways))
        d[M_DISTRIBUTED_WAYS] = int(self._distributed_ways)
        d[M_SLOT_BANKS] = _address(slot_banks, np.int64, ways)
        d[M_BANK_CYCLES] = _address(bank_cycles, np.int64, banks)
        d[M_NUM_BANKS] = banks
        d[M_MEMORY_CYCLES] = l2.memory_latency_cycles
        d[M_RECENT] = _address(l2._recent, np.int64, len(l2._recent))
        d[M_WINDOW] = len(l2._recent)
        d[M_BANK_ACCESS_CYCLES] = l2.config.bank_access_cycles
        d[M_I_HIT] = memory.core_config.l1_icache.hit_latency_cycles
        d[M_D_HIT] = memory.core_config.l1_dcache.hit_latency_cycles
        d[M_I_SPACE] = memory.I_SPACE
        d[M_COUNTS] = _address(self.counts, np.int64, len(self.counts))
        self._keep = (slot_banks, bank_cycles)
        self._l1i, self._l1d, self._l2 = l1i, l1d, l2

    def __call__(self, kinds: np.ndarray, addresses: np.ndarray,
                 out: np.ndarray) -> None:
        """Apply the events to the caches, writing each one's latency to
        ``out``."""
        n = len(kinds)
        columns = (
            _address(kinds, np.int64, n),
            _address(addresses, np.int64, n),
            _address(out, np.int64, n),
        )
        _check_codes(kinds, _EVENT_KINDS, "event kind")
        d = self.desc
        for index, (block, cache, _tags, ways) in enumerate(self._blocks):
            runs = cache._runs
            if runs is not self._runs[index]:
                address = _table(runs, np.int64, (len(runs), 2))
                _check_codes(runs, _LINE_LIMIT, "installed run")
                d[block + K_RUNS], d[block + K_NUM_RUNS] = address, len(runs)
                self._runs[index] = runs
            _check_codes(cache._fill, ways + 1, "fill count")
        if self._distributed_ways:
            _check_codes(self._l2._slots, self._l2.total_ways, "way slot")
        self._probe(self._addr, *columns, n)
        counts = self.counts.tolist()
        self._l1i.add_counts(*counts[0:2])
        self._l1d.add_counts(*counts[2:4])
        self._l2.add_counts(*counts[4:N_BANKS], counts[N_BANKS:])


class BranchUpdate:
    """The descriptor of one branch predictor's compiled update.

    Binds the counter tables and BTB columns the predictor allocates once.
    Each call validates the window's columns and the BTB fill counts
    (the predictor has checked that pcs and targets fit the uint32 BTB),
    carries the global history in and out through the descriptor, and
    returns the new history and the call's mispredicts.
    """

    def __init__(self, lib, predictor):
        self._update = lib.branch_update
        cfg = predictor.config
        # BranchPredictor rejects fewer than one set and ways beyond [1, 127].
        sets, ways = cfg.btb_sets, cfg.btb_ways
        if not 0 <= cfg.history_bits <= _HISTORY_BITS_LIMIT:
            raise SimulationError(
                f"history_bits must lie in [0, {_HISTORY_BITS_LIMIT}]"
            )
        self.desc = d = np.zeros(B_SLOTS, dtype=np.int64)
        self._addr = d.ctypes.data
        tables = (
            (B_BIMODAL, predictor._bimodal, np.int8, (cfg.bimodal_entries,)),
            (B_PHT, predictor._pht, np.int8, (cfg.level2_entries,)),
            (B_CHOOSER, predictor._chooser, np.int8, (cfg.bimodal_entries,)),
            (B_BTB_TAGS, predictor._btb_tags, np.uint32, (sets, ways)),
            (B_BTB_TARGETS, predictor._btb_targets, np.uint32, (sets, ways)),
            (B_BTB_FILL, predictor._btb_fill, np.int8, (sets,)),
        )
        for slot, table, dtype, shape in tables:
            d[slot] = _table(table, dtype, shape)
        self._mask = (1 << cfg.history_bits) - 1
        d[B_BIMODAL_ENTRIES] = cfg.bimodal_entries
        d[B_PHT_ENTRIES] = cfg.level2_entries
        d[B_HISTORY_MASK] = self._mask
        d[B_BTB_SETS] = sets
        d[B_BTB_WAYS] = ways
        self._fill, self._ways = predictor._btb_fill, ways
        self._keep = tuple(table for _, table, _, _ in tables)

    def __call__(self, history: int, pcs: np.ndarray, takens: np.ndarray,
                 targets: np.ndarray, out: np.ndarray) -> tuple[int, int]:
        """Resolve the window, writing each branch's mispredict flag to the
        bool ``out``; returns the history after it and the mispredicts."""
        n = len(pcs)
        columns = (
            _address(pcs, np.int64, n),
            _address(takens, np.bool_, n),
            _address(targets, np.int64, n),
            _address(out, np.bool_, n),
        )
        _check_codes(self._fill, self._ways + 1, "BTB fill count")
        if not 0 <= history <= self._mask:
            raise SimulationError("global history beyond its history_bits")
        d = self.desc
        d[B_HISTORY] = history
        mispredicts = self._update(self._addr, *columns, n)
        return int(d[B_HISTORY]), mispredicts


def trace_schedule(lib, arrays, config) -> tuple[np.ndarray, ...]:
    """``arrays``'s int64 ``cg``, ``ig``, ``w1`` and ``w2`` schedule columns
    under ``config``'s queue sizes, in one compiled pass over its int8 op
    and int16 register columns."""
    sizes = (config.rob_size, config.lsq_size, config.int_issue_queue_size,
             config.fp_issue_queue_size)
    if min(sizes) < 1:
        raise SimulationError(f"queue sizes must be positive, got {sizes}")
    n = len(arrays)
    op, dst, src1, src2 = (
        np.ascontiguousarray(column) for column in
        (arrays.op, arrays.dst, arrays.src1, arrays.src2)
    )
    _check_codes(op, len(_OP_CLASS), "op")
    # The last-writer table spans every register the trace names.
    top = max(int(column.max()) for column in (dst, src1, src2)) if n else 0
    writers = np.full(max(top, 0) + 1, -1, dtype=np.int64)
    out = tuple(np.empty(n, dtype=np.int64) for _ in range(4))
    rings = tuple(np.empty(min(size, n), dtype=np.int64) for size in sizes[1:])
    d = np.zeros(T_SLOTS, dtype=np.int64)
    for slot, column, dtype in (
        (T_OP, op, np.int8), (T_DST, dst, np.int16),
        (T_SRC1, src1, np.int16), (T_SRC2, src2, np.int16),
        (T_CG, out[0], np.int64), (T_IG, out[1], np.int64),
        (T_W1, out[2], np.int64), (T_W2, out[3], np.int64),
    ):
        d[slot] = _address(column, dtype, n)
    d[T_OP_CLASS] = _address(_OP_CLASS, np.int8, len(_OP_CLASS))
    d[T_WRITERS] = _address(writers, np.int64, len(writers))
    for slot, ring in zip((T_MEM_RING, T_INT_RING, T_FP_RING), rings):
        d[slot] = _address(ring, np.int64, len(ring))
    d[T_ROB:T_FP_IQ + 1] = sizes
    lib.trace_schedule(d.ctypes.data, n)
    return out
