"""Synthetic trace generation from a workload profile.

The generator turns a :class:`~repro.workloads.profiles.WorkloadProfile`
into a deterministic dynamic instruction stream with controlled instruction
mix, dependence distances, branch predictability, and memory footprint.
The same seed always yields the same trace, which RMT simulation relies on
(leading and trailing cores execute the same dynamic stream).

Generation is columnar: each chunk is produced as a
:class:`~repro.isa.soa.TraceArrays` by vectorized NumPy passes, with the
genuinely sequential carries (the recent-destination ring, the pointer
chase, the cold-region streaming pointer, the pc chain) expressed as
prefix-scan kernels.  The original per-instruction loop is retained as
``_generate_chunk_reference`` — the executable specification the
vectorized path is tested bit-identical against.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import RngFactory
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    OP_BRANCH,
    OP_FALU,
    OP_FMUL,
    OP_IALU,
    OP_IMUL,
    OP_LOAD,
    OP_STORE,
    OpClass,
)
from repro.isa.soa import TraceArrays
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.workloads.profiles import WorkloadProfile

__all__ = ["TraceGenerator", "generate_trace"]

# Architectural register allocation: integer dsts rotate through 0..29,
# FP dsts through 32..61.  Registers 30 and 62 act as long-lived "far"
# operands (values produced long ago, always ready).
_INT_DST_REGS = list(range(0, 30))
_FP_DST_REGS = list(range(32, 62))
_INT_FAR_REG = 30
_FP_FAR_REG = 62

# Non-overlapping virtual address regions (byte addresses).
_HOT_BASE = 0x0000_0000
_WARM_BASE = 0x1000_0000
_XL_BASE = 0x2000_0000
_COLD_BASE = 0x4000_0000
_COLD_SPAN = 0x3000_0000  # streaming wraps after ~768 MB

_REGION_HOT, _REGION_WARM, _REGION_XL, _REGION_COLD = 0, 1, 2, 3

_CHUNK = 8192

# The RNG drawing order indexes ops in this (historical) order; the
# table maps those draw indices to canonical op codes.
_DRAW_TO_CODE = np.array(
    [OP_LOAD, OP_STORE, OP_BRANCH, OP_IMUL, OP_FALU, OP_FMUL, OP_IALU],
    dtype=np.int8,
)
_RING_CAP = 64


class TraceGenerator:
    """Deterministic synthetic instruction stream for one benchmark profile.

    Example::

        gen = TraceGenerator(get_profile("mcf"), seed=42)
        arrays = gen.generate_arrays(100_000)   # columnar (fast paths)
        trace = gen.generate(100_000)           # list of Instruction
    """

    def __init__(self, profile: WorkloadProfile, seed: int = 0, line_bytes: int = 64):
        self.profile = profile
        self.seed = seed
        self._line_bytes = line_bytes
        rngs = RngFactory(seed).child(f"trace:{profile.name}")
        self._rng = rngs.stream("main")

        # Static branch sites: pc, taken bias, and whether the site is
        # inherently unpredictable ("hard").
        site_rng = rngs.stream("branch-sites")
        # A handful of hot loop branches dominate real programs; keeping the
        # static site count small lets the predictor train within the
        # simulated window the way it would over a SimPoint interval.
        num_sites = max(16, profile.code_bytes // 256)
        self._branch_pcs = (
            site_rng.integers(0, profile.code_bytes // 4, size=num_sites) * 4
        )
        self._branch_bias = np.where(
            site_rng.random(num_sites) < 0.5,
            site_rng.uniform(0.92, 0.995, size=num_sites),
            site_rng.uniform(0.005, 0.08, size=num_sites),
        )
        self._branch_hard = site_rng.random(num_sites) < profile.hard_branch_fraction
        self._branch_targets = (
            site_rng.integers(0, profile.code_bytes // 4, size=num_sites) * 4
        )

        # Mutable stream state.
        self._seq = 0
        self._pc = 0
        self._cold_ptr = 0
        self._recent_dsts: list[int] = []  # ring of recent destination registers
        self._next_int_dst = 0
        self._next_fp_dst = 0
        self._last_load_dst = -1
        self._buffer: TraceArrays = TraceArrays.empty()

    # ------------------------------------------------------------------
    def pretrain_predictor(self, predictor, rounds: int = 40) -> None:
        """Warm a branch predictor as billions of prior instructions would.

        Feeds each static branch site ``rounds`` outcomes drawn from its
        bias so that direction tables and the BTB reflect steady state
        before the measured window begins.  Uses a dedicated RNG stream, so
        it does not perturb trace generation.  Thresholds and outcomes are
        computed in one vectorized pass and resolved in one
        ``update_window`` call, in the per-site order of the update loop
        (row-major over rounds x sites).
        """
        rng = RngFactory(self.seed).child(
            f"trace:{self.profile.name}"
        ).stream("pretrain")
        draws = rng.random((rounds, len(self._branch_pcs)))
        thresholds = np.where(self._branch_hard, 0.5, self._branch_bias)
        outcomes = draws < thresholds[None, :]
        predictor.update_window(
            np.tile(self._branch_pcs, rounds),
            outcomes.reshape(-1),
            np.tile(self._branch_targets, rounds),
        )

    def generate_arrays(self, count: int) -> TraceArrays:
        """Generate the next ``count`` instructions as columnar arrays.

        Internally the generator always draws randomness in fixed-size
        batches (buffering the excess), so splitting one ``generate(2n)``
        into two ``generate(n)`` calls yields the identical stream.
        """
        while len(self._buffer) < count:
            # Instrumented per chunk, not per instruction: one registry
            # lookup amortised over _CHUNK generated instructions.
            with span("trace.generate_chunk"):
                chunk = self._generate_chunk(_CHUNK)
            get_registry().counter("trace.instructions_generated").inc(len(chunk))
            self._buffer = TraceArrays.concat([self._buffer, chunk])
        out = self._buffer[:count]
        self._buffer = self._buffer[count:]
        return out

    def generate(self, count: int) -> list[Instruction]:
        """Generate the next ``count`` instructions as a list of
        :class:`Instruction` (thin adapter over :meth:`generate_arrays`)."""
        return self.generate_arrays(count).to_instructions()

    # ------------------------------------------------------------------
    def _draw_chunk(self, count: int):
        """The RNG draw block shared by the vectorized and reference
        paths.  Draw order and shapes are part of the stream contract:
        changing either changes every trace."""
        p = self.profile
        rng = self._rng
        mix = np.array([
            p.frac_load, p.frac_store, p.frac_branch,
            p.frac_imul, p.frac_falu, p.frac_fmul, p.frac_ialu,
        ])
        mix = mix / mix.sum()
        ops = rng.choice(len(_DRAW_TO_CODE), size=count, p=mix)

        # Dependence distances: geometric with the profile's mean.
        dep1 = rng.geometric(1.0 / p.mean_dep_distance, size=count)
        dep2 = rng.geometric(1.0 / p.mean_dep_distance, size=count)
        far1 = rng.random(count) < p.far_operand_fraction
        far2 = rng.random(count) < p.far_operand_fraction

        regions = rng.choice(
            4, size=count, p=[p.p_hot, p.p_warm, p.p_xl, p.p_cold]
        )
        hot_off = rng.integers(0, max(1, p.hot_bytes // 8), size=count) * 8
        # Warm-region reuse is skewed, as in real programs: 70% of accesses
        # touch the hottest quarter of the region.  (This is what lets the
        # distributed-way NUCA policy's migration concentrate hot blocks
        # near the controller, Section 3.1.)
        warm_uniform = rng.integers(0, max(1, p.warm_bytes // 8), size=count) * 8
        warm_hot = rng.integers(0, max(1, p.warm_bytes // 32), size=count) * 8
        warm_off = np.where(rng.random(count) < 0.7, warm_hot, warm_uniform)
        xl_off = rng.integers(0, max(1, p.xl_bytes // 8), size=count) * 8
        site_idx = rng.integers(0, len(self._branch_pcs), size=count)
        branch_draw = rng.random(count)
        chase = rng.random(count) < p.pointer_chase_fraction
        return (ops, dep1, dep2, far1, far2, regions, hot_off, warm_off,
                xl_off, site_idx, branch_draw, chase)

    def _generate_chunk(self, count: int) -> TraceArrays:
        """Vectorized chunk generation (bit-identical to the reference).

        Everything independent is a NumPy pass; the sequential carries are
        scan kernels: destination rotation and the recent-dst ring become
        prefix counts into a shared history array, the pc chain becomes a
        last-branch segmented ramp, and the cold pointer a strided ramp.
        """
        if count <= 0:
            return TraceArrays.empty(seq0=self._seq)
        p = self.profile
        (ops, dep1, dep2, far1, far2, regions, hot_off, warm_off,
         xl_off, site_idx, branch_draw, chase) = self._draw_chunk(count)

        is_load = ops == 0
        is_store = ops == 1
        is_branch = ops == 2
        is_fp = (ops == 4) | (ops == 5)
        is_mem = is_load | is_store
        writes = ~(is_store | is_branch)

        # ---- destination rotation (prefix counts per register file) ----
        dst = np.full(count, -1, dtype=np.int64)
        write_fp = writes & is_fp
        write_int = writes & ~is_fp
        fp_rank = np.cumsum(write_fp)
        int_rank = np.cumsum(write_int)
        n_fp, n_int = len(_FP_DST_REGS), len(_INT_DST_REGS)
        dst[write_fp] = 32 + (self._next_fp_dst + fp_rank[write_fp] - 1) % n_fp
        dst[write_int] = (self._next_int_dst + int_rank[write_int] - 1) % n_int
        self._next_fp_dst = int((self._next_fp_dst + fp_rank[-1]) % n_fp)
        self._next_int_dst = int((self._next_int_dst + int_rank[-1]) % n_int)

        # ---- source resolution via the recent-dst ring ----------------
        # The ring at instruction i is the last (up to 64) destinations of
        # writers before i.  Expressed over `history` (carried ring ++ this
        # chunk's writer dsts in order): ring[-d] == history[L + wb_i - d],
        # valid whenever d <= min(64, L + wb_i).
        carried = np.array(self._recent_dsts, dtype=np.int64)
        carried_len = len(carried)
        history = np.concatenate([carried, dst[writes]])
        writers_before = np.cumsum(writes) - writes
        available = np.minimum(_RING_CAP, carried_len + writers_before)
        far_reg = np.where(is_fp, _FP_FAR_REG, _INT_FAR_REG)

        def resolve(dep, far):
            take = ~far & (dep <= available) & (available > 0)
            if not history.size:
                return far_reg.copy()
            idx = np.where(take, carried_len + writers_before - dep, 0)
            return np.where(take, history[idx], far_reg)

        src1 = resolve(dep1, far1)
        src2 = resolve(dep2, far2)

        # ---- pointer chase: src1 = previous load's destination --------
        load_idx = np.nonzero(is_load)[0]
        if load_idx.size:
            load_dsts = dst[load_idx]
            prev_load = np.concatenate(
                [[self._last_load_dst], load_dsts[:-1]]
            )
            chased = chase[load_idx] & (prev_load >= 0)
            src1[load_idx[chased]] = prev_load[chased]
            self._last_load_dst = int(load_dsts[-1])

        # ---- branch outcomes and the pc chain -------------------------
        code = p.code_bytes
        positions = np.arange(count, dtype=np.int64)
        taken = np.zeros(count, dtype=bool)
        target = np.zeros(count, dtype=np.int64)
        hard = np.zeros(count, dtype=bool)
        branch_idx = np.nonzero(is_branch)[0]
        after_branch = np.zeros(count, dtype=np.int64)
        if branch_idx.size:
            sites = site_idx[branch_idx]
            branch_pc = self._branch_pcs[sites]
            hard_b = self._branch_hard[sites]
            threshold = np.where(hard_b, 0.5, self._branch_bias[sites])
            taken_b = branch_draw[branch_idx] < threshold
            target_b = self._branch_targets[sites]
            taken[branch_idx] = taken_b
            target[branch_idx] = target_b
            hard[branch_idx] = hard_b
            after_branch[branch_idx] = np.where(
                taken_b, target_b, (branch_pc + 4) % code
            )
        # pc ramps forward by 4 (mod code) from the last branch redirect
        # (or the carried pc); branches read their static site pc.
        last_branch = np.maximum.accumulate(
            np.where(is_branch, positions, -1)
        )
        base = np.where(
            last_branch >= 0,
            after_branch[np.maximum(last_branch, 0)],
            self._pc,
        )
        steps = np.where(
            last_branch >= 0, positions - last_branch - 1, positions
        )
        pc = (base + 4 * steps) % code
        if branch_idx.size:
            pc[branch_idx] = branch_pc
            self._pc = int(
                (after_branch[branch_idx[-1]]
                 + 4 * (count - int(branch_idx[-1]) - 1)) % code
            )
        else:
            self._pc = int((self._pc + 4 * count) % code)

        # ---- effective addresses (cold region: strided scan) ----------
        address = np.zeros(count, dtype=np.int64)
        hot_rows = is_mem & (regions == _REGION_HOT)
        warm_rows = is_mem & (regions == _REGION_WARM)
        xl_rows = is_mem & (regions == _REGION_XL)
        address[hot_rows] = _HOT_BASE + hot_off[hot_rows]
        address[warm_rows] = _WARM_BASE + warm_off[warm_rows]
        address[xl_rows] = _XL_BASE + xl_off[xl_rows]
        cold_idx = np.nonzero(is_mem & (regions == _REGION_COLD))[0]
        if cold_idx.size:
            offsets = (
                self._cold_ptr
                + np.arange(cold_idx.size, dtype=np.int64) * self._line_bytes
            ) % _COLD_SPAN
            address[cold_idx] = _COLD_BASE + offsets
            self._cold_ptr = int(
                (self._cold_ptr + cold_idx.size * self._line_bytes)
                % _COLD_SPAN
            )

        # ---- carry the ring and the sequence counter ------------------
        self._recent_dsts = history[-_RING_CAP:].tolist()
        seq0 = self._seq
        self._seq += count

        return TraceArrays(
            op=_DRAW_TO_CODE[ops],
            dst=dst.astype(np.int16),
            src1=src1.astype(np.int16),
            src2=src2.astype(np.int16),
            pc=pc,
            address=address,
            taken=taken,
            target=target,
            hard=hard,
            seq0=seq0,
        )

    # ------------------------------------------------------------------
    def _generate_chunk_reference(self, count: int) -> list[Instruction]:
        """The original per-instruction loop — kept as the executable
        specification of the stream semantics.  Consumes the same RNG
        draws as :meth:`_generate_chunk`; the property tests assert the
        two are bit-identical, and the benchmark harness times this as
        the pre-columnar baseline."""
        p = self.profile
        op_classes = [
            OpClass.LOAD, OpClass.STORE, OpClass.BRANCH,
            OpClass.IMUL, OpClass.FALU, OpClass.FMUL, OpClass.IALU,
        ]
        (ops, dep1, dep2, far1, far2, regions, hot_off, warm_off,
         xl_off, site_idx, branch_draw, chase) = self._draw_chunk(count)

        instrs: list[Instruction] = []
        for i in range(count):
            op = op_classes[ops[i]]
            seq = self._seq
            self._seq += 1

            dst = -1
            if op.writes_register:
                if op.is_fp:
                    dst = _FP_DST_REGS[self._next_fp_dst]
                    self._next_fp_dst = (self._next_fp_dst + 1) % len(_FP_DST_REGS)
                else:
                    dst = _INT_DST_REGS[self._next_int_dst]
                    self._next_int_dst = (self._next_int_dst + 1) % len(_INT_DST_REGS)

            far_reg = _FP_FAR_REG if op.is_fp else _INT_FAR_REG
            src1 = far_reg if far1[i] else self._recent_dst(int(dep1[i]), far_reg)
            src2 = far_reg if far2[i] else self._recent_dst(int(dep2[i]), far_reg)
            address = 0
            taken = False
            target = 0
            hard = False
            pc = self._pc

            if op is OpClass.LOAD and chase[i] and self._last_load_dst >= 0:
                # Pointer chase: the address register is the previous load's
                # destination, serializing the two accesses.
                src1 = self._last_load_dst

            if op.is_memory:
                region = regions[i]
                if region == _REGION_HOT:
                    address = _HOT_BASE + int(hot_off[i])
                elif region == _REGION_WARM:
                    address = _WARM_BASE + int(warm_off[i])
                elif region == _REGION_XL:
                    address = _XL_BASE + int(xl_off[i])
                else:
                    address = _COLD_BASE + self._cold_ptr
                    self._cold_ptr = (
                        self._cold_ptr + self._line_bytes
                    ) % _COLD_SPAN
            elif op is OpClass.BRANCH:
                site = int(site_idx[i])
                pc = int(self._branch_pcs[site])
                hard = bool(self._branch_hard[site])
                threshold = 0.5 if hard else float(self._branch_bias[site])
                taken = bool(branch_draw[i] < threshold)
                target = int(self._branch_targets[site])
                self._pc = target if taken else (pc + 4) % p.code_bytes

            if op is not OpClass.BRANCH:
                self._pc = (self._pc + 4) % p.code_bytes

            instr = Instruction(
                seq=seq, op=op, dst=dst, src1=src1, src2=src2, pc=pc,
                address=address, taken=taken, target=target, hard_branch=hard,
            )
            instrs.append(instr)
            if op is OpClass.LOAD:
                self._last_load_dst = dst
            if dst >= 0:
                self._recent_dsts.append(dst)
                if len(self._recent_dsts) > _RING_CAP:
                    del self._recent_dsts[0]
        return instrs

    def _recent_dst(self, distance: int, fallback: int) -> int:
        """Destination register of the instruction ``distance`` back."""
        if not self._recent_dsts:
            return fallback
        if distance > len(self._recent_dsts):
            return fallback
        return self._recent_dsts[-distance]


def generate_trace(
    profile: WorkloadProfile, count: int, seed: int = 0
) -> list[Instruction]:
    """Convenience: build a generator and produce ``count`` instructions."""
    return TraceGenerator(profile, seed=seed).generate(count)
