"""Columnar (structure-of-arrays) representation of a dynamic trace.

:class:`TraceArrays` holds one NumPy array per instruction field instead
of one :class:`~repro.isa.instruction.Instruction` object per dynamic
instruction.  The hot paths — trace generation, the leading-core batch
scheduler, the RMT co-simulation — operate on these columns directly
(vectorized passes plus tight int-only loops), while object consumers
(fault injection, TMR, tests) materialize rows lazily through
``__getitem__`` / :meth:`to_instructions`.

Columns use the canonical integer op codes of
:data:`repro.isa.opcodes.OP_CODE`; every conversion back to objects goes
through ``.tolist()`` so consumers always see plain Python ints/bools,
never NumPy scalars.

Instances cached by :mod:`repro.common.memo` are frozen (arrays marked
read-only) so shared traces cannot be corrupted by any consumer; slicing
returns views, which keeps prefix reuse free of copies.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OP_BY_CODE, OP_CODE

__all__ = ["TraceArrays"]

_COLUMNS = (
    "op", "dst", "src1", "src2", "pc", "address", "taken", "target", "hard",
)


@dataclass
class TraceArrays:
    """One dynamic instruction stream as parallel NumPy columns.

    Attributes:
        op: canonical op codes (:data:`repro.isa.opcodes.OP_CODE`), int8.
        dst: destination register or -1, int16.
        src1, src2: source registers, int16.
        pc: instruction addresses, int64.
        address: effective addresses (0 for non-memory ops), int64.
        taken: branch outcomes (False for non-branches), bool.
        target: branch targets (0 for non-branches), int64.
        hard: hard-branch flags (False for non-branches), bool.
        seq0: sequence number of row 0 in the overall dynamic stream.
    """

    op: np.ndarray
    dst: np.ndarray
    src1: np.ndarray
    src2: np.ndarray
    pc: np.ndarray
    address: np.ndarray
    taken: np.ndarray
    target: np.ndarray
    hard: np.ndarray
    seq0: int = 0

    # -- basics ---------------------------------------------------------
    def __post_init__(self):
        n = len(self.op)
        for name in _COLUMNS:
            if len(getattr(self, name)) != n:
                raise ValueError(
                    f"column {name!r} has {len(getattr(self, name))} rows, "
                    f"expected {n}"
                )

    def __len__(self) -> int:
        return len(self.op)

    def __getitem__(self, index):
        """Row view: an int materializes one :class:`Instruction`, a slice
        returns a (zero-copy) :class:`TraceArrays` view."""
        if isinstance(index, slice):
            start = range(len(self))[index].start if len(self) else 0
            return TraceArrays(
                *(getattr(self, name)[index] for name in _COLUMNS),
                seq0=self.seq0 + start,
            )
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"row {index} out of range for {len(self)} rows")
        return Instruction(
            seq=self.seq0 + i,
            op=OP_BY_CODE[int(self.op[i])],
            dst=int(self.dst[i]),
            src1=int(self.src1[i]),
            src2=int(self.src2[i]),
            pc=int(self.pc[i]),
            address=int(self.address[i]),
            taken=bool(self.taken[i]),
            target=int(self.target[i]),
            hard_branch=bool(self.hard[i]),
        )

    def __iter__(self):
        return iter(self.to_instructions())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceArrays):
            return NotImplemented
        return self.seq0 == other.seq0 and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _COLUMNS
        )

    # -- construction ---------------------------------------------------
    @classmethod
    def empty(cls, seq0: int = 0) -> "TraceArrays":
        """A zero-row trace (the identity for :meth:`concat`)."""
        return cls(
            op=np.empty(0, dtype=np.int8),
            dst=np.empty(0, dtype=np.int16),
            src1=np.empty(0, dtype=np.int16),
            src2=np.empty(0, dtype=np.int16),
            pc=np.empty(0, dtype=np.int64),
            address=np.empty(0, dtype=np.int64),
            taken=np.empty(0, dtype=bool),
            target=np.empty(0, dtype=np.int64),
            hard=np.empty(0, dtype=bool),
            seq0=seq0,
        )

    @classmethod
    def from_instructions(cls, instructions) -> "TraceArrays":
        """Pack a list of :class:`Instruction` into columns (exact inverse
        of :meth:`to_instructions`)."""
        instructions = list(instructions)
        if not instructions:
            return cls.empty()
        return cls(
            op=np.array([OP_CODE[i.op] for i in instructions], dtype=np.int8),
            dst=np.array([i.dst for i in instructions], dtype=np.int16),
            src1=np.array([i.src1 for i in instructions], dtype=np.int16),
            src2=np.array([i.src2 for i in instructions], dtype=np.int16),
            pc=np.array([i.pc for i in instructions], dtype=np.int64),
            address=np.array([i.address for i in instructions], dtype=np.int64),
            taken=np.array([i.taken for i in instructions], dtype=bool),
            target=np.array([i.target for i in instructions], dtype=np.int64),
            hard=np.array(
                [i.hard_branch for i in instructions], dtype=bool
            ),
            seq0=instructions[0].seq,
        )

    @classmethod
    def concat(cls, parts) -> "TraceArrays":
        """Concatenate trace segments (``seq0`` taken from the first)."""
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls(
            *(
                np.concatenate([getattr(p, name) for p in parts])
                for name in _COLUMNS
            ),
            seq0=parts[0].seq0,
        )

    # -- conversion -----------------------------------------------------
    def to_instructions(self) -> list[Instruction]:
        """Materialize every row as an :class:`Instruction` (plain Python
        ints/bools — the legacy list-of-objects API)."""
        make = Instruction
        ops = [OP_BY_CODE[c] for c in self.op.tolist()]
        return [
            make(
                seq=seq, op=op, dst=dst, src1=src1, src2=src2, pc=pc,
                address=address, taken=taken, target=target, hard_branch=hard,
            )
            for seq, op, dst, src1, src2, pc, address, taken, target, hard
            in zip(
                range(self.seq0, self.seq0 + len(ops)), ops,
                self.dst.tolist(), self.src1.tolist(), self.src2.tolist(),
                self.pc.tolist(), self.address.tolist(), self.taken.tolist(),
                self.target.tolist(), self.hard.tolist(),
            )
        ]

    # -- sharing --------------------------------------------------------
    def freeze(self) -> "TraceArrays":
        """Mark every column read-only (views inherit the flag); returns
        self for chaining.  Used by the memo cache before sharing."""
        for name in _COLUMNS:
            getattr(self, name).flags.writeable = False
        return self


# dataclass would autogenerate __eq__ element-wise over arrays (ambiguous
# truth value); keep the explicit column-wise comparison defined above.
assert all(f.name in _COLUMNS + ("seq0",) for f in fields(TraceArrays))
