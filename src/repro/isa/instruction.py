"""Instruction representation and program container.

Instructions are stored decoded (there is no binary encoding step —
SimpleScalar likewise interprets a decoded form).  Each instruction
occupies 4 bytes of the simulated address space so that PCs, the BTB,
and the I-cache behave realistically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import (
    CONDITIONAL_BRANCHES,
    MEM_SIZE,
    OP_CLASS,
    Opcode,
    OpClass,
)
from repro.isa.registers import REG_NAMES, ZERO_REG

#: Size of one instruction in the simulated address space.
INSTRUCTION_BYTES = 4


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded instruction.

    Fields follow the Alpha operand conventions used in
    :mod:`repro.isa.opcodes`:

    * ``ra`` — first source register (data for stores, condition for
      branches).
    * ``rb`` — second source register (base for memory ops, target for
      indirect jumps); ``None`` when the second operand is the literal
      ``imm``.
    * ``rd`` — destination register, or ``None``.
    * ``imm`` — literal second operand, memory displacement, or ``None``.
    * ``target`` — branch-target *instruction index* within the program
      for direct branches (``BR``/``BSR``/conditional), else ``None``.
    """

    opcode: Opcode
    ra: int | None = None
    rb: int | None = None
    rd: int | None = None
    imm: int | None = None
    target: int | None = None

    # -- classification helpers -------------------------------------------

    @property
    def op_class(self) -> OpClass:
        """The functional class of this instruction."""
        return OP_CLASS[self.opcode]

    @property
    def is_load(self) -> bool:
        return OP_CLASS[self.opcode] is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return OP_CLASS[self.opcode] is OpClass.STORE

    @property
    def is_mem(self) -> bool:
        return self.opcode in MEM_SIZE

    @property
    def is_branch(self) -> bool:
        """Any control transfer, direct or indirect."""
        cls = OP_CLASS[self.opcode]
        return cls is OpClass.BRANCH or cls is OpClass.JUMP

    @property
    def is_conditional(self) -> bool:
        return self.opcode in CONDITIONAL_BRANCHES

    @property
    def mem_size(self) -> int:
        """Access size in bytes for memory instructions."""
        return MEM_SIZE[self.opcode]

    def src_regs(self) -> tuple[int, ...]:
        """Register numbers this instruction reads (excluding R31)."""
        srcs = []
        if self.ra is not None and self.ra != ZERO_REG:
            srcs.append(self.ra)
        if self.rb is not None and self.rb != ZERO_REG:
            srcs.append(self.rb)
        # Conditional moves also read their destination.
        if self.opcode in (Opcode.CMOVEQ, Opcode.CMOVNE):
            if self.rd is not None and self.rd != ZERO_REG:
                srcs.append(self.rd)
        return tuple(srcs)

    def dest_reg(self) -> int | None:
        """Destination register number, or ``None`` (R31 counts as None)."""
        if self.rd is None or self.rd == ZERO_REG:
            return None
        return self.rd

    def __str__(self) -> str:
        parts = [self.opcode.value]
        if self.rd is not None:
            parts.append(REG_NAMES[self.rd])
        if self.ra is not None:
            parts.append(REG_NAMES[self.ra])
        if self.rb is not None:
            parts.append(REG_NAMES[self.rb])
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        if self.target is not None:
            parts.append(f"@{self.target}")
        return f"{parts[0]} " + ", ".join(parts[1:])


@dataclass
class Program:
    """A fully assembled program: instructions plus an initial memory image.

    ``base_pc`` is the simulated address of instruction 0.  ``image``
    is the initial data (the ``.data`` section) as ordered ``(addr,
    bytes)`` segments; where two overlap, the later one wins.
    ``entry`` is the starting instruction index.  ``srcmap``, when the
    assembler provides it, maps each instruction index to the
    ``(file, line)`` of the emitting call site, so diagnostics can
    point at workload source rather than instruction numbers.
    """

    instructions: list[Instruction]
    base_pc: int = 0x0001_0000
    image: tuple[tuple[int, bytes], ...] = ()
    entry: int = 0
    name: str = "program"
    srcmap: list[tuple[str, int] | None] | None = None

    def source_of(self, index: int) -> tuple[str, int] | None:
        """``(file, line)`` that emitted instruction ``index``, if known."""
        if self.srcmap is None or not 0 <= index < len(self.srcmap):
            return None
        return self.srcmap[index]

    def __len__(self) -> int:
        return len(self.instructions)

    def pc_of(self, index: int) -> int:
        """Simulated byte address of instruction ``index``."""
        return self.base_pc + index * INSTRUCTION_BYTES

    def index_of(self, pc: int) -> int:
        """Instruction index for simulated byte address ``pc``."""
        return (pc - self.base_pc) // INSTRUCTION_BYTES

    def fetch(self, index: int) -> Instruction:
        """Instruction at ``index``; out-of-range fetches yield HALT so a
        wrong-path fetch off the end of the program is harmless."""
        if 0 <= index < len(self.instructions):
            return self.instructions[index]
        return Instruction(Opcode.HALT)
