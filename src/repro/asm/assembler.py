"""A small structured assembler for writing workloads.

Programs are built by calling emit methods on an :class:`Assembler`;
labels may be referenced before they are defined and are resolved by
:meth:`Assembler.assemble`.  Operand-size rules follow the Alpha:
operate-format literals are unsigned 8-bit (0..255) and memory
displacements are signed 16-bit, so larger constants must be built with
``lda``/``ldah`` sequences — the :meth:`Assembler.li` helper emits them.
This matters for fidelity: immediates are ALU operands and their widths
flow into the paper's bitwidth statistics.
"""

from __future__ import annotations

import sys

from repro.asm.layout import CODE_BASE, DATA_BASE, STACK_TOP
from repro.isa.instruction import Instruction, Program
from repro.isa.opcodes import CONDITIONAL_BRANCHES, Opcode, OpClass, op_class
from repro.isa.registers import ZERO_REG, reg_index
from repro.isa.semantics import to_unsigned

_OPERATE_LITERAL_MAX = 255
_DISP_MIN, _DISP_MAX = -32768, 32767


class AssemblerError(Exception):
    """Raised for malformed assembly (bad literals, unknown labels, ...).

    When the emitting call site is known the message is prefixed
    ``file:line:`` and ``mnemonic:``, and both are also available as
    attributes so tools can format their own diagnostics.
    """

    def __init__(self, message: str, *, mnemonic: str | None = None,
                 source: tuple[str, int] | None = None) -> None:
        self.mnemonic = mnemonic
        self.source = source
        prefix = ""
        if source is not None:
            prefix += f"{source[0]}:{source[1]}: "
        if mnemonic is not None:
            prefix += f"{mnemonic}: "
        super().__init__(prefix + message)


def _caller_site() -> tuple[str, int] | None:
    """``(file, line)`` of the nearest caller outside this module —
    the workload-builder statement that asked for the emission."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    if frame is None:
        return None
    return frame.f_code.co_filename, frame.f_lineno


class _Fixup:
    """A branch whose target label is not yet resolved."""

    __slots__ = ("index", "label", "source")

    def __init__(self, index: int, label: str,
                 source: tuple[str, int] | None = None) -> None:
        self.index = index
        self.label = label
        self.source = source


class Assembler:
    """Builds a :class:`~repro.isa.instruction.Program` instruction by
    instruction.

    Typical use::

        asm = Assembler("my-kernel")
        buf = asm.alloc("buf", 1024)
        asm.li("s0", buf)
        asm.label("loop")
        asm.load("ldbu", "t0", "s0", 0)
        asm.op("addq", "t1", "t1", "t0")
        asm.op("addq", "s0", "s0", 1)
        asm.op("subq", "s2", "s2", 1)
        asm.br("bne", "s2", "loop")
        asm.halt()
        program = asm.assemble()
    """

    def __init__(self, name: str = "program", base_pc: int = CODE_BASE) -> None:
        self.name = name
        self.base_pc = base_pc
        self._instructions: list[Instruction] = []
        self._sources: list[tuple[str, int] | None] = []
        self._labels: dict[str, int] = {}
        self._fixups: list[_Fixup] = []
        self._image: list[tuple[int, bytes]] = []
        self._data_cursor = DATA_BASE
        self._symbols: dict[str, int] = {}

    # -- labels and layout --------------------------------------------------

    def label(self, name: str) -> None:
        """Define ``name`` at the current instruction position."""
        if name in self._labels:
            raise AssemblerError(f"duplicate label {name!r}",
                                 source=_caller_site())
        self._labels[name] = len(self._instructions)

    def here(self) -> int:
        """Current instruction index (useful for computed targets)."""
        return len(self._instructions)

    def alloc(self, name: str, nbytes: int, align: int = 8) -> int:
        """Reserve ``nbytes`` of zero-initialized data space; returns the
        address and records it as symbol ``name``."""
        cursor = -(-self._data_cursor // align) * align
        self._symbols[name] = cursor
        self._data_cursor = cursor + nbytes
        return cursor

    def symbol(self, name: str) -> int:
        """Address of a previously :meth:`alloc`'d symbol."""
        return self._symbols[name]

    def data_bytes(self, addr: int, data: bytes) -> None:
        """Place raw bytes into the initial memory image, as one segment
        that overwrites whatever earlier segments put at those bytes."""
        self._image.append((addr, bytes(data)))

    def data_words(self, addr: int, values: list[int], size: int = 8) -> None:
        """Place little-endian integers of ``size`` bytes into the image."""
        mask = (1 << (8 * size)) - 1
        self.data_bytes(addr, b"".join(
            (to_unsigned(value) & mask).to_bytes(size, "little")
            for value in values))

    # -- low-level emit -------------------------------------------------------

    def _emit(self, inst: Instruction) -> None:
        self._instructions.append(inst)
        self._sources.append(_caller_site())

    # -- operate format -------------------------------------------------------

    def op(self, mnemonic: str, rd: str | int, ra: str | int,
           rb: str | int | None = None) -> None:
        """Emit an operate-format instruction ``rd = ra <op> rb``.

        ``rb`` may be a register name or an 8-bit literal (0..255), per
        the Alpha operate format.
        """
        opcode = Opcode(mnemonic)
        cls = op_class(opcode)
        if cls not in (OpClass.INT_ARITH, OpClass.INT_MULT,
                       OpClass.INT_LOGIC, OpClass.INT_SHIFT):
            raise AssemblerError("not an operate-format opcode",
                                 mnemonic=mnemonic, source=_caller_site())
        if opcode in (Opcode.LDA, Opcode.LDAH):
            raise AssemblerError("use lda()/li() for address arithmetic",
                                 mnemonic=mnemonic, source=_caller_site())
        if isinstance(rb, int):
            if not 0 <= rb <= _OPERATE_LITERAL_MAX:
                raise AssemblerError(
                    f"operate literal {rb} outside 0..255; build it with li()",
                    mnemonic=mnemonic, source=_caller_site())
            self._emit(Instruction(opcode, ra=reg_index(ra), rb=None,
                                   rd=reg_index(rd), imm=rb))
        else:
            if rb is None:
                raise AssemblerError("needs a second operand",
                                     mnemonic=mnemonic,
                                     source=_caller_site())
            self._emit(Instruction(opcode, ra=reg_index(ra),
                                   rb=reg_index(rb), rd=reg_index(rd)))

    def lda(self, rd: str | int, ra: str | int, disp: int,
            high: bool = False) -> None:
        """Emit ``lda rd, disp(ra)`` (or ``ldah`` when ``high``)."""
        if not _DISP_MIN <= disp <= _DISP_MAX:
            raise AssemblerError(f"displacement {disp} outside 16-bit range",
                                 mnemonic="ldah" if high else "lda",
                                 source=_caller_site())
        opcode = Opcode.LDAH if high else Opcode.LDA
        self._emit(Instruction(opcode, ra=reg_index(ra), rd=reg_index(rd),
                               imm=disp))

    # -- pseudo-instructions ---------------------------------------------------

    def li(self, rd: str | int, value: int) -> None:
        """Load an arbitrary constant, expanding to the shortest
        ``lda``/``ldah``/shift sequence, as an Alpha compiler would."""
        value = to_unsigned(value)
        signed = value - (1 << 64) if value >> 63 else value
        if _DISP_MIN <= signed <= _DISP_MAX:
            self.lda(rd, "zero", signed)
            return
        if -(1 << 47) <= signed < (1 << 47):
            # Up to 48 bits: build in 16-bit chunks with ldah/lda.  The
            # sign-carry between chunks can push the top chunk past the
            # signed 16-bit ldah range (e.g. 0x7FFF_8000_0000); those
            # rare values take the 64-bit path below instead.
            low = signed & 0xFFFF
            if low >= 0x8000:
                low -= 0x10000
            rest = (signed - low) >> 16
            mid = rest & 0xFFFF
            if mid >= 0x8000:
                mid -= 0x10000
            high = (rest - mid) >> 16
            if _DISP_MIN <= high <= _DISP_MAX:
                started = False
                if high:
                    self.lda(rd, "zero", high, high=True)
                    self.op("sll", rd, rd, 16)
                    started = True
                if mid or high:
                    self.lda(rd, rd if started else "zero", mid, high=True)
                    started = True
                self.lda(rd, rd if started else "zero", low)
                return
        # Full 64-bit constant: two 32-bit halves joined by a shift.
        if reg_index(rd) == reg_index("at"):
            raise AssemblerError("li of a 64-bit constant clobbers 'at'",
                                 mnemonic="li", source=_caller_site())
        self.li(rd, signed >> 32)
        self.op("sll", rd, rd, 32)
        self.li("at", value & 0xFFFF_FFFF)
        self.op("bis", rd, rd, "at")

    def mov(self, rd: str | int, rs: str | int) -> None:
        """Register move (``bis rd, rs, zero``)."""
        self._emit(Instruction(Opcode.BIS, ra=reg_index(rs), rb=ZERO_REG,
                               rd=reg_index(rd)))

    def clr(self, rd: str | int) -> None:
        """Clear a register (``bis rd, zero, zero``)."""
        self.mov(rd, "zero")

    def nop(self) -> None:
        self._emit(Instruction(Opcode.NOP))

    def halt(self) -> None:
        self._emit(Instruction(Opcode.HALT))

    # -- memory ------------------------------------------------------------------

    def load(self, mnemonic: str, rd: str | int, base: str | int,
             disp: int = 0) -> None:
        """Emit a load ``rd = mem[base + disp]``."""
        opcode = Opcode(mnemonic)
        if op_class(opcode) is not OpClass.LOAD:
            raise AssemblerError("not a load", mnemonic=mnemonic,
                                 source=_caller_site())
        self._check_disp(disp, mnemonic)
        self._emit(Instruction(opcode, rb=reg_index(base), rd=reg_index(rd),
                               imm=disp))

    def store(self, mnemonic: str, rs: str | int, base: str | int,
              disp: int = 0) -> None:
        """Emit a store ``mem[base + disp] = rs``."""
        opcode = Opcode(mnemonic)
        if op_class(opcode) is not OpClass.STORE:
            raise AssemblerError("not a store", mnemonic=mnemonic,
                                 source=_caller_site())
        self._check_disp(disp, mnemonic)
        self._emit(Instruction(opcode, ra=reg_index(rs), rb=reg_index(base),
                               imm=disp))

    def _check_disp(self, disp: int, mnemonic: str) -> None:
        if not _DISP_MIN <= disp <= _DISP_MAX:
            raise AssemblerError(f"displacement {disp} outside 16-bit range",
                                 mnemonic=mnemonic, source=_caller_site())

    # -- control flow ----------------------------------------------------------------

    def br(self, mnemonic: str, *args: str) -> None:
        """Emit a direct branch.

        ``br("bne", "t0", "loop")`` for conditional branches;
        ``br("br", "done")`` for the unconditional branch.
        """
        opcode = Opcode(mnemonic)
        if opcode in CONDITIONAL_BRANCHES and opcode is not Opcode.BR:
            if len(args) != 2:
                raise AssemblerError("needs (reg, label)",
                                     mnemonic=mnemonic,
                                     source=_caller_site())
            reg, target = args
            inst = Instruction(opcode, ra=reg_index(reg))
        elif opcode is Opcode.BR:
            if len(args) != 1:
                raise AssemblerError("needs (label,)", mnemonic="br",
                                     source=_caller_site())
            target = args[0]
            inst = Instruction(opcode)
        else:
            raise AssemblerError("not a direct branch", mnemonic=mnemonic,
                                 source=_caller_site())
        self._fixups.append(_Fixup(len(self._instructions), target,
                                   source=_caller_site()))
        self._emit(inst)

    def bsr(self, target: str, rd: str | int = "ra") -> None:
        """Call a label, saving the return address in ``rd``."""
        self._fixups.append(_Fixup(len(self._instructions), target,
                                   source=_caller_site()))
        self._emit(Instruction(Opcode.BSR, rd=reg_index(rd)))

    def jmp(self, rb: str | int) -> None:
        """Indirect jump to the address in ``rb``."""
        self._emit(Instruction(Opcode.JMP, rb=reg_index(rb)))

    def jsr(self, rb: str | int, rd: str | int = "ra") -> None:
        """Indirect call to the address in ``rb``."""
        self._emit(Instruction(Opcode.JSR, rb=reg_index(rb),
                               rd=reg_index(rd)))

    def ret(self, rb: str | int = "ra") -> None:
        """Return through ``rb`` (predicted by the return-address stack)."""
        self._emit(Instruction(Opcode.RET, rb=reg_index(rb)))

    # -- assembly ----------------------------------------------------------------------

    def assemble(self) -> Program:
        """Resolve labels and produce the final :class:`Program`."""
        instructions = list(self._instructions)
        for fixup in self._fixups:
            if fixup.label not in self._labels:
                mnemonic = instructions[fixup.index].opcode.value
                raise AssemblerError(f"undefined label {fixup.label!r}",
                                     mnemonic=mnemonic,
                                     source=fixup.source)
            old = instructions[fixup.index]
            instructions[fixup.index] = Instruction(
                old.opcode, ra=old.ra, rb=old.rb, rd=old.rd, imm=old.imm,
                target=self._labels[fixup.label])
        return Program(instructions=instructions, base_pc=self.base_pc,
                       image=tuple(self._image), name=self.name,
                       srcmap=list(self._sources))


def standard_prologue(asm: Assembler) -> None:
    """Set up the conventional stack pointer (shared by all workloads)."""
    asm.li("sp", STACK_TOP)
