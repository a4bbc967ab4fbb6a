"""Unit and property tests for the structured assembler."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.asm.assembler import Assembler, AssemblerError, standard_prologue
from repro.asm.layout import CODE_BASE, DATA_BASE, STACK_TOP
from repro.core.config import BASELINE
from repro.core.feed import Feed
from repro.isa.opcodes import Opcode
from repro.isa.registers import reg_index
from repro.isa.semantics import MASK64, to_unsigned
from repro.memory.backing import MainMemory


def run_functionally(asm: Assembler, max_steps: int = 10000) -> Feed:
    """Assemble and execute to completion on the functional feed."""
    asm.halt()
    feed = Feed(asm.assemble(), BASELINE)
    feed.fast_mode = True
    for _ in range(max_steps):
        if feed.next() is None:
            break
    assert feed.halted, "program did not halt"
    return feed


class TestEmit:
    def test_operate_with_registers(self):
        asm = Assembler()
        asm.op("addq", "t0", "t1", "t2")
        inst = asm.assemble().instructions[0]
        assert inst.opcode is Opcode.ADDQ
        assert inst.rd == reg_index("t0")
        assert inst.ra == reg_index("t1")
        assert inst.rb == reg_index("t2")

    def test_operate_with_literal(self):
        asm = Assembler()
        asm.op("subq", "t0", "t0", 255)
        inst = asm.assemble().instructions[0]
        assert inst.rb is None
        assert inst.imm == 255

    def test_literal_range_enforced(self):
        # Alpha operate literals are 8-bit unsigned.
        asm = Assembler()
        with pytest.raises(AssemblerError):
            asm.op("addq", "t0", "t0", 256)
        with pytest.raises(AssemblerError):
            asm.op("addq", "t0", "t0", -1)

    def test_displacement_range_enforced(self):
        asm = Assembler()
        with pytest.raises(AssemblerError):
            asm.load("ldq", "t0", "sp", 40000)
        with pytest.raises(AssemblerError):
            asm.lda("t0", "zero", -40000)

    def test_op_rejects_memory_mnemonics(self):
        asm = Assembler()
        with pytest.raises(AssemblerError):
            asm.op("ldq", "t0", "t1", "t2")

    def test_load_rejects_store_mnemonics(self):
        asm = Assembler()
        with pytest.raises(AssemblerError):
            asm.load("stq", "t0", "sp", 0)

    def test_branch_needs_register_and_label(self):
        asm = Assembler()
        with pytest.raises(AssemblerError):
            asm.br("bne", "loop")


class TestLabels:
    def test_forward_reference(self):
        asm = Assembler()
        asm.br("br", "end")
        asm.nop()
        asm.label("end")
        asm.nop()
        program = asm.assemble()
        assert program.instructions[0].target == 2

    def test_backward_reference(self):
        asm = Assembler()
        asm.label("top")
        asm.nop()
        asm.br("br", "top")
        program = asm.assemble()
        assert program.instructions[1].target == 0

    def test_undefined_label(self):
        asm = Assembler()
        asm.br("br", "nowhere")
        with pytest.raises(AssemblerError):
            asm.assemble()

    def test_duplicate_label(self):
        asm = Assembler()
        asm.label("x")
        with pytest.raises(AssemblerError):
            asm.label("x")


class TestDataSection:
    def test_alloc_above_4gb(self):
        # Figure 1's 33-bit jump depends on data living above 4 GB.
        asm = Assembler()
        addr = asm.alloc("buf", 64)
        assert addr >= DATA_BASE
        assert addr >= 2**32

    def test_alloc_alignment(self):
        asm = Assembler()
        asm.alloc("a", 3)
        b = asm.alloc("b", 8, align=16)
        assert b % 16 == 0

    def test_alloc_no_overlap(self):
        asm = Assembler()
        a = asm.alloc("a", 100)
        b = asm.alloc("b", 100)
        assert b >= a + 100

    def test_symbol_lookup(self):
        asm = Assembler()
        addr = asm.alloc("table", 8)
        assert asm.symbol("table") == addr

    def test_data_words_little_endian(self):
        asm = Assembler()
        addr = asm.alloc("w", 8)
        asm.data_words(addr, [0x0102030405060708])
        mem = MainMemory(asm.assemble().image)
        assert mem.load_byte(addr) == 0x08
        assert mem.load_byte(addr + 7) == 0x01

    def test_data_words_negative(self):
        asm = Assembler()
        addr = asm.alloc("w", 2)
        asm.data_words(addr, [-1], size=2)
        mem = MainMemory(asm.assemble().image)
        assert mem.load_byte(addr) == 0xFF
        assert mem.load_byte(addr + 1) == 0xFF
        assert mem.load_byte(addr + 2) == 0


class TestPseudoOps:
    def test_mov(self):
        asm = Assembler()
        asm.li("t1", 77)
        asm.mov("t2", "t1")
        feed = run_functionally(asm)
        assert feed.reg(reg_index("t2")) == 77

    def test_clr(self):
        asm = Assembler()
        asm.li("t1", 5)
        asm.clr("t1")
        feed = run_functionally(asm)
        assert feed.reg(reg_index("t1")) == 0

    def test_prologue_sets_stack(self):
        asm = Assembler()
        standard_prologue(asm)
        feed = run_functionally(asm)
        assert feed.reg(reg_index("sp")) == STACK_TOP


class TestLoadImmediate:
    """li must produce the exact constant through real instruction
    sequences (lda/ldah/shifts), for any 64-bit value."""

    def check(self, value: int) -> None:
        asm = Assembler()
        asm.li("s0", value)
        feed = run_functionally(asm)
        assert feed.reg(reg_index("s0")) == to_unsigned(value)

    def test_small(self):
        self.check(0)
        self.check(1)
        self.check(-1)
        self.check(32767)
        self.check(-32768)

    def test_medium(self):
        self.check(65536)
        self.check(0x12345678)
        self.check(-0x12345678)

    def test_addresses(self):
        self.check(DATA_BASE)
        self.check(STACK_TOP)
        self.check(CODE_BASE)

    def test_large(self):
        self.check(0x1122334455667788)
        self.check(MASK64)
        self.check(1 << 63)

    @given(st.integers(min_value=0, max_value=MASK64))
    def test_any_constant(self, value):
        self.check(value)

    def test_64bit_li_to_at_rejected(self):
        asm = Assembler()
        with pytest.raises(AssemblerError):
            asm.li("at", 0x1122334455667788)


class TestDiagnostics:
    """Assembler errors point at the emitting source line and name the
    offending mnemonic; programs carry a source map."""

    def test_error_carries_source_line_and_mnemonic(self):
        asm = Assembler()
        with pytest.raises(AssemblerError) as excinfo:
            asm.op("addq", "t0", "t0", 999)  # literal out of range
        err = excinfo.value
        assert err.mnemonic == "addq"
        assert err.source is not None
        path, line = err.source
        assert path.endswith("test_assembler.py")
        assert line > 0
        assert f"{path}:{line}: addq:" in str(err)

    def test_undefined_label_points_at_branch_site(self):
        asm = Assembler()
        asm.br("br", "nowhere")  # the offending emission
        with pytest.raises(AssemblerError) as excinfo:
            asm.assemble()
        err = excinfo.value
        assert err.mnemonic == "br"
        assert err.source is not None
        assert err.source[0].endswith("test_assembler.py")
        assert "nowhere" in str(err)

    def test_displacement_error_names_mnemonic(self):
        asm = Assembler()
        with pytest.raises(AssemblerError) as excinfo:
            asm.load("ldq", "t0", "sp", 40000)
        assert excinfo.value.mnemonic == "ldq"

    def test_program_source_map(self):
        asm = Assembler()
        asm.nop()
        asm.li("t0", 0x12345678)  # multi-instruction expansion
        program = asm.assemble()
        assert program.srcmap is not None
        assert len(program.srcmap) == len(program)
        source = program.source_of(0)
        assert source is not None and source[0].endswith(
            "test_assembler.py")
        # Every li()-expanded instruction maps back to the one builder
        # statement that asked for it.
        li_sites = {program.source_of(i) for i in range(1, len(program))}
        assert len(program) > 2 and len(li_sites) == 1


class TestProgramGeometry:
    def test_pc_mapping_roundtrip(self):
        asm = Assembler()
        for _ in range(10):
            asm.nop()
        program = asm.assemble()
        for i in range(10):
            assert program.index_of(program.pc_of(i)) == i

    def test_out_of_range_fetch_is_halt(self):
        asm = Assembler()
        asm.nop()
        program = asm.assemble()
        assert program.fetch(99).opcode is Opcode.HALT
        assert program.fetch(-5).opcode is Opcode.HALT
