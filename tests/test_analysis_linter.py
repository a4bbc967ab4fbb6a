"""Program linter: each rule fires on a crafted bad program and stays
quiet on the registered workloads (which must be lint-clean)."""

import pytest

from repro.analysis import lint_program
from repro.analysis.cli import main as lint_main
from repro.analysis.linter import max_severity
from repro.asm.assembler import Assembler
from repro.isa.instruction import Instruction, Program
from repro.isa.opcodes import Opcode
from repro.workloads.registry import all_workloads


def _codes(diagnostics):
    return {d.code for d in diagnostics}


def test_zero_register_write_flagged():
    asm = Assembler("t")
    asm.op("addq", "zero", "t0", 1)     # result discarded
    asm.halt()
    diags = lint_program(asm.assemble())
    assert "L002" in _codes(diags)
    assert max_severity(diags) == "warning"


def test_unreachable_block_flagged():
    asm = Assembler("t")
    asm.br("br", "end")
    asm.op("addq", "t0", "t0", 1)       # dead
    asm.label("end")
    asm.halt()
    diags = lint_program(asm.assemble())
    assert "L003" in _codes(diags)


def test_never_written_register_read_flagged():
    asm = Assembler("t")
    asm.op("addq", "t0", "s5", 1)       # s5 is never written
    asm.halt()
    diags = lint_program(asm.assemble())
    l004 = [d for d in diags if d.code == "L004"]
    assert l004 and "s5" in l004[0].message


def test_bad_branch_target_is_error():
    # Hand-built program: the assembler itself refuses bad labels, so
    # construct the out-of-range target directly.
    program = Program(instructions=[
        Instruction(Opcode.BR, target=99),
        Instruction(Opcode.HALT),
    ])
    diags = lint_program(program)
    assert "L001" in _codes(diags)
    assert max_severity(diags) == "error"


def test_indirect_jump_is_informational():
    asm = Assembler("t")
    asm.li("t0", 0x10000)
    asm.jmp("t0")
    asm.halt()
    diags = lint_program(asm.assemble())
    assert "L005" in _codes(diags)
    assert all(d.severity != "error" for d in diags if d.code == "L005")


def test_diagnostics_carry_source_locations():
    asm = Assembler("t")
    asm.op("addq", "zero", "t0", 1)
    asm.halt()
    diags = lint_program(asm.assemble())
    flagged = next(d for d in diags if d.code == "L002")
    assert flagged.location is not None
    path, line = flagged.location.rsplit(":", 1)
    assert path.endswith("test_analysis_linter.py")
    assert line.isdigit() and int(line) > 0


def test_registered_workloads_are_lint_clean():
    for workload in all_workloads():
        diags = lint_program(workload.build(1))
        worst = max_severity(diags)
        assert worst in (None, "info"), (
            f"{workload.name}: {[str(d) for d in diags]}")


def test_dead_register_write_flagged():
    # Seeded dead write: t0 is rewritten on every path before any read.
    asm = Assembler("t")
    asm.op("addq", "t0", "t1", 1)       # dead — overwritten below
    asm.op("addq", "t0", "t1", 2)
    asm.op("addq", "t2", "t0", 0)
    asm.halt()
    diags = lint_program(asm.assemble())
    l006 = [d for d in diags if d.code == "L006"]
    assert l006 and l006[0].index == 0
    assert "t0" in l006[0].message


def test_dead_write_not_flagged_when_read_on_one_path():
    # A read on *any* CFG path keeps the write live — no finding.
    asm = Assembler("t")
    asm.op("addq", "t0", "t1", 1)
    asm.br("beq", "t3", "skip")
    asm.op("addq", "t2", "t0", 0)       # reads t0 on the taken arm
    asm.label("skip")
    asm.op("addq", "t0", "t1", 2)
    asm.op("addq", "t4", "t0", 0)
    asm.halt()
    diags = lint_program(asm.assemble())
    assert not [d for d in diags if d.code == "L006" and d.index == 0]


def test_stack_pointer_write_exempt_from_dead_write():
    # standard_prologue's sp setup is ABI convention, not a mistake.
    from repro.asm.assembler import standard_prologue
    asm = Assembler("t")
    standard_prologue(asm)
    asm.op("addq", "t0", "t1", 1)
    asm.halt()
    diags = lint_program(asm.assemble())
    assert not [d for d in diags if d.code == "L006" and "sp" in d.message]


def test_store_never_loaded_flagged():
    # Mid-program store to a buffer nothing ever loads from.
    asm = Assembler("t")
    buf = asm.alloc("buf", 16)
    src = asm.alloc("src", 16)
    asm.li("s0", buf)
    asm.li("s1", src)
    asm.store("stq", "t0", "s0", 0)     # never loaded back
    asm.load("ldq", "t1", "s1", 0)      # loads from elsewhere
    asm.op("addq", "t2", "t1", 1)
    asm.br("bne", "t2", "tail")         # store is NOT in the exit block
    asm.label("tail")
    asm.halt()
    diags = lint_program(asm.assemble())
    l007 = [d for d in diags if d.code == "L007"]
    assert l007
    assert "never loaded" in l007[0].message


def test_exit_block_result_store_exempt_from_dead_store():
    # Stores in a HALT-terminated block are result emission.
    asm = Assembler("t")
    buf = asm.alloc("buf", 16)
    asm.li("s0", buf)
    asm.store("stq", "t0", "s0", 0)
    asm.halt()
    diags = lint_program(asm.assemble())
    assert not [d for d in diags if d.code == "L007"]


@pytest.mark.parametrize("argv,message", [
    (["--packing-report", "--max-insts", "0"], "--max-insts must be >= 1"),
    (["--packing-report", "--max-insts", "-3"], "--max-insts must be >= 1"),
    (["--scale", "0"], "--scale must be >= 1"),
], ids=["max-insts-0", "max-insts-negative", "scale-0"])
def test_empty_check_is_a_usage_error(argv, message, capsys):
    # A negative cap checks a few hundred instances yet prints the
    # "sound" verdict; a zero cap runs to HALT; scale 0 builds nothing.
    with pytest.raises(SystemExit) as excinfo:
        lint_main(["go"] + argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "sound" not in captured.out


def test_unknown_workload_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        lint_main(["go", "nope", "--summary"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "unknown workload(s): nope" in captured.err
    assert captured.out == ""      # go was not analyzed either
