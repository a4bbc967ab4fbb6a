"""Program linter: structural checks over assembled workloads.

The assembler already rejects malformed *syntax* (bad literals,
undefined labels) at build time; this linter checks the assembled
:class:`~repro.isa.instruction.Program` for the mistakes that survive
assembly and silently distort simulation results:

* **L001 bad-target** — a branch target outside the program (the fetch
  unit turns it into a HALT, which is almost never what was meant);
* **L002 zero-write** — an instruction computes a result into R31,
  i.e. does work the register file discards;
* **L003 unreachable** — a basic block no CFG path from the entry
  reaches (dead code inflates the static footprint and often marks a
  wiring mistake in branch structure);
* **L004 undefined-read** — a register read by reachable code but
  written by none of it (reads architectural zero: legal, but usually
  a forgotten initialization);
* **L005 indirect** — a ``jmp``/``jsr`` whose target set is statically
  unresolvable, so every analysis downstream of the CFG is maximally
  conservative (informational);
* **L006 dead-write** — a register write no CFG path reads before the
  next write of the same register (from the backward liveness fixpoint,
  :mod:`repro.analysis.liveness`; the CFG over-approximates indirect
  flow, so every finding is a provably dead write, never a maybe);
* **L007 dead-store** — a store whose byte range (from the interval
  fixpoint) is provably disjoint from every reachable load's byte
  range: the stored bytes can never be observed by the program.

Diagnostics carry the emitting ``file:line`` when the program has an
assembler source map, so a finding points at the workload-builder
statement rather than a bare instruction index.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.dataflow import WidthAnalysis, analyze
from repro.analysis.effects import EffectsAnalysis
from repro.isa.instruction import Program
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import REG_INDEX, REG_NAMES, ZERO_REG

#: Registers conventionally live-in despite never being written inside
#: a block of interest: none — every workload runs from a zeroed file
#: and must set up its own state (standard_prologue writes sp).
_RESULT_CLASSES = (OpClass.INT_ARITH, OpClass.INT_MULT,
                   OpClass.INT_LOGIC, OpClass.INT_SHIFT, OpClass.LOAD)

#: Registers conventionally live-*out* at every program point: the
#: stack pointer is established by the shared prologue as ABI
#: convention whether or not the kernel touches the stack, so a "dead"
#: sp write is calling-convention setup, not a mistake — L006 skips it.
_ABI_LIVE = frozenset({REG_INDEX["sp"]})


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding, anchored to a static instruction."""

    code: str           # "L001".."L007"
    severity: str       # "error" | "warning" | "info"
    index: int          # static instruction index (-1: whole program)
    message: str
    location: str | None = None     # "file:line" when the srcmap knows

    def __str__(self) -> str:
        where = self.location or f"inst#{self.index}"
        return f"{where}: {self.severity} {self.code}: {self.message}"


def _location(program: Program, index: int) -> str | None:
    source = program.source_of(index)
    if source is None:
        return None
    path, line = source
    return f"{path}:{line}"


def lint_program(program: Program,
                 analysis: WidthAnalysis | None = None,
                 ) -> list[Diagnostic]:
    """Lint ``program``; reuses ``analysis`` when the caller already ran
    it (the CLI does, to render the width summary and lint from one
    fixpoint)."""
    analysis = analysis or analyze(program)
    effects = EffectsAnalysis(program, width=analysis).run()
    cfg = analysis.cfg
    n = len(program)
    out: list[Diagnostic] = []

    def emit(code: str, severity: str, index: int, message: str) -> None:
        out.append(Diagnostic(code=code, severity=severity, index=index,
                              message=message,
                              location=_location(program, index)))

    for i, inst in enumerate(program.instructions):
        if inst.target is not None and not 0 <= inst.target < n:
            emit("L001", "error", i,
                 f"{inst}: branch target {inst.target} is outside the "
                 f"program (0..{n - 1})")
        if (inst.rd == ZERO_REG and inst.op_class in _RESULT_CLASSES):
            emit("L002", "warning", i,
                 f"{inst}: result is written to the zero register "
                 f"and discarded")

    for block in sorted(cfg.blocks.values(), key=lambda b: b.start):
        if block.start not in cfg.reachable:
            emit("L003", "warning", block.start,
                 f"unreachable block: instructions "
                 f"{block.start}..{block.end - 1}")

    never_written = analysis.read_regs - analysis.written_regs
    for reg in sorted(never_written):
        if reg == ZERO_REG:
            continue
        # Anchor the diagnostic at the first reachable read.
        index = next(
            (i for i, inst in enumerate(program.instructions)
             if i in cfg.reachable and reg in inst.src_regs()), -1)
        emit("L004", "warning", index,
             f"register {REG_NAMES[reg]} is read but never written "
             f"(reads architectural zero)")

    for index in cfg.unresolved:
        inst = program.instructions[index]
        emit("L005", "info", index,
             f"{inst}: indirect target is statically unresolvable; "
             f"analysis treats every block as a possible successor")

    for index in effects.liveness.dead_writes():
        inst = program.instructions[index]
        dest = inst.dest_reg()
        if dest in _ABI_LIVE:
            continue
        emit("L006", "warning", index,
             f"{inst}: write to {REG_NAMES[dest]} is dead — every CFG "
             f"path rewrites the register (or halts) before reading it")

    # Stores in an exit block (terminated by HALT) are the program's
    # result emission — observable output by convention, exempt even
    # though no instruction loads them back.
    output_stores = {
        store.index
        for block in cfg.reachable_blocks()
        if program.instructions[block.end - 1].opcode is Opcode.HALT
        for store in effects.effects[block.start].stores}
    for store in effects.store_ranges:
        if store.index in output_stores:
            continue
        if any(store.overlaps(load) for load in effects.load_ranges):
            continue
        inst = program.instructions[store.index]
        where = ("anywhere" if store.unbounded
                 else f"[{store.lo:#x}, {store.hi:#x}]")
        emit("L007", "warning", store.index,
             f"{inst}: stored bytes {where} are provably never loaded "
             f"by reachable code")

    return out


def max_severity(diagnostics: list[Diagnostic]) -> str | None:
    """Worst severity present (``error`` > ``warning`` > ``info``)."""
    order = {"error": 2, "warning": 1, "info": 0}
    if not diagnostics:
        return None
    return max(diagnostics, key=lambda d: order[d.severity]).severity
