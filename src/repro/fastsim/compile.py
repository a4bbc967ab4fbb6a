"""Static-program precompilation for the fast backend.

The reference machine re-derives per-instruction facts (op class,
source/destination registers, immediates, memory size, packability …)
from :class:`~repro.isa.instruction.Instruction` objects on every
dynamic instance.  :func:`compile_program` derives them once per
*static* instruction into flat parallel lists indexed by instruction
index, so the hot loop does integer list lookups only.

Row ``n`` (one past the last instruction) is a synthetic HALT: the feed
models wrong-path fetches off the program end as HALT instructions, so
any out-of-range index clamps to that row for table lookups while the
raw index still drives PCs and fetch-break checks.
"""

from __future__ import annotations

from repro.fastsim.capture import CLASS_CODE, OPCODE_CODE
from repro.isa.instruction import Instruction, Program
from repro.isa.opcodes import (
    CONDITIONAL_BRANCHES,
    MEM_SIZE,
    PACKABLE_CLASSES,
    Opcode,
    OpClass,
)
from repro.isa.registers import ZERO_REG
from repro.isa.semantics import BRANCH_FNS, COMPUTE_FNS, to_unsigned
from repro.bitwidth.tags import TAG_NARROW16, tag_code_of_value
from repro.packing.pack import REPLAY_OPS

# Execution kinds dispatched on in the fast feed.
K_OPERATE = 0
K_LOAD = 1
K_STORE = 2
K_COND = 3     # conditional branch
K_BR = 4
K_BSR = 5
K_JMP = 6
K_JSR = 7
K_RET = 8
K_NOP = 9
K_HALT = 10

# What commit does beyond counting a retirement (``CompiledProgram.retire``).
R_PLAIN = 0
R_LOAD = 1     # frees an LSQ slot
R_STORE = 2    # frees an LSQ slot and writes the D-side
R_HALT = 3     # ends the run

_KIND_OF_OPCODE = {
    Opcode.BR: K_BR, Opcode.BSR: K_BSR, Opcode.JMP: K_JMP,
    Opcode.JSR: K_JSR, Opcode.RET: K_RET, Opcode.NOP: K_NOP,
    Opcode.HALT: K_HALT,
}

_OPERATE_CLASSES = (OpClass.INT_ARITH, OpClass.INT_MULT,
                    OpClass.INT_LOGIC, OpClass.INT_SHIFT)


class CompiledProgram:
    """Flat per-instruction decode tables (see module docstring)."""

    __slots__ = (
        "n", "base_pc", "entry",
        "kind", "opc_code", "cls_code", "cls_value",
        "ra31", "rb31", "rd31", "rd_w", "has_rb", "imm_u", "imm_tag",
        "target",
        "nsrc", "src0", "src1", "src2", "fn", "bfn",
        "dest", "mem_size", "is_mem", "is_load", "is_store",
        "is_branch", "is_conditional", "needs_mult", "measured",
        "produces", "packable", "replay_op", "is_ldl",
        "retire", "frow", "drow", "irow",
    )

    def __init__(self, program: Program) -> None:
        insts = list(program.instructions)
        insts.append(Instruction(Opcode.HALT))   # out-of-range sentinel
        self.n = len(program.instructions)
        self.base_pc = program.base_pc
        self.entry = program.entry

        self.kind = []
        self.opc_code = []        # capture code
        self.cls_code = []        # capture code
        self.cls_value = []       # OpClass.value string (class mix keys)
        self.ra31 = []            # ra with None mapped to R31
        self.rb31 = []
        self.rd31 = []            # rd with None mapped to R31 (CMOV read)
        self.rd_w = []            # writeback target, -1 for None/R31
        self.has_rb = []          # rb present (register second operand)
        self.imm_u = []           # unsigned immediate (0 when absent)
        self.imm_tag = []         # width-tag code of the immediate operand
        self.target = []          # branch-target index (fall-through if None)
        self.nsrc = []            # len(src_regs()), for the hot loop
        self.src0 = []            # srcs[0] (0 when absent)
        self.src1 = []            # srcs[1] (0 when absent)
        self.src2 = []            # srcs[2] (CMOV dest read; 0 when absent)
        self.fn = []              # COMPUTE_FNS entry (None for non-operate)
        self.bfn = []             # BRANCH_FNS entry (None for non-cond)
        self.dest = []            # dest_reg(), -1 for None
        self.mem_size = []
        self.is_mem = []
        self.is_load = []
        self.is_store = []
        self.is_branch = []
        self.is_conditional = []
        self.needs_mult = []
        self.measured = []        # sampled by the instruments at issue
        self.produces = []        # writes a result (static per opcode)
        self.packable = []        # class eligible for full packing
        self.replay_op = []       # opcode eligible for replay packing
        self.is_ldl = []          # LDL sign-extends its loaded word
        self.retire = []          # R_* commit action

        from repro.stats.widths import WIDTH_TRACKED_CLASSES

        for index, inst in enumerate(insts):
            op = inst.opcode
            cls = inst.op_class
            if cls in _OPERATE_CLASSES:
                kind = K_OPERATE
            elif cls is OpClass.LOAD:
                kind = K_LOAD
            elif cls is OpClass.STORE:
                kind = K_STORE
            elif inst.is_conditional:
                kind = K_COND
            else:
                kind = _KIND_OF_OPCODE[op]
            self.kind.append(kind)
            self.opc_code.append(OPCODE_CODE[op])
            self.cls_code.append(CLASS_CODE[cls])
            self.cls_value.append(cls.value)
            self.ra31.append(inst.ra if inst.ra is not None else ZERO_REG)
            self.rb31.append(inst.rb if inst.rb is not None else ZERO_REG)
            self.rd31.append(inst.rd if inst.rd is not None else ZERO_REG)
            dest = inst.dest_reg()
            self.rd_w.append(dest if dest is not None else -1)
            self.has_rb.append(inst.rb is not None)
            imm_u = to_unsigned(inst.imm) if inst.imm is not None else 0
            self.imm_u.append(imm_u)
            self.imm_tag.append(tag_code_of_value(imm_u) if imm_u
                                else TAG_NARROW16)
            self.target.append(inst.target if inst.target is not None
                               else index + 1)
            srcs = inst.src_regs()
            self.nsrc.append(len(srcs))
            self.src0.append(srcs[0] if srcs else 0)
            self.src1.append(srcs[1] if len(srcs) > 1 else 0)
            self.src2.append(srcs[2] if len(srcs) > 2 else 0)
            self.fn.append(COMPUTE_FNS.get(op))
            self.bfn.append(BRANCH_FNS.get(op))
            self.dest.append(dest if dest is not None else -1)
            self.mem_size.append(MEM_SIZE.get(op, 0))
            self.is_mem.append(inst.is_mem)
            self.is_load.append(inst.is_load)
            self.is_store.append(inst.is_store)
            self.is_branch.append(inst.is_branch)
            self.is_conditional.append(op in CONDITIONAL_BRANCHES)
            self.needs_mult.append(cls is OpClass.INT_MULT)
            self.measured.append(cls in WIDTH_TRACKED_CLASSES
                                 or cls is OpClass.JUMP)
            self.produces.append(
                kind in (K_OPERATE, K_LOAD) or op in (Opcode.BSR, Opcode.JSR))
            self.packable.append(cls in PACKABLE_CLASSES)
            self.replay_op.append(op in REPLAY_OPS)
            self.is_ldl.append(op is Opcode.LDL)
            self.retire.append(R_LOAD if inst.is_load else
                               R_STORE if inst.is_store else
                               R_HALT if kind == K_HALT else R_PLAIN)

        # Per-stage fused rows: every column a pipeline stage reads for
        # one instruction, bundled into a single tuple, so the hot loop
        # pays one list subscript + one tuple unpack instead of one
        # subscript per column.
        self.frow = []   # fetch operands (shape depends on kind)
        self.drow = []   # dispatch: deps, queues, producer bookkeeping
        self.irow = []   # issue: execute, capture and packing facts
        for i in range(len(insts)):
            kind = self.kind[i]
            if kind == K_OPERATE:
                frow = (self.ra31[i], self.has_rb[i], self.rb31[i],
                        self.imm_u[i], self.imm_tag[i], self.fn[i],
                        self.rd31[i], self.rd_w[i])
            elif kind == K_LOAD:
                frow = (self.rb31[i], self.imm_u[i], self.imm_tag[i],
                        self.mem_size[i], self.is_ldl[i], self.rd_w[i])
            elif kind == K_STORE:
                frow = (self.rb31[i], self.imm_u[i], self.imm_tag[i],
                        self.ra31[i], self.mem_size[i])
            elif kind == K_COND:
                frow = (self.ra31[i], self.has_rb[i], self.rb31[i],
                        self.imm_u[i], self.imm_tag[i], self.bfn[i],
                        self.target[i])
            else:
                frow = None          # rare kinds keep per-column reads
            self.frow.append(frow)
            self.drow.append((self.kind[i], self.is_mem[i],
                              self.is_load[i], self.is_store[i],
                              self.dest[i], self.nsrc[i], self.src0[i],
                              self.src1[i], self.src2[i],
                              self.mem_size[i]))
            self.irow.append((self.needs_mult[i], self.is_load[i],
                              self.measured[i], self.cls_code[i],
                              self.opc_code[i], self.packable[i],
                              self.replay_op[i]))


def compile_program(program: Program) -> CompiledProgram:
    return CompiledProgram(program)
