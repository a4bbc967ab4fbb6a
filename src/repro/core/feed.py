"""The dynamic-instruction feed: in-order functional execution.

SimpleScalar's ``sim-outorder`` executes instructions *functionally* at
dispatch, in fetch order — including down mispredicted paths — while a
separate timing model moves the resulting dynamic instructions through
the pipeline.  This module is that functional half.

The feed owns the (speculative) register file, data memory, branch
predictor, BTB, and return-address stack.  Each call to :meth:`Feed.next`
fetches, predicts, and functionally executes one instruction, producing
a fully resolved :class:`DynInst` (operand values, width tags, result,
actual and predicted successor).  When a prediction is wrong the feed
checkpoints architected state and continues down the *predicted* path in
speculative mode; :meth:`Feed.recover` rewinds to the checkpoint when
the timing model resolves the branch.

This organization gives the paper's mechanisms exactly the information
the proposed hardware has: operand values (hence width tags) become
known as results are produced, and wrong-path operations are observed
just as a real front end would observe them (Section 2.3 / Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bitwidth.tags import UNKNOWN_TAG, ZERO_TAG, WidthTag, tag_value
from repro.branch.btb import BranchTargetBuffer, ReturnAddressStack
from repro.branch.predictors import DirectionPredictor, PerfectPredictor, make_predictor
from repro.core.config import MachineConfig
from repro.isa.instruction import Instruction, Program
from repro.isa.opcodes import Opcode, OpClass
from repro.isa.registers import NUM_INT_REGS, ZERO_REG
from repro.isa.semantics import branch_taken, compute, sext, to_unsigned
from repro.memory.backing import MainMemory, SpeculativeMemory


@dataclass(slots=True)
class DynInst:
    """One dynamic instruction, fully resolved by functional execution."""

    seq: int
    index: int                 # static instruction index
    pc: int                    # simulated byte address
    inst: Instruction
    op_class: OpClass

    # ALU operand pair (the values whose widths the paper studies; for
    # memory operations this is the address calculation base+disp).
    a_val: int = 0
    b_val: int = 0
    tag_a: WidthTag = ZERO_TAG
    tag_b: WidthTag = ZERO_TAG
    operand_from_load: bool = False

    result: int | None = None   # value written to the destination
    mem_addr: int | None = None
    store_value: int | None = None

    # control flow
    taken: bool = False
    actual_next: int = 0        # correct successor index
    next_index: int = 0         # index the feed actually moved to
    mispredicted: bool = False  # first wrong prediction on the good path
    spec: bool = False          # executed on the wrong path

    # set by the timing model: cycle this instruction arrived from the
    # I-cache (dispatch may begin the following cycle).
    fetch_cycle: int = -1

    @property
    def pair_narrow16(self) -> bool:
        """Both ALU operands <= 16 bits (packing/gating precondition)."""
        return self.tag_a.narrow16 and self.tag_b.narrow16


class _Checkpoint:
    """Architected state saved when the feed goes speculative."""

    __slots__ = ("regs", "tags", "from_load", "resume_index", "branch_seq")

    def __init__(self, regs: list[int], tags: list[WidthTag],
                 from_load: list[bool], resume_index: int,
                 branch_seq: int) -> None:
        self.regs = regs
        self.tags = tags
        self.from_load = from_load
        self.resume_index = resume_index
        self.branch_seq = branch_seq


class Feed:
    """In-order functional executor with wrong-path speculation."""

    def __init__(self, program: Program, config: MachineConfig,
                 predictor: DirectionPredictor | None = None) -> None:
        self.program = program
        self.config = config
        self.memory = MainMemory(program.image)
        self.spec_memory = SpeculativeMemory(self.memory)
        self.predictor = predictor or make_predictor(config.predictor)
        self.perfect = isinstance(self.predictor, PerfectPredictor)
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_assoc)
        self.ras = ReturnAddressStack(config.ras_entries)

        self._regs = [0] * NUM_INT_REGS
        self._tags = [ZERO_TAG] * NUM_INT_REGS
        self._from_load = [False] * NUM_INT_REGS

        self.fetch_index = program.entry
        self.seq = 0
        self.spec_mode = False
        self.halted = False
        #: warmup mode (Section 3.2 methodology): train predictors and
        #: caches but always follow the correct path, never speculate.
        self.fast_mode = False
        self._checkpoint: _Checkpoint | None = None

    # -- register helpers ------------------------------------------------------

    def _read(self, reg: int) -> int:
        return 0 if reg == ZERO_REG else self._regs[reg]

    def _reg_tag(self, reg: int) -> WidthTag:
        return ZERO_TAG if reg == ZERO_REG else self._tags[reg]

    def _write(self, reg: int | None, value: int,
               from_load: bool = False) -> None:
        if reg is None or reg == ZERO_REG:
            return
        self._regs[reg] = value
        self._from_load[reg] = from_load
        if from_load and not self.config.gating.detect_loads:
            # No cache-side zero detect: the hardware learns nothing
            # about this value's width (Section 4.2).
            self._tags[reg] = UNKNOWN_TAG
        else:
            self._tags[reg] = tag_value(value)

    # -- memory helpers -----------------------------------------------------------

    def _mem(self) -> MainMemory | SpeculativeMemory:
        return self.spec_memory if self.spec_mode else self.memory

    def _load_value(self, op: Opcode, addr: int, size: int) -> int:
        raw = self._mem().load(addr, size)
        if op is Opcode.LDL:
            return sext(raw, 32)
        return raw

    # -- the main step ---------------------------------------------------------------

    def next(self) -> DynInst | None:
        """Fetch, predict, and functionally execute one instruction.

        Returns None when the feed cannot supply more instructions: the
        program has halted, or the wrong path ran off the program (the
        timing model's recovery will restart it).
        """
        if self.halted:
            return None
        inst = self.program.fetch(self.fetch_index)
        if inst.opcode is Opcode.HALT and self.spec_mode:
            # Wrong path fell off the program; stall until recovery.
            return None

        dyn = DynInst(
            seq=self.seq,
            index=self.fetch_index,
            pc=self.program.pc_of(self.fetch_index),
            inst=inst,
            op_class=inst.op_class,
            spec=self.spec_mode,
        )
        self.seq += 1
        self._execute(dyn)
        self.fetch_index = dyn.next_index
        if inst.opcode is Opcode.HALT and not self.spec_mode:
            self.halted = True
        return dyn

    # -- functional execution --------------------------------------------------------

    def _execute(self, dyn: DynInst) -> None:
        inst = dyn.inst
        op = inst.opcode
        cls = dyn.op_class
        fall_through = dyn.index + 1

        if cls in (OpClass.INT_ARITH, OpClass.INT_MULT,
                   OpClass.INT_LOGIC, OpClass.INT_SHIFT):
            self._execute_operate(dyn)
            dyn.actual_next = dyn.next_index = fall_through
        elif cls is OpClass.LOAD:
            self._execute_load(dyn)
            dyn.actual_next = dyn.next_index = fall_through
        elif cls is OpClass.STORE:
            self._execute_store(dyn)
            dyn.actual_next = dyn.next_index = fall_through
        elif cls is OpClass.BRANCH or cls is OpClass.JUMP:
            self._execute_control(dyn)
        else:  # NOP / HALT
            dyn.actual_next = dyn.next_index = fall_through

    def _operands(self, dyn: DynInst) -> tuple[int, int]:
        """Resolve the ALU operand pair and record tags/provenance."""
        inst = dyn.inst
        a = self._read(inst.ra) if inst.ra is not None else 0
        tag_a = self._reg_tag(inst.ra) if inst.ra is not None else ZERO_TAG
        from_load = (inst.ra is not None and inst.ra != ZERO_REG
                     and self._from_load[inst.ra])
        if inst.rb is not None:
            b = self._read(inst.rb)
            tag_b = self._reg_tag(inst.rb)
            from_load = from_load or (inst.rb != ZERO_REG
                                      and self._from_load[inst.rb])
        elif inst.imm is not None:
            b = to_unsigned(inst.imm)
            tag_b = tag_value(b)
        else:
            b, tag_b = 0, ZERO_TAG
        dyn.a_val, dyn.b_val = a, b
        dyn.tag_a, dyn.tag_b = tag_a, tag_b
        dyn.operand_from_load = from_load
        return a, b

    def _execute_operate(self, dyn: DynInst) -> None:
        inst = dyn.inst
        a, b = self._operands(dyn)
        old_dest = self._read(inst.rd) if inst.rd is not None else 0
        dyn.result = compute(inst.opcode, a, b, old_dest)
        self._write(inst.rd, dyn.result)

    def _mem_operands(self, dyn: DynInst) -> int:
        """Resolve a memory instruction's *address calculation* operand
        pair (base register + displacement) — the values whose widths
        the paper's Figures 1/5 attribute to address arithmetic — and
        return the effective address."""
        inst = dyn.inst
        base = self._read(inst.rb) if inst.rb is not None else 0
        disp = to_unsigned(inst.imm) if inst.imm is not None else 0
        dyn.a_val, dyn.b_val = base, disp
        dyn.tag_a = self._reg_tag(inst.rb) if inst.rb is not None else ZERO_TAG
        dyn.tag_b = tag_value(disp)
        dyn.operand_from_load = (inst.rb is not None
                                 and inst.rb != ZERO_REG
                                 and self._from_load[inst.rb])
        return (base + disp) & 0xFFFF_FFFF_FFFF_FFFF

    def _execute_load(self, dyn: DynInst) -> None:
        inst = dyn.inst
        addr = self._mem_operands(dyn)
        dyn.mem_addr = addr
        dyn.result = self._load_value(inst.opcode, addr, inst.mem_size)
        self._write(inst.rd, dyn.result, from_load=True)

    def _execute_store(self, dyn: DynInst) -> None:
        inst = dyn.inst
        addr = self._mem_operands(dyn)
        dyn.mem_addr = addr
        dyn.store_value = self._read(inst.ra) if inst.ra is not None else 0
        self._mem().store(addr, dyn.store_value, inst.mem_size)

    # -- control flow --------------------------------------------------------------------

    def _execute_control(self, dyn: DynInst) -> None:
        inst = dyn.inst
        op = inst.opcode
        fall_through = dyn.index + 1
        return_pc = self.program.pc_of(fall_through)

        if inst.is_conditional:
            a, _ = self._operands(dyn)
            dyn.taken = branch_taken(op, a)
            dyn.actual_next = inst.target if dyn.taken else fall_through
            if self.spec_mode:
                # Wrong-path branch: consult but never train the
                # predictor (it would never retire in real hardware).
                predicted_taken = self.predictor.lookup(dyn.pc)
            else:
                predicted_taken = self.predictor.predict(dyn.pc, dyn.taken)
                self.predictor.update(dyn.pc, dyn.taken)
            predicted_next = inst.target if predicted_taken else fall_through
        elif op is Opcode.BR or op is Opcode.BSR:
            dyn.taken = True
            dyn.actual_next = inst.target if inst.target is not None else fall_through
            predicted_next = dyn.actual_next   # direct target, known at decode
            if op is Opcode.BSR:
                dyn.result = return_pc
                self._write(inst.rd, return_pc)
                if not self.spec_mode:
                    self.ras.push(return_pc)
        else:
            # Indirect control: JMP / JSR / RET.
            target_pc = self._read(inst.rb) if inst.rb is not None else 0
            dyn.a_val = target_pc
            dyn.tag_a = self._reg_tag(inst.rb) if inst.rb is not None else ZERO_TAG
            dyn.taken = True
            dyn.actual_next = self.program.index_of(target_pc)
            predicted_next = self._predict_indirect(dyn, op, target_pc,
                                                    return_pc)
            if op is Opcode.JSR:
                dyn.result = return_pc
                self._write(inst.rd, return_pc)

        if self.perfect:
            predicted_next = dyn.actual_next

        if self.fast_mode:
            # Warmup: train, record the would-be outcome, follow truth.
            dyn.mispredicted = predicted_next != dyn.actual_next
            dyn.next_index = dyn.actual_next
            return

        if self.spec_mode:
            # Already on the wrong path: follow the prediction; deeper
            # mispredictions are irrelevant (everything will squash).
            dyn.next_index = predicted_next
            return

        if predicted_next != dyn.actual_next:
            dyn.mispredicted = True
            self._go_speculative(dyn)
            dyn.next_index = predicted_next
        else:
            dyn.next_index = dyn.actual_next

    def _predict_indirect(self, dyn: DynInst, op: Opcode, target_pc: int,
                          return_pc: int) -> int:
        """Predict an indirect target via RAS (returns) or BTB (jumps)."""
        if op is Opcode.RET:
            predicted_pc = self.ras.pop() if not self.spec_mode else None
        else:
            predicted_pc = self.btb.lookup(dyn.pc)
            if op is Opcode.JSR and not self.spec_mode:
                self.ras.push(return_pc)
        if not self.spec_mode:
            self.btb.update(dyn.pc, target_pc)
        if predicted_pc is None:
            return dyn.index + 1    # no prediction: stumble to fall-through
        return self.program.index_of(predicted_pc)

    # -- speculation control -------------------------------------------------------------

    def _go_speculative(self, dyn: DynInst) -> None:
        """Checkpoint architected state at a mispredicted branch."""
        self._checkpoint = _Checkpoint(
            regs=list(self._regs),
            tags=list(self._tags),
            from_load=list(self._from_load),
            resume_index=dyn.actual_next,
            branch_seq=dyn.seq,
        )
        self.spec_mode = True

    def recover(self) -> None:
        """Rewind to the checkpoint (called when the timing model
        resolves the mispredicted branch and squashes the wrong path)."""
        cp = self._checkpoint
        if cp is None:
            raise RuntimeError("recover() without an active checkpoint")
        self._regs = cp.regs
        self._tags = cp.tags
        self._from_load = cp.from_load
        self.fetch_index = cp.resume_index
        self.spec_memory.discard()
        self.spec_mode = False
        self._checkpoint = None

    # -- architected state access (for tests and workload verification) ---------------

    def reg(self, index: int) -> int:
        """Architected value of register ``index`` (test helper)."""
        return self._read(index)
