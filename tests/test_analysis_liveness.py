"""Backward liveness fixpoint: hand-built CFG cases, soundness against
a dynamic def-use trace, and monotonicity — on random programs via
hypothesis.

The soundness property is the one every L006 verdict rests on: if the
fixpoint says a register is *not* live after a write, then no dynamic
execution reads that value before it is overwritten.  The dynamic side
is checked with the pure functional feed, which records every
register read/write in program order.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.liveness import LivenessAnalysis, analyze_liveness
from repro.asm.assembler import Assembler, standard_prologue
from repro.core.config import BASELINE
from repro.core.feed import Feed
from repro.isa.registers import REG_INDEX

_WORK_REGS = ("t0", "t1", "t2", "t3", "s1", "s2", "v0")
_OPERATES = ("addq", "subq", "and", "bis", "xor", "sll", "srl",
             "cmpeq", "cmplt", "mull")


# ------------------------------------------------------------- hand cases

def test_straight_line_use_defs():
    asm = Assembler("t")
    asm.op("addq", "t0", "t1", 1)      # reads t1, writes t0
    asm.op("addq", "t2", "t0", "t3")   # reads t0 (defined), t3
    asm.halt()
    use, defs = LivenessAnalysis.block_use_defs(asm.assemble(), 0, 2)
    assert REG_INDEX["t1"] in use and REG_INDEX["t3"] in use
    assert REG_INDEX["t0"] not in use          # defined before the read
    assert {REG_INDEX["t0"], REG_INDEX["t2"]} <= defs


def test_live_through_branch_join():
    # t0 is written before the diamond and read after it on one arm
    # only — it must be live-out of the entry block.
    asm = Assembler("t")
    asm.op("addq", "t0", "zero", 7)
    asm.br("beq", "t1", "skip")
    asm.op("addq", "t2", "t0", 1)      # reads t0 on the fall-through arm
    asm.label("skip")
    asm.halt()
    lv = analyze_liveness(asm.assemble())
    entry = lv.blocks[0]
    assert REG_INDEX["t0"] in entry.live_out


def test_dead_write_detected_and_rewrites_kill():
    asm = Assembler("t")
    asm.op("addq", "t0", "zero", 1)    # dead: rewritten before any read
    asm.op("addq", "t0", "zero", 2)
    asm.op("addq", "t1", "t0", 0)      # live read of the second write
    asm.halt()
    dead = analyze_liveness(asm.assemble()).dead_writes()
    assert 0 in dead
    assert 1 not in dead


def test_loop_detection():
    asm = Assembler("t")
    asm.op("addq", "s1", "zero", 8)
    asm.label("head")
    asm.op("subq", "s1", "s1", 1)
    asm.br("bne", "s1", "head")
    asm.halt()
    program = asm.assemble()
    lv = analyze_liveness(program)
    head = program.instructions[2].target
    # The loop-carried counter is live around the back edge: into the
    # loop head, and out of the block whose branch jumps back to it.
    assert REG_INDEX["s1"] in lv.blocks[head].live_in
    tail = lv.cfg.leader_of[2]
    assert head in lv.cfg.blocks[tail].succs
    assert REG_INDEX["s1"] in lv.blocks[tail].live_out


# ------------------------------------------------------ random programs

op_strategy = st.tuples(
    st.sampled_from(_OPERATES),
    st.sampled_from(_WORK_REGS),
    st.sampled_from(_WORK_REGS),
    st.one_of(st.sampled_from(_WORK_REGS),
              st.integers(min_value=0, max_value=255)),
)


def _build(ops, seeds, branch_at=None):
    asm = Assembler("rand")
    standard_prologue(asm)
    for reg, seed in zip(_WORK_REGS, seeds):
        asm.li(reg, seed)
    for i, (mnem, rd, ra, rb) in enumerate(ops):
        if branch_at is not None and i == branch_at:
            asm.br("beq", rd, "join")
        asm.op(mnem, rd, ra, rb)
    asm.label("join")
    asm.halt()
    return asm.assemble()


def _dynamic_read_before_overwrite(program):
    """Dynamic def-use facts from the functional feed: the set of
    (instruction index, register) writes whose value is read later
    (by any instruction) before being overwritten."""
    feed = Feed(program, BASELINE)
    feed.fast_mode = True       # architected path only, no wrong path
    last_writer: dict[int, int] = {}
    used: set[tuple[int, int]] = set()
    while True:
        dyn = feed.next()
        if dyn is None or dyn.inst.opcode.name == "HALT":
            break
        for reg in dyn.inst.src_regs():
            if reg in last_writer:
                used.add((last_writer[reg], reg))
        dest = dyn.inst.dest_reg()
        if dest is not None:
            last_writer[dest] = dyn.index
    return used


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=24),
       seeds=st.lists(st.integers(min_value=0, max_value=2**16),
                      min_size=len(_WORK_REGS), max_size=len(_WORK_REGS)),
       branch_at=st.one_of(st.none(),
                           st.integers(min_value=0, max_value=23)))
def test_dead_verdicts_sound_against_dynamic_trace(ops, seeds, branch_at):
    """No write the fixpoint calls dead is ever read back dynamically."""
    program = _build(ops, seeds, branch_at)
    dead = set(analyze_liveness(program).dead_writes())
    dynamic_used = _dynamic_read_before_overwrite(program)
    for index, reg in dynamic_used:
        assert index not in dead, (
            f"inst#{index} (writes r{reg}) was declared dead but its "
            f"value was dynamically read")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=2, max_size=16),
       seeds=st.lists(st.integers(min_value=0, max_value=2**16),
                      min_size=len(_WORK_REGS), max_size=len(_WORK_REGS)))
def test_fixpoint_is_monotone_under_added_reads(ops, seeds):
    """Appending a read of every work register can only grow live
    sets — liveness is monotone in the use sets."""
    base = _build(ops, seeds)
    asm = Assembler("rand")
    standard_prologue(asm)
    for reg, seed in zip(_WORK_REGS, seeds):
        asm.li(reg, seed)
    for mnem, rd, ra, rb in ops:
        asm.op(mnem, rd, ra, rb)
    acc = _WORK_REGS[0]
    for reg in _WORK_REGS[1:]:
        asm.op("addq", acc, acc, reg)   # read them all at the end
    asm.label("join")
    asm.halt()
    extended = asm.assemble()

    lv_base = analyze_liveness(base)
    lv_ext = analyze_liveness(extended)
    # Same leaders up front (the programs share their prefix CFG until
    # the tail); compare the blocks both have.
    for lead, facts in lv_base.blocks.items():
        ext = lv_ext.blocks.get(lead)
        if ext is None or ext.defs != facts.defs:
            continue    # tail reshaped this block; not comparable
        assert facts.live_in <= ext.live_in
        assert facts.live_out <= ext.live_out


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=20),
       seeds=st.lists(st.integers(min_value=0, max_value=2**16),
                      min_size=len(_WORK_REGS), max_size=len(_WORK_REGS)))
def test_fixpoint_equations_hold_at_convergence(ops, seeds):
    """live_in = use | (live_out - defs) and live_out = U succ live_in
    at every reachable block (the definition of a fixpoint)."""
    lv = analyze_liveness(_build(ops, seeds))
    for lead, facts in lv.blocks.items():
        assert facts.live_in == facts.use | (facts.live_out - facts.defs)
        succs = [s for s in lv.cfg.blocks[lead].succs
                 if s in lv.blocks]
        expect = frozenset().union(
            *(lv.blocks[s].live_in for s in succs)) if succs \
            else frozenset()
        assert facts.live_out == expect
