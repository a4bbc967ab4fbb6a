"""Cross-cutting property tests: the timing model must never change
program semantics.

Random straight-line programs (operates, loads, stores over a scratch
buffer) are run through (a) the pure functional feed, (b) the full
timing machine, (c) the machine with packing, and (d) with replay
packing — all four must produce identical architected state.  This is
the key safety property of both paper optimizations: they change *when*
operations execute, never *what* they compute.
"""

from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.asm.assembler import Assembler, standard_prologue
from repro.core.config import BASELINE
from repro.core.feed import Feed
from repro.core.machine import Machine
from repro.core.trace import PipelineTracer
from repro.memory.hierarchy import HierarchyConfig

FAST = replace(BASELINE, hierarchy=HierarchyConfig(perfect=True))

_OPERATES = ("addq", "subq", "addl", "subl", "s4addq", "s8addq",
             "cmpeq", "cmplt", "cmpult", "mulq", "mull",
             "and", "bis", "xor", "bic", "ornot", "eqv", "zapnot",
             "sll", "srl", "sra", "extbl", "extwl",
             "cmoveq", "cmovne")
_WORK_REGS = ("t0", "t1", "t2", "t3", "t4", "t5", "s1", "s2", "s3", "v0")

op_strategy = st.one_of(
    # operate: (mnemonic, rd, ra, rb-or-literal)
    st.tuples(st.sampled_from(_OPERATES),
              st.sampled_from(_WORK_REGS),
              st.sampled_from(_WORK_REGS),
              st.one_of(st.sampled_from(_WORK_REGS),
                        st.integers(min_value=0, max_value=255))),
    # load: ("load", mnemonic, rd, disp)
    st.tuples(st.just("load"),
              st.sampled_from(("ldq", "ldl", "ldwu", "ldbu")),
              st.sampled_from(_WORK_REGS),
              st.integers(min_value=0, max_value=24)),
    # store: ("store", mnemonic, rs, disp); R31 stores zero
    st.tuples(st.just("store"),
              st.sampled_from(("stq", "stl", "stw", "stb")),
              st.sampled_from(_WORK_REGS + ("zero",)),
              st.integers(min_value=0, max_value=24)),
)


def build_program(ops, seeds, loops=0):
    """The ops after a prologue that seeds the work registers and an
    8-word buffer at ``s0``; with ``loops``, the ops form the body of a
    loop that runs that many times."""
    asm = Assembler("random")
    standard_prologue(asm)
    buf = asm.alloc("buf", 64)
    asm.data_words(buf, seeds[:8])
    asm.li("s0", buf)
    for i, (reg, seed) in enumerate(zip(_WORK_REGS, seeds)):
        asm.li(reg, seed)
    if loops:
        asm.li("a0", loops)
        asm.label("body")
    for op in ops:
        if op[0] == "load":
            _, mnemonic, rd, disp = op
            asm.load(mnemonic, rd, "s0", disp)
        elif op[0] == "store":
            _, mnemonic, rs, disp = op
            asm.store(mnemonic, rs, "s0", disp)
        else:
            mnemonic, rd, ra, rb = op
            asm.op(mnemonic, rd, ra, rb)
    if loops:
        asm.op("subq", "a0", "a0", 1)
        asm.br("bne", "a0", "body")
    asm.halt()
    return asm.assemble(), buf


def architected_state(feed: Feed, buf: int):
    regs = tuple(feed.reg(r) for r in range(32))
    memory = tuple(feed.memory.load(buf + 8 * i, 8) for i in range(8))
    return regs, memory


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=40),
       seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                      min_size=10, max_size=10))
def test_timing_machine_matches_functional_execution(ops, seeds):
    program, buf = build_program(ops, seeds)

    feed = Feed(program, FAST)
    feed.fast_mode = True
    while feed.next() is not None:
        pass
    reference = architected_state(feed, buf)

    machine = Machine(program, FAST)
    machine.run()
    assert architected_state(machine.feed, buf) == reference


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=40),
       seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                      min_size=10, max_size=10))
def test_packing_preserves_semantics(ops, seeds):
    program, buf = build_program(ops, seeds)

    plain = Machine(program, FAST)
    plain.run()
    reference = architected_state(plain.feed, buf)

    for config in (FAST.with_packing(),
                   FAST.with_packing(replay=True),
                   FAST.with_packing(max_subwords=2),
                   FAST.with_packing(same_opcode=False)):
        machine = Machine(program, config)
        machine.run()
        assert architected_state(machine.feed, buf) == reference


#: A load/add program that runs one cycle longer packed (15 -> 16).
#: Packing frees issue slots at cycles 7 and 8, so the older ops behind
#: them (seqs 20, 23, 25, 26) become ready one cycle sooner and fill all
#: four slots at cycle 9.  Oldest-first issue then leaves the younger
#: MULQ (seq 28), which heads the critical path, for cycle 10, and the
#: dependent ADDQ and the HALT retire a cycle later.
ANOMALY = dict(
    ops=[("addq", "t0", "t0", "t0"), ("load", "ldq", "t0", 0),
         ("store", "stq", "t0", 8), ("store", "stq", "t1", 0),
         ("addq", "t0", "t0", "t0"), ("load", "ldq", "t0", 0),
         ("addq", "t0", "t0", "t0"), ("mulq", "t0", "t1", "t1"),
         ("addq", "t0", "t0", "t0")],
    seeds=[0] * 9 + [0x7FFF_8000])


def issue_cycles(program, config):
    """The run's result and each committed instruction's issue cycle."""
    machine = Machine(program, config)
    tracer = PipelineTracer(machine)
    result = machine.run()
    return result, {t.seq: t.issue for t in tracer.committed()}


def test_packing_can_cost_a_cycle():
    # Why the property below is not "packing never increases cycles":
    # oldest-first issue is greedy list scheduling, and speeding some
    # operations up can delay another that heads the critical path.
    # The paper reports average speedups, not a bound for each program.
    program, _ = build_program(**ANOMALY)
    plain, plain_issue = issue_cycles(program, FAST)
    packed, packed_issue = issue_cycles(program, FAST.with_packing())
    assert (plain.stats.cycles, packed.stats.cycles) == (15, 16)
    assert (plain_issue[28], packed_issue[28]) == (9, 10)
    assert packed_issue[22] < plain_issue[22]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=30),
       seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                      min_size=10, max_size=10))
@example(**ANOMALY)
def test_packing_only_adds_issue_bandwidth(ops, seeds):
    # What packing does guarantee: a member that joins a pack takes no
    # issue slot, so in the first cycle where the two schedules differ
    # the packed machine issues every op the plain one does, and more.
    # Later cycles may still lose (see test_packing_can_cost_a_cycle),
    # and a run whose issue cycles all match takes the same cycles.
    program, _ = build_program(ops, seeds)
    plain, plain_issue = issue_cycles(program, FAST)
    packed, packed_issue = issue_cycles(program, FAST.with_packing())
    assert packed.stats.committed == plain.stats.committed
    assert packed_issue.keys() == plain_issue.keys()
    moved = [seq for seq in plain_issue
             if packed_issue[seq] != plain_issue[seq]]
    if not moved:
        assert packed.stats.cycles == plain.stats.cycles
        return
    first = min(min(plain_issue[seq], packed_issue[seq]) for seq in moved)
    assert all(packed_issue[seq] == first < plain_issue[seq]
               for seq in moved
               if min(plain_issue[seq], packed_issue[seq]) == first)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=30),
       seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                      min_size=10, max_size=10))
def test_power_accounting_invariants(ops, seeds):
    program, _ = build_program(ops, seeds)
    machine = Machine(program, BASELINE)
    result = machine.run()
    power = result.power
    # Gated power can exceed baseline only by the overhead it spends.
    assert power.gated <= power.baseline + power.overhead + 1e-9
    assert power.saved16 >= 0 and power.saved33 >= 0
    assert power.overhead >= 0
    # Net savings identity (Figure 6's definition).
    assert abs(power.net_saved
               - (power.saved16 + power.saved33 - power.overhead)) < 1e-9
    # Gating accounting never changes timing.
    plain = Machine(program, BASELINE.with_gating(
        replace(BASELINE.gating, gate16=False, gate33=False))).run()
    assert plain.stats.cycles == result.stats.cycles
