"""Differential tests for the two-phase fast backend.

Four layers, from leaf to whole-machine:

1. the per-opcode expression table, as ``COMPUTE_FNS``/``BRANCH_FNS``,
   against the reference ``compute()``/``branch_taken()`` if-chains,
   over edge-pattern operands and randomized 64-bit values;
2. the :class:`~repro.fastsim.machine.FastMachine` against the
   reference :class:`~repro.core.machine.Machine`: serialized results
   (every counter, the width histogram, fluctuation, power) must be
   identical over a matrix of workloads and configurations, and the
   fast-forward warmup must leave the same state as the reference's
   from any entry point, including mid-speculation and split calls,
   and every width tag must follow the one rule the warmup relies on,
   cycle by cycle on both paths; the generated runs behind the warm-up
   and the length count are checked on generated programs and on
   hand-assembled ones (a jump into the middle of a run, accesses that
   straddle a page), and compile once per process with no reference
   cycle;
3. the warm store: a fresh machine restores the state the last
   fast-forward of the same ``Program`` object stored under an equal
   key, the key holds every config field that changes that state, and
   threads sharing the store see the sequential states;
4. the run engine's ``backend`` plumbing: ``fast`` yields the same
   results as ``reference`` through :class:`RunEngine`, and an unknown
   backend (``both`` included) is rejected at context construction.

``repro-equivalence``, the one command that compares the backends,
rides along: a window, scale, workload or experiment choice that would
compare nothing is a usage error, never a vacuous pass; ``--experiments``
takes its cells from the jobs experiments declare; a tampered fast
result is a divergent row naming the path; and a pooled cell that
hangs, raises or kills its worker is a failed row, never a hang or a
traceback.  So does set-up cost: building either machine allocates
cache sets only as a run touches them.
"""

from __future__ import annotations

import copy
import gc
import itertools
import json
import os
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asm.assembler import Assembler
from repro.asm.layout import PAGE_BYTES
from repro.bitwidth.tags import TAG_WIDE, tag_code, tag_code_of_value
from repro.core.config import (
    BASELINE,
    MachineConfig,
    ObsConfig,
    PackingConfig,
)
from repro.core.feed import Feed
from repro.core.machine import Machine
from repro.exec import Job, RunContext, RunEngine, clear_memo
from repro.exec.serialize import dict_divergences, result_to_dict
from repro.fastsim import cli as equivalence_cli
from repro.fastsim import machine as fast_machine
from repro.fastsim import runs
from repro.fastsim.machine import FastMachine, count_to_halt
from repro.isa.opcodes import Opcode
from repro.isa.semantics import (
    BRANCH_FNS,
    COMPUTE_FNS,
    MASK64,
    branch_taken,
    compute,
)
from repro.memory.hierarchy import HierarchyConfig
from repro.power.gating import GatingPolicy
from repro.workloads.registry import (
    dynamic_length,
    get_workload,
    resolve_warmup,
)
from tests.test_properties import build_program, op_strategy

u64 = st.integers(min_value=0, max_value=MASK64)

#: Operand bit patterns around every boundary the semantics care about:
#: zero, the byte/word/longword edges, the 32-bit sign bit (ADDL/SUBL
#: sign extension), and the 64-bit sign bit (signed compares, SRA).
EDGES = (
    0, 1, 2, 0x7F, 0x80, 0xFF, 0x100, 0x7FFF, 0x8000, 0xFFFF,
    0x10000, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF, 1 << 32,
    (1 << 62), (1 << 63) - 1, 1 << 63, MASK64 - 1, MASK64,
)


class TestComputeTable:
    """COMPUTE_FNS must be ``compute()`` exactly, opcode by opcode."""

    def test_covers_every_operate_opcode(self):
        # The table and the if-chain must agree on *which* opcodes are
        # computable: every table entry runs through compute() without
        # the ValueError fallthrough.
        for op in COMPUTE_FNS:
            compute(op, 1, 1, 0)

    @pytest.mark.parametrize("op", sorted(COMPUTE_FNS, key=lambda o: o.name))
    def test_edges(self, op):
        fn = COMPUTE_FNS[op]
        for a, b in itertools.product(EDGES, EDGES):
            for old in (0, MASK64):
                assert fn(a, b, old) == compute(op, a, b, old), (
                    f"{op.name}(a={a:#x}, b={b:#x}, old={old:#x})")

    @given(u64, u64, u64)
    @settings(max_examples=60, deadline=None)
    def test_random_operands(self, a, b, old):
        for op, fn in COMPUTE_FNS.items():
            assert fn(a, b, old) == compute(op, a, b, old), op.name


class TestBranchTable:
    """BRANCH_FNS must be ``branch_taken()`` exactly."""

    def test_covers_every_conditional_branch(self):
        for op in BRANCH_FNS:
            branch_taken(op, 0)

    @pytest.mark.parametrize("op", sorted(BRANCH_FNS, key=lambda o: o.name))
    def test_edges(self, op):
        fn = BRANCH_FNS[op]
        for a in EDGES:
            assert bool(fn(a)) == branch_taken(op, a), (
                f"{op.name}(a={a:#x})")

    @given(u64)
    @settings(max_examples=120, deadline=None)
    def test_random_operands(self, a):
        for op, fn in BRANCH_FNS.items():
            assert bool(fn(a)) == branch_taken(op, a), op.name


# --------------------------------------------------------------- machines

WINDOW = 2_000     # keeps a full cross-check under ~100ms per cell

#: 48-byte blocks: a page is no multiple of a block, so some blocks
#: straddle two pages and the same-block shortcut must stay off (its
#: block number alone no longer implies the page).  Cache sizes are
#: multiples of assoc x 48.
BLOCKS_48 = HierarchyConfig(l1i_size=512 * 2 * 48, l1d_size=512 * 2 * 48,
                            l2_size=32768 * 4 * 48, block_bytes=48)


def straddle_program():
    """A loop that loads both halves of a 48-byte block split by a page
    boundary, then a word on a third page."""
    asm = Assembler("straddle")
    buf = asm.alloc("buf", 4 * PAGE_BYTES)
    first = buf - buf % PAGE_BYTES + PAGE_BYTES
    edge = next(edge for edge in range(first, first + 3 * PAGE_BYTES,
                                       PAGE_BYTES)
                if edge % 48 >= 8)     # edge - 8 shares edge's block
    asm.li("s0", edge)
    asm.li("s1", edge + PAGE_BYTES + 64)
    asm.li("a0", 20)
    asm.label("loop")
    asm.load("ldq", "t0", "s0", -8)    # the block's first page
    asm.load("ldq", "t1", "s0", 0)     # the same block's second page
    asm.load("ldq", "t2", "s1", 0)     # a third page
    asm.op("subq", "a0", "a0", 1)
    asm.br("bne", "a0", "loop")
    asm.halt()
    return asm.assemble()


def run_pair(workload_name: str, config: MachineConfig,
             window: int = WINDOW) -> list[str]:
    """Both backends over one cell; returns the divergent result paths
    (empty = bit-exact)."""
    workload = get_workload(workload_name)
    warmup = resolve_warmup(workload, 1)

    reference = Machine(workload.build(1), config)
    reference.fast_forward(warmup)
    ref = result_to_dict(reference.run(max_insts=window))

    fast = FastMachine(workload.build(1), config)
    fast.fast_forward(warmup)
    out = result_to_dict(fast.run(max_insts=window))
    return dict_divergences(ref, out)


class TestFastMachineEquivalence:
    @pytest.mark.parametrize("workload", ["go", "compress", "g721-encode",
                                          "gcc", "xlisp", "perl",
                                          "m88ksim"])
    def test_baseline_config(self, workload):
        assert run_pair(workload, BASELINE) == []

    @pytest.mark.parametrize("workload,config", [
        ("go", BASELINE.with_packing()),
        ("go", BASELINE.with_packing(replay=True)),
        ("go", BASELINE.with_packing(max_subwords=2, same_opcode=False)),
        ("go", BASELINE.with_gating(GatingPolicy(detect_loads=False))),
        ("go", BASELINE.with_predictor("bimodal")),
        ("gcc", BASELINE.with_packing()),
        ("gcc", BASELINE.with_packing(replay=True)),
        ("go", BASELINE.with_issue_width(8, 8)),
        ("go", BASELINE.with_predictor("perfect")),
        ("ijpeg", replace(BASELINE, hierarchy=BLOCKS_48)),
    ], ids=["packing", "packing-replay", "packing-loose",
            "no-detect", "bimodal-predictor", "packing-gcc",
            "packing-replay-gcc", "wide-issue", "perfect-predictor",
            "48-byte-blocks"])
    def test_config_matrix(self, workload, config):
        assert run_pair(workload, config) == []

    def test_blocks_that_straddle_pages_walk_every_access(self):
        # The workloads almost never touch both halves of a straddling
        # block back to back, so the matrix cell above cannot see a
        # shortcut taken across a page boundary.  This loop does, every
        # iteration: a shortcut there would skip the second page's TLB
        # access and leave the TLB in another LRU order.
        config = replace(BASELINE, hierarchy=BLOCKS_48)
        reference = Machine(straddle_program(), config)
        fast = FastMachine(straddle_program(), config)
        for n in (1, 40):
            assert fast.fast_forward(n) == reference.fast_forward(n)
            assert warm_state(fast) == warm_state(reference), n
        ref, out = (result_to_dict(m.run()) for m in (reference, fast))
        assert dict_divergences(ref, out) == []
        assert fast.hierarchy.dtlb._pages == reference.hierarchy.dtlb._pages

    def test_window_boundaries(self):
        # Equivalence must hold at odd cutoffs, not just round windows:
        # the committed-instruction cutoff interacts with squashes and
        # in-flight packing state.
        for window in (1, 17, 501):
            assert run_pair("compress", BASELINE, window=window) == []

    def test_cache_sets_agree_after_a_full_run(self):
        # The fast loop walks the L1s through their tag dicts directly;
        # after a whole job both backends hold the same lines in the
        # same LRU order in every set either one filled.
        w = get_workload("go")
        warmup = resolve_warmup(w, 1)
        machines = [Machine(w.build(1), BASELINE),
                    FastMachine(w.build(1), BASELINE)]
        for machine in machines:
            machine.fast_forward(warmup)
            machine.run(max_insts=w.window)
        reference, fast = (cache_sets(m) for m in machines)
        assert all(reference)
        assert fast == reference


class TestSetUp:
    @pytest.mark.parametrize("machine_cls", [Machine, FastMachine])
    def test_construction_allocates_under_1mb(self, machine_cls):
        # Cache sets are created on first touch: Table 1's 65,536-set
        # L2 must not cost a list pair per set up front.
        program = get_workload("go").build(1)
        machine_cls(program, BASELINE)
        tracemalloc.start()
        try:
            machine_cls(program, BASELINE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSharedSteps:
    """The walks and the predictor step are built once per hierarchy
    and predictor: at construction and after a warm-state restore, never
    per cycle."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        for name in ("_walks", "_bp_step"):
            def counted(self, _inner=getattr(FastMachine, name),
                        _name=name):
                calls.append(_name)
                return _inner(self)
            monkeypatch.setattr(FastMachine, name, counted)
        return calls

    def test_stepping_builds_them_once(self, builds, monkeypatch):
        monkeypatch.setattr(fast_machine, "_WARM", {})
        w = get_workload("go")
        machine = FastMachine(w.builder(1), BASELINE)
        machine.fast_forward(resolve_warmup(w, 1))
        for _ in range(100):
            machine.step()
        assert machine.stats.committed
        assert sorted(builds) == ["_bp_step", "_walks"]

    def test_restore_rebuilds_them_over_the_restored_state(
            self, builds, monkeypatch):
        monkeypatch.setattr(fast_machine, "_WARM", {})
        w = get_workload("go")
        program = w.builder(1)
        n = resolve_warmup(w, 1)
        FastMachine(program, BASELINE).fast_forward(n)
        restored = FastMachine(program, BASELINE)
        builds.clear()
        restored.fast_forward(n)
        assert sorted(builds) == ["_bp_step", "_walks"]
        assert restored._i_walk.__defaults__[-1] == \
            restored.hierarchy.fetch_instruction


# ---------------------------------------------------------------- warmup

def _fields(obj):
    """Plain-data view of a predictor, BTB or RAS: its tables,
    histories and pointers.  Left out are the stats counters, which the
    fast backend skips for the combining predictor by design, and its
    ``_last``, a scratch value passed from predict() to update()."""
    if isinstance(obj, (list, tuple)):
        return [_fields(item) for item in obj]
    if not hasattr(obj, "__dict__") and not hasattr(obj, "__slots__"):
        return obj
    names = (vars(obj) if hasattr(obj, "__dict__")
             else {name: getattr(obj, name) for name in obj.__slots__})
    return {name: _fields(value) for name, value in names.items()
            if name not in ("stats", "_last")}


def cache_sets(machine) -> list[dict]:
    """The non-empty tag sets of L1I, L1D and L2.  Sets are created on
    first touch, so a set one backend merely looked up is empty and
    left out."""
    hier = machine.hierarchy
    return [{index: tags for index, tags in cache._tags.items() if tags}
            for cache in (hier.l1i, hier.l1d, hier.l2)]


def warm_state(machine) -> dict:
    """Everything fast mode changes, read off either backend.

    Caches contribute their non-empty tag sets, not their
    ``CacheStats`` or dirty bits: the fast backend's same-block
    shortcut skips those counters by design.
    """
    if isinstance(machine, FastMachine):
        regs, tags, fload = machine._regs, machine._tags, machine._from_load
        front = (machine._fetch_index, machine._seq, machine._halted,
                 machine._spec)
        predictor, btb, ras = machine._predictor, machine._btb, machine._ras
    else:
        feed = machine.feed
        regs, fload = feed._regs, feed._from_load
        tags = [tag_code(tag) for tag in feed._tags]
        front = (feed.fetch_index, feed.seq, feed.halted, feed.spec_mode)
        predictor, btb, ras = feed.predictor, feed.btb, feed.ras
    hier = machine.hierarchy
    return copy.deepcopy({
        "regs": regs, "tags": tags, "from_load": fload, "front": front,
        "predictor": _fields(predictor), "btb": _fields(btb),
        "ras": _fields(ras),
        "caches": cache_sets(machine),
        "tlbs": [hier.itlb._pages, hier.dtlb._pages],
    })


NO_DETECT = BASELINE.with_gating(GatingPolicy(detect_loads=False))


class TestFastForward:
    """``FastMachine.fast_forward`` against ``Machine.fast_forward``:
    same count returned, same warmed state, from any entry point.  The
    fast machines run fresh programs from ``builder``, so they
    fast-forward for real instead of restoring a stored state."""

    @pytest.mark.parametrize("workload,config", [
        ("go", BASELINE),
        ("gcc", BASELINE),
        ("xlisp", BASELINE),
        ("mpeg2-encode", BASELINE),
        ("perl", NO_DETECT),
        ("gcc", BASELINE.with_predictor("bimodal")),
        ("go", BASELINE.with_predictor("perfect")),
    ], ids=["go", "gcc", "xlisp", "mpeg2-encode", "no-detect-perl",
            "bimodal-gcc", "perfect-go"])
    def test_state_matches_reference(self, workload, config):
        w = get_workload(workload)
        length = dynamic_length(w, 1)
        for n in (0, 1, 17, resolve_warmup(w, 1), length + 3):
            reference = Machine(w.build(1), config)
            fast = FastMachine(w.builder(1), config)
            executed = fast.fast_forward(n)
            assert executed == reference.fast_forward(n)
            assert executed == min(n, length)     # stops after HALT
            assert warm_state(fast) == warm_state(reference), n

    def test_entered_mid_speculation(self):
        # run(max_insts) and step() can stop while the feed is on a
        # wrong path; fast mode then follows the true path through the
        # speculative overlay without training, and stops at a HALT.
        w = get_workload("go")
        reference = Machine(w.build(1), BASELINE)
        fast = FastMachine(w.build(1), BASELINE)
        while not reference.feed.spec_mode:
            reference.step()
            fast.step()
        assert fast._spec
        for n in (1, 40, 10**6):
            assert fast.fast_forward(n) == reference.fast_forward(n)
            assert warm_state(fast) == warm_state(reference), n

    def test_split_warmup_resumes_exactly(self):
        # Every loop local must be written back on exit: two calls that
        # cover the warmup between them leave the machine exactly where
        # one call does, through the detailed run that follows.
        w = get_workload("compress")
        warmup = resolve_warmup(w, 1)
        whole = FastMachine(w.builder(1), BASELINE)
        whole.fast_forward(warmup)
        state = warm_state(whole)
        expected = result_to_dict(whole.run(max_insts=WINDOW))
        for first in (1, 17, warmup // 3):
            split = FastMachine(w.builder(1), BASELINE)
            assert split.fast_forward(first) == first
            assert split.fast_forward(warmup - first) == warmup - first
            assert warm_state(split) == state
            out = result_to_dict(split.run(max_insts=WINDOW))
            assert dict_divergences(expected, out) == []


def tags_follow_the_rule(regs, tags, fload, detect_loads) -> bool:
    """A register's tag is ``TAG_WIDE`` when it came from a load and
    load zero-detect is off, and the width code of its value
    otherwise."""
    return all(tag == (TAG_WIDE if loaded and not detect_loads
                       else tag_code_of_value(value))
               for value, tag, loaded in zip(regs, tags, fload))


class TestTagRule:
    """The warm-up classifies no result: on return it sets every tag
    from ``regs`` and ``from_load`` by the rule :meth:`_loop` keeps.
    So the rule must hold after every cycle on either path, in the
    checkpoint a recovery restores, and after a fast-forward entered
    mid-speculation.  go and m88ksim both mispredict often."""

    CYCLES = 3_000

    @pytest.mark.parametrize("workload", ["go", "m88ksim"])
    @pytest.mark.parametrize("config", [BASELINE, NO_DETECT],
                             ids=["baseline", "no-detect"])
    def test_rule_holds_every_cycle(self, workload, config):
        detect = config.gating.detect_loads
        w = get_workload(workload)
        machine = FastMachine(w.builder(1), config)

        def holds(state):
            regs, tags, fload = state[:3]
            return tags_follow_the_rule(regs, tags, fload, detect)

        machine.fast_forward(resolve_warmup(w, 1))
        assert holds((machine._regs, machine._tags, machine._from_load))
        paths = set()
        for cycle in range(self.CYCLES):
            machine.step()
            paths.add(machine._spec)
            assert holds((machine._regs, machine._tags,
                          machine._from_load)), cycle
            if machine._checkpoint is not None:
                assert holds(machine._checkpoint), cycle
        assert paths == {False, True}    # both paths were checked

        while not machine._spec:
            machine.step()
        machine.fast_forward(40)
        assert holds((machine._regs, machine._tags, machine._from_load))
        assert holds(machine._checkpoint)


# ---------------------------------------------------------- generated runs

def feed_count(program) -> int:
    """Instructions a fast-mode reference feed supplies, HALT included."""
    feed = Feed(program, BASELINE)
    feed.fast_mode = True
    count = 0
    while feed.next() is not None:
        count += 1
    return count


def first_run_length(program) -> int:
    """Instructions from the entry through its first control transfer
    or HALT: the first run the warm-up executes."""
    for length, inst in enumerate(program.instructions[program.entry:], 1):
        if inst.is_branch or inst.opcode is Opcode.HALT:
            return length
    return len(program) - program.entry + 1   # the synthetic HALT


def assert_forward_matches(build, n, words=()):
    """``fast_forward(n)`` on a fresh program from ``build`` against
    the reference: the count, the warmed state and the memory words at
    ``words``."""
    reference = Machine(build(), BASELINE)
    fast = FastMachine(build(), BASELINE)
    assert fast.fast_forward(n) == reference.fast_forward(n), n
    assert warm_state(fast) == warm_state(reference), n
    for addr in words:
        assert (fast._memory.load(addr, 8)
                == reference.feed.memory.load(addr, 8)), (n, hex(addr))


def assert_every_cut_matches(build, words=()):
    """``count_to_halt`` on a program from ``build`` against the
    reference feed, then :func:`assert_forward_matches` at every cut
    up to past the HALT (most cuts end mid-run)."""
    length = count_to_halt(build())
    assert length == feed_count(build())
    for n in range(length + 2):
        assert_forward_matches(build, n, words)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=30),
       seeds=st.lists(u64, min_size=10, max_size=10),
       loops=st.sampled_from([0, 1, 3]), data=st.data())
def test_generated_programs_count_and_warm_like_the_reference(
        ops, seeds, loops, data):
    # Straight-line code is one run to the HALT; a loop adds a run that
    # starts at the loop head, inside the entry run.  The cuts end
    # inside some run and exactly at the end of the first.
    program, buf = build_program(ops, seeds, loops)
    length = count_to_halt(program)
    assert length == feed_count(program)
    first = first_run_length(program)
    inside = data.draw(st.integers(min_value=1, max_value=length))
    words = [buf + 8 * i for i in range(8)]
    for n in (inside, first):
        assert_forward_matches(lambda: build_program(ops, seeds, loops)[0],
                               n, words)


def jump_into_run():
    """A loop whose body is also entered mid-run by an indirect jump:
    after three iterations, JMP lands on the body's third instruction
    and the loop runs twice more from there."""
    asm = Assembler("jump-into-run")
    asm.li("a0", 3)
    asm.li("a1", 0)
    asm.label("top")
    asm.op("addq", "t0", "t0", 1)
    asm.op("addq", "t1", "t1", 2)
    middle = asm.here()
    asm.op("addq", "t2", "t2", 3)
    asm.op("subq", "a0", "a0", 1)
    asm.br("bne", "a0", "top")
    asm.br("bne", "a1", "done")
    asm.li("a1", 1)
    asm.li("a0", 2)
    asm.li("t12", asm.base_pc + 4 * middle)
    asm.jmp("t12")
    asm.label("done")
    asm.halt()
    return asm.assemble()


def straddling_access():
    """A load and a store that straddle a page boundary, each feeding a
    loop count from its bytes on the far page: a straddling access that
    read or wrote one page only would change the count."""
    asm = Assembler("straddling-access")
    buf = asm.alloc("buf", 3 * PAGE_BYTES)
    edge = buf - buf % PAGE_BYTES + 2 * PAGE_BYTES
    asm.data_words(edge - 4, [3 << 32])
    asm.li("s0", edge - 4)
    asm.load("ldq", "t0", "s0", 0)     # edge-4 .. edge+3
    asm.op("srl", "t0", "t0", 32)
    asm.label("first")
    asm.op("subq", "t0", "t0", 1)
    asm.br("bgt", "t0", "first")
    asm.li("t1", (5 << 32) | 7)
    asm.store("stq", "t1", "s0", 2)    # edge-2 .. edge+5
    asm.load("ldq", "t2", "s0", 2)
    asm.op("srl", "t2", "t2", 32)
    asm.label("second")
    asm.op("subq", "t2", "t2", 1)
    asm.br("bgt", "t2", "second")
    asm.halt()
    return asm.assemble(), edge


def zero_stores():
    """Stores of R31 at every size over words of ones, one of them
    across a page boundary, then a loop whose count ORs the low bits of
    every stored field read back: a zero store that left a one there
    would change the count."""
    asm = Assembler("zero-stores")
    buf = asm.alloc("buf", 3 * PAGE_BYTES)
    edge = buf - buf % PAGE_BYTES + 2 * PAGE_BYTES
    asm.data_words(edge - 16, [MASK64] * 4)
    asm.li("s0", edge - 16)
    accesses = (("stq", "ldq", 0), ("stw", "ldwu", 8), ("stb", "ldbu", 10),
                ("stq", "ldq", 12), ("stl", "ldl", 20))   # 12 straddles
    for store, _, disp in accesses:
        asm.store(store, "zero", "s0", disp)
    for _, load, disp in accesses:
        asm.load(load, "t1", "s0", disp)
        asm.op("bis", "t0", "t0", "t1")
    asm.op("and", "t0", "t0", 7)
    asm.op("addq", "t0", "t0", 2)
    asm.label("loop")
    asm.op("subq", "t0", "t0", 1)
    asm.br("bgt", "t0", "loop")
    asm.halt()
    return asm.assemble(), edge


class TestGeneratedRuns:
    """The length count and the warm-up run generated straight-line
    code (:mod:`repro.fastsim.runs`); these programs reach the cases
    the workloads barely touch."""

    def test_indirect_jump_into_the_middle_of_a_run(self):
        assert_every_cut_matches(jump_into_run)

    def test_access_that_straddles_a_page(self):
        edge = straddling_access()[1]
        assert_every_cut_matches(lambda: straddling_access()[0],
                                 (edge - 8, edge))

    def test_stores_of_r31(self):
        edge = zero_stores()[1]
        assert_every_cut_matches(lambda: zero_stores()[0],
                                 tuple(edge + d for d in (-16, -8, 0, 8)))

    def test_runs_compile_once_per_process(self, monkeypatch):
        # A second machine on the same program, and an equal program
        # built again, regenerate the sources of the runs the first
        # compiled and find every one compiled.
        compiled, generated = [], []
        compile_source, source_of = runs._compile, runs.run_source
        monkeypatch.setattr(runs, "_CODE", {})
        monkeypatch.setattr(fast_machine, "_WARM", {})
        monkeypatch.setattr(runs, "_compile", lambda source: (
            compiled.append(source), compile_source(source))[1])
        monkeypatch.setattr(runs, "run_source", lambda *args: (
            generated.append(args), source_of(*args))[1])
        w = get_workload("go")
        n = resolve_warmup(w, 1)

        def warm_and_count(program):
            FastMachine(program, BASELINE).fast_forward(n)
            fast_machine._WARM.clear()
            count_to_halt(program)

        program = w.builder(1)
        warm_and_count(program)
        assert compiled and len(compiled) == len(generated)
        for again in (program, w.builder(1)):
            compiled.clear()
            generated.clear()
            warm_and_count(again)
            assert generated and compiled == []

    def test_compiled_code_is_bounded(self, monkeypatch):
        # Past the limit the cache starts over, and the runs it drops
        # compile again on their next use with the same results.
        monkeypatch.setattr(runs, "_CODE", {})
        monkeypatch.setattr(runs, "_CODE_LIMIT", 2)
        assert_every_cut_matches(jump_into_run)
        assert 0 < len(runs._CODE) <= 2

    def test_dropped_machine_frees_its_hierarchy(self, monkeypatch):
        # Generated functions share one globals dict that holds none of
        # them, so no reference cycle keeps a finished machine's caches
        # alive until a collection.
        monkeypatch.setattr(fast_machine, "_WARM", {})
        w = get_workload("go")
        enabled = gc.isenabled()
        gc.disable()
        try:
            machine = FastMachine(w.builder(1), BASELINE)
            machine.fast_forward(resolve_warmup(w, 1))
            hierarchy = weakref.ref(machine.hierarchy)
            del machine
            assert hierarchy() is None
        finally:
            if enabled:
                gc.enable()


# ------------------------------------------------------------ warm store

PACKING_REPLAY = BASELINE.with_packing(replay=True)


@pytest.fixture
def forwards(monkeypatch):
    """Starts from an empty warm store and records the count of every
    call into the inner interpreter, so a restore shows as no call."""
    calls = []
    inner = FastMachine._forward

    def counted(self, instructions):
        calls.append(instructions)
        return inner(self, instructions)

    monkeypatch.setattr(FastMachine, "_forward", counted)
    fast_machine._WARM.clear()
    yield calls
    fast_machine._WARM.clear()


def forwarded(program, config, instructions) -> FastMachine:
    """A new machine after ``fast_forward(instructions)``."""
    machine = FastMachine(program, config)
    machine.fast_forward(instructions)
    return machine


def shortcut(machine) -> list[int]:
    """The same-block shortcut registers, which ``warm_state`` leaves
    out because the reference machine has none."""
    return [machine._iblk, machine._dblk]


class TestWarmStore:
    def test_fresh_machine_with_an_equal_key_restores(self, forwards):
        w = get_workload("go")
        program = w.build(1)
        n = resolve_warmup(w, 1)
        forwarded(program, BASELINE, n)
        restored = FastMachine(program, PACKING_REPLAY)
        assert restored.fast_forward(n) == n
        assert forwards == [n]

    @pytest.mark.parametrize("change", ["program", "count", "key-field"])
    def test_other_program_count_or_key_field_misses(self, forwards,
                                                     change):
        w = get_workload("go")
        program = w.build(1)
        n = resolve_warmup(w, 1)
        forwarded(program, BASELINE, n)
        other = {"program": (w.builder(1), BASELINE, n),
                 "count": (program, BASELINE, n - 1),
                 "key-field": (program, NO_DETECT, n)}[change]
        forwarded(*other)
        assert forwards == [n, other[2]]

    def test_machine_that_is_not_fresh_skips_the_store(self, forwards):
        # A restored machine (the second half of a split warm-up), a
        # stepped one and a run one all interpret, even though the
        # store holds this program and count, and none replaces it.
        w = get_workload("go")
        program = w.build(1)
        n = resolve_warmup(w, 1)
        forwarded(program, BASELINE, n)
        entry = fast_machine._WARM[program.name]
        restored = forwarded(program, BASELINE, n)
        stepped = FastMachine(program, BASELINE)
        stepped.step()
        ran = FastMachine(program, BASELINE)
        ran.run(max_insts=50)
        for machine in (restored, stepped, ran):
            machine.fast_forward(n)
        assert forwards == [n] * 4
        assert fast_machine._WARM[program.name] is entry

    # xlisp is the one workload whose warm-up calls and returns, so
    # it carries the RAS and BTB.
    @pytest.mark.parametrize("workload", ["gcc", "compress", "xlisp"])
    def test_restored_state_matches_the_reference(self, forwards,
                                                  workload):
        w = get_workload(workload)
        program = w.build(1)
        n = resolve_warmup(w, 1)
        forwarded(program, BASELINE, n)
        restored = forwarded(program, BASELINE.with_packing(), n)
        assert len(forwards) == 1
        reference = Machine(program, BASELINE)
        reference.fast_forward(n)
        assert warm_state(restored) == warm_state(reference)

    def test_stored_state_outlives_both_runs(self, forwards):
        # The store keeps bytes, not objects: after the machine that
        # stored the state and one that restored it both run to
        # completion, a third restore still equals a fresh fast-forward.
        w = get_workload("go")
        program = w.build(1)
        n = resolve_warmup(w, 1)
        stored = forwarded(program, BASELINE, n)
        restored = forwarded(program, BASELINE, n)
        for machine in (stored, restored):
            machine.run()
            assert machine.done
        third = forwarded(program, BASELINE, n)
        assert forwards == [n]
        fresh = forwarded(w.builder(1), BASELINE, n)
        assert warm_state(third) == warm_state(fresh)
        assert shortcut(third) == shortcut(fresh)

    def test_packing_replay_after_baseline_restores_bit_exact(self,
                                                             forwards):
        assert run_pair("compress", BASELINE) == []
        assert run_pair("compress", PACKING_REPLAY) == []
        assert len(forwards) == 1

    def test_threads_see_the_sequential_states(self, forwards,
                                               monkeypatch):
        # More threads than cores warm go and gcc under three configs
        # in rotated orders, with the interpreter switching threads
        # every microsecond: a restore that read a half-stored entry,
        # or shared an object with another machine, breaks equality.
        # The generated runs start uncompiled, so the threads also fill
        # the shared code cache together.
        cells = [(name, config) for name in ("go", "gcc")
                 for config in (BASELINE, PACKING_REPLAY, NO_DETECT)]
        warmups = {name: resolve_warmup(get_workload(name), 1)
                   for name in ("go", "gcc")}
        expected = {}
        for name, config in cells:
            fast_machine._WARM.clear()
            machine = forwarded(get_workload(name).build(1), config,
                                warmups[name])
            expected[name, config] = warm_state(machine)
        fast_machine._WARM.clear()
        monkeypatch.setattr(runs, "_CODE", {})
        results = []
        errors = []

        def warm(order):
            try:
                for _ in range(3):
                    for name, config in order:
                        machine = forwarded(get_workload(name).build(1),
                                            config, warmups[name])
                        results.append((name, config, warm_state(machine)))
            except Exception as err:  # noqa: BLE001 — reported below
                errors.append(err)

        count = 2 * (os.cpu_count() or 1) + 2
        threads = [threading.Thread(
            target=warm, args=(cells[i % 6:] + cells[:i % 6],))
            for i in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == count * 3 * len(cells)
        for name, config, state in results:
            assert state == expected[name, config], name
        assert len(forwards) < len(results)    # some threads restored


#: Every config field, by whether the warm key holds it (True) or the
#: warmed state ignores it (False).  A field not listed fails
#: ``test_every_field_is_classified``, so a new one must be sorted here.
WARM_KEY = {
    MachineConfig: {
        "ruu_size": False, "lsq_size": False, "fetch_queue_size": False,
        "fetch_width": False, "decode_width": False,
        "issue_width": False, "commit_width": False, "int_alus": False,
        "int_mult_div": False, "alu_latency": False,
        "mult_latency": False, "mispredict_penalty": False,
        "predictor": True, "btb_entries": True, "btb_assoc": True,
        "ras_entries": True, "max_cycles": False,
    },
    HierarchyConfig: dict.fromkeys([
        "l1i_size", "l1i_assoc", "l1d_size", "l1d_assoc", "l2_size",
        "l2_assoc", "block_bytes", "l1_latency", "l2_latency",
        "memory_latency", "tlb_entries", "tlb_miss_latency", "perfect",
    ], True),
    GatingPolicy: {"gate16": False, "gate33": False,
                   "detect_loads": True, "operand_based": False},
    PackingConfig: dict.fromkeys(
        ["enabled", "replay", "max_subwords", "same_opcode"], False),
    ObsConfig: dict.fromkeys(
        ["sampler_window", "events", "max_events"], False),
}

#: The MachineConfig fields that nest one of the classes above.
NESTED = {"hierarchy": HierarchyConfig, "packing": PackingConfig,
          "gating": GatingPolicy, "obs": ObsConfig}


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return 2 * value
    return "bimodal"            # the predictor, the one string field


def config_variants():
    """``(field, in_key, config)``: BASELINE with one field changed."""
    for name, in_key in WARM_KEY[MachineConfig].items():
        yield name, in_key, replace(
            BASELINE, **{name: _changed(getattr(BASELINE, name))})
    for attr, cls in NESTED.items():
        nested = getattr(BASELINE, attr)
        for name, in_key in WARM_KEY[cls].items():
            yield f"{attr}.{name}", in_key, replace(BASELINE, **{
                attr: replace(nested,
                              **{name: _changed(getattr(nested, name))})})


class TestWarmKey:
    def test_every_field_is_classified(self):
        assert set(WARM_KEY) == {MachineConfig, *NESTED.values()}
        for cls, listed in WARM_KEY.items():
            names = {f.name for f in fields(cls)} - set(NESTED)
            assert names == set(listed), cls.__name__

    @pytest.mark.parametrize("workload", ["gcc", "compress"])
    def test_fields_outside_the_key_leave_the_state_alone(
            self, forwards, workload):
        w = get_workload(workload)
        program = w.build(1)
        n = resolve_warmup(w, 1)
        expected = warm_state(forwarded(program, BASELINE, n))
        outside = [(name, config) for name, in_key, config
                   in config_variants() if not in_key]
        for name, config in outside:
            fast_machine._WARM.clear()          # forward for real
            assert warm_state(forwarded(program, config, n)) == expected, \
                name
        assert len(forwards) == 1 + len(outside)

    def test_key_fields_miss_the_store(self, forwards):
        w = get_workload("go")
        program = w.build(1)
        n = resolve_warmup(w, 1)
        for name, in_key, config in config_variants():
            if in_key:
                forwarded(program, BASELINE, n)   # the store holds this
                calls = len(forwards)
                forwarded(program, config, n)
                assert len(forwards) == calls + 1, name


# ----------------------------------------------------------------- engine

@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


JOB = Job("go", BASELINE, 1)


class TestEngineBackend:
    @pytest.mark.parametrize("backend", ["warp", "both"])
    def test_invalid_backend_rejected(self, backend):
        with pytest.raises(ValueError, match="backend"):
            RunContext(backend=backend)

    def test_fast_matches_reference_through_engine(self):
        ref = RunEngine(RunContext(use_cache=False)).run(JOB)
        clear_memo()
        fast = RunEngine(RunContext(backend="fast",
                                    use_cache=False)).run(JOB)
        assert dict_divergences(result_to_dict(ref),
                                result_to_dict(fast)) == []


# ------------------------------------------------------------------- CLI

class TestEquivalenceArgs:
    @pytest.mark.parametrize("argv,message", [
        (["--window", "0"], "--window must be >= 1"),
        (["--window", "-5"], "--window must be >= 1"),
        (["--scale", "0"], "--scale must be >= 1"),
        (["--workloads", "nope"], "invalid choice: 'nope'"),
        (["--experiments", "table1"],
         "--experiments table1 leaves no cells to compare"),
        (["--experiments", "nope"], "invalid choice: 'nope'"),
        (["--experiments", "fig10", "--configs", "baseline"],
         "not allowed with argument"),
        (["--backend", "both"], "unrecognized arguments: --backend both"),
        (["--no-cache"], "unrecognized arguments: --no-cache"),
    ], ids=["window-0", "window-negative", "scale-0", "unknown-workload",
            "experiment-without-jobs", "unknown-experiment",
            "experiments-with-configs", "backend-flag", "cache-flag"])
    def test_empty_comparison_is_a_usage_error(self, argv, message,
                                               capsys, monkeypatch):
        # A zero or negative window simulates nothing (or silently
        # means "full window"), so the matrix would "match" without
        # comparing a single instruction; scale 0 builds no workload,
        # and an experiment without jobs declares no cell.  Every
        # refusal comes before the first simulation.
        def never(*args):
            raise AssertionError("simulated a refused comparison")

        monkeypatch.setattr(equivalence_cli, "compare_one", never)
        with pytest.raises(SystemExit) as excinfo:
            equivalence_cli.main(argv + ["--workloads", "go"])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


def _matched(name: str) -> dict:
    return {"workload": name, "match": True, "divergences": [],
            "cycles": 1, "committed": 1, "ref_wall_seconds": 0.0,
            "fast_wall_seconds": 0.0, "speedup": None}


# Stand-ins for compare_one in the pool tests; module-level, so a pool
# worker can unpickle them.  go misbehaves, every other cell matches.

def _compare_hangs(name, config, scale, window):
    if name == "go":
        time.sleep(60)
    return _matched(name)


def _compare_raises(name, config, scale, window):
    if name == "go":
        raise RuntimeError("cell exploded")
    return _matched(name)


def _compare_kills_its_worker(name, config, scale, window):
    if name == "go":
        os._exit(3)
    return _matched(name)


class TestEquivalencePool:
    def test_timed_out_cell_does_not_hold_the_command(self, monkeypatch,
                                                     capsys):
        # The wedged worker is terminated, not waited for.
        monkeypatch.setattr(equivalence_cli, "compare_one", _compare_hangs)
        start = time.monotonic()
        code = equivalence_cli.main(["--workloads", "go", "compress",
                                     "--jobs", "2", "--timeout", "1"])
        assert time.monotonic() - start < 30
        assert code == 1
        out = capsys.readouterr().out
        assert "timed out after 1.0s" in out
        assert out.rstrip().endswith("1/2 matched, 1 divergent")

    @pytest.mark.parametrize("stub,error", [
        (_compare_raises, "RuntimeError: cell exploded"),
        (_compare_kills_its_worker, "BrokenProcessPool"),
    ], ids=["raises", "kills-worker"])
    def test_failed_cell_is_a_row(self, monkeypatch, capsys, tmp_path,
                                  stub, error):
        monkeypatch.setattr(equivalence_cli, "compare_one", stub)
        out = tmp_path / "eq.json"
        code = equivalence_cli.main(["--workloads", "go", "compress",
                                     "--jobs", "2", "--out", str(out)])
        assert code == 1
        assert "divergent" in capsys.readouterr().out
        rows = json.loads(out.read_text())["configs"]["baseline"][
            "workloads"]
        assert rows[0]["workload"] == "go"
        assert not rows[0]["match"]
        assert error in rows[0]["divergences"][0]


class TestEquivalenceReport:
    def test_report_carries_the_speed_ratio(self, tmp_path, capsys):
        # The document CI uploads is the per-workload record of
        # reference versus fast wall time over the same region.
        out = tmp_path / "eq.json"
        code = equivalence_cli.main(["--workloads", "go", "--window",
                                     "2000", "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.rstrip().splitlines()
        assert lines[-2].endswith("1/1 matched, 0 divergent")
        assert lines[-1] == f"wrote {out}"
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-equivalence/2"
        assert doc["experiments"] is None
        assert doc["total"] == 1
        (row,) = doc["configs"]["baseline"]["workloads"]
        assert row["ref_wall_seconds"] > 0
        assert row["fast_wall_seconds"] > 0
        assert row["speedup"] == pytest.approx(
            row["ref_wall_seconds"] / row["fast_wall_seconds"], rel=0.01)

    def test_experiments_take_their_declared_cells(self, tmp_path, capsys):
        # fig10-8wide declares one named config (the combining plain
        # runs are wide-decode) and three outside the catalog, which
        # are labelled by fingerprint.
        out = tmp_path / "eq.json"
        code = equivalence_cli.main(["--experiments", "fig10-8wide",
                                     "--workloads", "go", "--window",
                                     "2000", "--out", str(out)])
        assert code == 0
        assert "4/4 matched, 0 divergent" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["experiments"] == ["fig10-8wide"]
        assert len(doc["configs"]) == 4
        assert "wide-decode" in doc["configs"]
        for label, section in doc["configs"].items():
            if label != "wide-decode":
                assert label == section["config_fingerprint"][:10]
            assert [row["workload"] for row in section["workloads"]] == [
                "go"]

    def test_tampered_fast_result_is_named(self, monkeypatch, tmp_path,
                                           capsys):
        # The fast backend's result is off by one commit: the row is
        # divergent and names the counter, and the command fails.
        original = FastMachine.run

        def tampered(self, max_insts=None):
            result = original(self, max_insts=max_insts)
            result.stats.committed += 1
            return result

        monkeypatch.setattr(FastMachine, "run", tampered)
        out = tmp_path / "eq.json"
        code = equivalence_cli.main(["--workloads", "go", "--window",
                                     "2000", "--out", str(out)])
        assert code == 1
        assert "DIVERGED" in capsys.readouterr().out
        (row,) = json.loads(out.read_text())["configs"]["baseline"][
            "workloads"]
        assert "stats.committed" in row["divergences"]
