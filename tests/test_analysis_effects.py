"""Effects analysis: per-block memory classification and the access
byte ranges the L007 dead-store rule compares."""

from repro.analysis.effects import (
    LOAD_ONLY,
    PURE,
    STORES,
    AccessRange,
    analyze_effects,
)
from repro.asm.assembler import Assembler
from repro.workloads.registry import all_workloads


def _effects(asm):
    return analyze_effects(asm.assemble())


# ------------------------------------------------------- classification

def test_pure_block_classified():
    asm = Assembler("t")
    asm.op("addq", "t0", "t1", 1)
    asm.op("xor", "t2", "t0", "t1")
    asm.halt()
    eff = _effects(asm)
    assert eff.effects[0].effect == PURE
    assert eff.load_ranges == () and eff.store_ranges == ()


def test_store_block_classified():
    asm = Assembler("t")
    buf = asm.alloc("buf", 16)
    asm.li("s0", buf)
    asm.store("stq", "t0", "s0", 0)
    asm.halt()
    eff = _effects(asm)
    block = next(b for b in eff.effects.values() if b.stores)
    assert block.effect == STORES
    (store,) = block.stores
    assert store.is_store and not store.unbounded
    assert (store.lo, store.hi) == (buf, buf + 7)
    assert eff.store_ranges == (store,)


def test_load_range_disjoint_from_stores():
    # Load from one buffer, store to another: the interval domain keeps
    # the ranges apart.
    asm = Assembler("t")
    src = asm.alloc("src", 16)
    dst = asm.alloc("dst", 16)
    asm.li("s0", src)
    asm.li("s1", dst)
    asm.label("loop")
    asm.load("ldq", "t0", "s0", 0)
    asm.op("addq", "t1", "t0", 1)
    asm.br("beq", "t1", "skip")         # split: load block ends here
    asm.store("stq", "t1", "s1", 0)
    asm.label("skip")
    asm.op("subq", "s2", "s2", 1)
    asm.br("bne", "s2", "loop")
    asm.halt()
    eff = _effects(asm)
    loading = next(b for b in eff.effects.values()
                   if b.loads and not b.stores)
    assert loading.effect == LOAD_ONLY
    # No store range may overlap the load range.
    load = loading.loads[0]
    assert not load.unbounded
    assert all(not load.overlaps(s) for s in eff.store_ranges)


def test_load_range_overlaps_aliasing_store():
    # Load and store share one buffer: their byte ranges must overlap
    # (a store the program later loads is never a dead store).
    asm = Assembler("t")
    buf = asm.alloc("buf", 16)
    asm.li("s0", buf)
    asm.label("loop")
    asm.load("ldq", "t0", "s0", 0)
    asm.op("addq", "t1", "t0", 1)
    asm.store("stq", "t1", "s0", 0)
    asm.op("subq", "s2", "s2", 1)
    asm.br("bne", "s2", "loop")
    asm.halt()
    eff = _effects(asm)
    (load,) = eff.load_ranges
    (store,) = eff.store_ranges
    assert load.overlaps(store) and store.overlaps(load)


def test_access_range_overlap_semantics():
    a = AccessRange(index=0, is_store=False, lo=0x100, hi=0x107)
    b = AccessRange(index=1, is_store=True, lo=0x108, hi=0x10F)
    c = AccessRange(index=2, is_store=True, lo=0x104, hi=0x104)
    top = AccessRange(index=3, is_store=True, unbounded=True)
    assert not a.overlaps(b)
    assert a.overlaps(c)
    assert a.overlaps(top) and top.overlaps(a)


def test_effects_cover_workloads():
    for workload in all_workloads():
        eff = analyze_effects(workload.build(1))
        assert set(eff.effects) == {b.start for b in
                                    eff.cfg.reachable_blocks()}
        for block in eff.effects.values():
            expected = (STORES if block.stores
                        else LOAD_ONLY if block.loads else PURE)
            assert block.effect == expected, (workload.name, block)
        leaders = sorted(eff.effects)
        assert eff.load_ranges == tuple(
            r for lead in leaders for r in eff.effects[lead].loads)
        assert eff.store_ranges == tuple(
            r for lead in leaders for r in eff.effects[lead].stores)
