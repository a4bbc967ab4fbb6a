"""Per-block memory-effect summaries and access byte ranges.

For every reachable basic block this derives a **memory-effect
summary** — ``pure`` (no memory traffic), ``load-only``, or ``stores``
— with the byte range each load and store can touch, taken from the
signed-interval width fixpoint (:mod:`repro.analysis.dataflow`): an
access's effective address interval is ``base + displacement`` in the
interval domain, widened to the access size.  An address interval the
analysis lost (TOP, or reaching into the negatives) becomes an
*unbounded* range that overlaps everything.

The program-wide ``load_ranges``/``store_ranges`` back the linter's
L007 dead-store rule (a store disjoint from every reachable load is
provably never observed), and the bundled
:class:`~repro.analysis.liveness.LivenessAnalysis` backs L006.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import intervals as iv
from repro.analysis.dataflow import WidthAnalysis, analyze
from repro.analysis.liveness import LivenessAnalysis
from repro.isa.instruction import Program

#: Effect kinds, ordered from least to most memory traffic.
PURE = "pure"
LOAD_ONLY = "load-only"
STORES = "stores"


@dataclass(frozen=True)
class AccessRange:
    """Byte range one memory access can touch: ``[lo, hi]`` inclusive,
    or unbounded when the interval analysis lost the address."""

    index: int              # static instruction index
    is_store: bool
    lo: int = 0
    hi: int = 0
    unbounded: bool = False

    def overlaps(self, other: "AccessRange") -> bool:
        if self.unbounded or other.unbounded:
            return True
        return self.lo <= other.hi and other.lo <= self.hi


@dataclass(frozen=True)
class BlockEffects:
    """Memory-effect summary of one reachable basic block."""

    leader: int
    effect: str                         # PURE | LOAD_ONLY | STORES
    loads: tuple[AccessRange, ...]
    stores: tuple[AccessRange, ...]


def _access_range(analysis: WidthAnalysis, index: int,
                  size: int, is_store: bool) -> AccessRange:
    """Byte range of the memory access at ``index`` from its converged
    operand intervals (base in ``a``, displacement in ``b``)."""
    facts = analysis.facts[index]
    if facts is None:
        return AccessRange(index=index, is_store=is_store, unbounded=True)
    addr = iv.add(facts.a, facts.b)
    # Addresses are unsigned; an interval reaching into the negatives
    # (or TOP) means the analysis lost it — treat as anywhere.
    if addr.lo < 0 or addr == iv.TOP:
        return AccessRange(index=index, is_store=is_store, unbounded=True)
    return AccessRange(index=index, is_store=is_store,
                       lo=addr.lo, hi=addr.hi + size - 1)


class EffectsAnalysis:
    """Memory effects (plus liveness) of one program; run :meth:`run`
    once."""

    def __init__(self, program: Program,
                 width: WidthAnalysis | None = None,
                 liveness: LivenessAnalysis | None = None) -> None:
        self.program = program
        self.width = width or analyze(program)
        self.cfg = self.width.cfg
        self.liveness = (liveness
                         or LivenessAnalysis(program, self.cfg)).run()
        #: leader -> effect summary (reachable blocks only)
        self.effects: dict[int, BlockEffects] = {}
        #: every reachable store's byte range, program-wide
        self.store_ranges: tuple[AccessRange, ...] = ()
        #: every reachable load's byte range, program-wide
        self.load_ranges: tuple[AccessRange, ...] = ()
        self._ran = False

    # ----------------------------------------------------------------- run

    def run(self) -> "EffectsAnalysis":
        if self._ran:
            return self
        self._ran = True
        program = self.program
        analysis = self.width
        instructions = program.instructions

        loads: list[AccessRange] = []
        stores: list[AccessRange] = []
        for block in self.cfg.reachable_blocks():
            bl: list[AccessRange] = []
            bs: list[AccessRange] = []
            for i in range(block.start, block.end):
                inst = instructions[i]
                if inst.is_load:
                    bl.append(_access_range(analysis, i, inst.mem_size,
                                            is_store=False))
                elif inst.is_store:
                    bs.append(_access_range(analysis, i, inst.mem_size,
                                            is_store=True))
            loads.extend(bl)
            stores.extend(bs)
            effect = (STORES if bs else LOAD_ONLY if bl else PURE)
            self.effects[block.start] = BlockEffects(
                leader=block.start, effect=effect,
                loads=tuple(bl), stores=tuple(bs))
        self.load_ranges = tuple(loads)
        self.store_ranges = tuple(stores)
        return self


def analyze_effects(program: Program,
                    width: WidthAnalysis | None = None,
                    liveness: LivenessAnalysis | None = None,
                    ) -> EffectsAnalysis:
    """Run width, liveness, and effects analyses; return the effects."""
    return EffectsAnalysis(program, width, liveness).run()
