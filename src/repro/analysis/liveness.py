"""Backward register-liveness fixpoint.

Runs over the recovered CFG (:mod:`repro.analysis.cfg`), complementing
the forward width fixpoint (:mod:`repro.analysis.dataflow`) with the
backward facts the dead-write lint rule needs:

* per-block **use/def summaries** — ``use`` is the set of upward-exposed
  register reads (read before any write inside the block), ``defs`` the
  set of registers the block writes;
* the **live-in / live-out fixpoint** —
  ``live_in(B) = use(B) | (live_out(B) - defs(B))`` and
  ``live_out(B) = U live_in(S)`` over B's CFG successors, iterated to
  convergence with a backward worklist.  The CFG's successor relation
  deliberately over-approximates indirect control flow (``ret`` may
  return to any call site, ``jmp`` anywhere), so the computed live sets
  over-approximate true liveness — which makes every *dead* verdict
  ("not live here") sound.

Everything here is a pure function of the program; the linter's L006
rule reads :meth:`LivenessAnalysis.dead_writes`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import CFG, build_cfg
from repro.isa.instruction import Program


@dataclass(frozen=True)
class BlockLiveness:
    """Converged liveness facts for one reachable basic block."""

    leader: int
    #: upward-exposed reads: registers read before any in-block write
    use: frozenset[int]
    #: registers written anywhere in the block
    defs: frozenset[int]
    live_in: frozenset[int]
    live_out: frozenset[int]


class LivenessAnalysis:
    """Backward liveness of one program; run once."""

    def __init__(self, program: Program, cfg: CFG | None = None) -> None:
        self.program = program
        self.cfg = cfg or build_cfg(program)
        #: leader -> converged block facts (reachable blocks only)
        self.blocks: dict[int, BlockLiveness] = {}
        self._ran = False

    # ----------------------------------------------------------- summaries

    @staticmethod
    def block_use_defs(program: Program, start: int,
                       end: int) -> tuple[frozenset[int], frozenset[int]]:
        """(upward-exposed reads, written registers) of the instruction
        range ``[start, end)`` — the per-block transfer function's
        constants."""
        use: set[int] = set()
        defs: set[int] = set()
        for i in range(start, end):
            inst = program.instructions[i]
            for reg in inst.src_regs():
                if reg not in defs:
                    use.add(reg)
            dest = inst.dest_reg()
            if dest is not None:
                defs.add(dest)
        return frozenset(use), frozenset(defs)

    # ------------------------------------------------------------ fixpoint

    def run(self) -> "LivenessAnalysis":
        if self._ran:
            return self
        self._ran = True
        cfg = self.cfg
        program = self.program
        reachable = [b for b in cfg.reachable_blocks()]
        if not reachable:
            return self

        leaders = [b.start for b in reachable]
        leader_set = set(leaders)
        use: dict[int, frozenset[int]] = {}
        defs: dict[int, frozenset[int]] = {}
        succs: dict[int, tuple[int, ...]] = {}
        preds: dict[int, list[int]] = {lead: [] for lead in leaders}
        for block in reachable:
            u, d = self.block_use_defs(program, block.start, block.end)
            use[block.start] = u
            defs[block.start] = d
            out = tuple(s for s in block.succs if s in leader_set)
            succs[block.start] = out
            for s in out:
                preds[s].append(block.start)

        live_in: dict[int, frozenset[int]] = {
            lead: frozenset() for lead in leaders}
        live_out: dict[int, frozenset[int]] = {
            lead: frozenset() for lead in leaders}

        # Backward worklist: seed with every block; when a block's
        # live-in grows, re-queue its predecessors.
        worklist = list(reversed(leaders))
        queued = set(worklist)
        while worklist:
            lead = worklist.pop()
            queued.discard(lead)
            out: frozenset[int] = frozenset().union(
                *(live_in[s] for s in succs[lead])) \
                if succs[lead] else frozenset()
            live_out[lead] = out
            new_in = use[lead] | (out - defs[lead])
            if new_in != live_in[lead]:
                live_in[lead] = new_in
                for p in preds[lead]:
                    if p not in queued:
                        queued.add(p)
                        worklist.append(p)

        self.blocks = {
            lead: BlockLiveness(leader=lead, use=use[lead],
                                defs=defs[lead], live_in=live_in[lead],
                                live_out=live_out[lead])
            for lead in leaders}
        return self

    # ----------------------------------------------------------- lint hooks

    def dead_writes(self) -> list[int]:
        """Instruction indices whose register write is provably dead:
        the written register is not live immediately after the write
        (it is rewritten before any read on every CFG path, or no path
        reads it again).  Sound because the live sets over-approximate;
        excludes R31 writes (L002's finding, not a liveness fact)."""
        self.run()
        program = self.program
        dead: list[int] = []
        for lead, facts in self.blocks.items():
            block = self.cfg.blocks[lead]
            live = set(facts.live_out)
            for i in range(block.end - 1, block.start - 1, -1):
                inst = program.instructions[i]
                dest = inst.dest_reg()
                if dest is not None:
                    if dest not in live:
                        dead.append(i)
                    live.discard(dest)
                live.update(inst.src_regs())
        return sorted(dead)


def analyze_liveness(program: Program,
                     cfg: CFG | None = None) -> LivenessAnalysis:
    """Build (or reuse) the CFG, run the backward fixpoint, return it."""
    return LivenessAnalysis(program, cfg).run()
