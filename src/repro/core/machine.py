"""The out-of-order timing machine (SimpleScalar ``sim-outorder`` style).

Each cycle runs the pipeline stages in reverse order — commit,
writeback, issue, dispatch, fetch — so that information flows one stage
per cycle, exactly as SimpleScalar's main loop does:

* **fetch** pulls functionally executed :class:`~repro.core.feed.DynInst`
  records from the feed through the I-cache into the fetch queue,
  breaking on predicted-taken branches;
* **dispatch** renames them into the RUU/LSQ, linking register and
  memory dependences;
* **issue** selects ready instructions oldest-first up to the issue
  width and functional-unit limits — and, when enabled, *packs* narrow
  operations into shared ALUs (Section 5);
* **writeback** completes instructions, resolves mispredicted branches
  (squash + recovery + Table 1's 2-cycle penalty), and detects replay
  traps for speculatively packed wide operations (Section 5.3);
* **commit** retires in order, sending stores to the D-cache.

The machine also hosts the measurement instruments: the width histogram
(Figures 1/4/5), the fluctuation tracker (Figure 2), and the power
accountant (Figures 6/7), all sampled at issue time — when operations
actually exercise functional units, wrong path included.

Observability hooks (:mod:`repro.obs`) ride on top of the timing model
without perturbing it:

* a **pipeline event bus** — :meth:`Machine.subscribe` registers a
  callable that receives typed events (fetch, icache_miss, dispatch,
  issue, pack_join, replay_trap, mispredict_recover, complete, commit,
  squash).  Every emission site is guarded by ``if self._subscribers:``
  so an unobserved machine allocates no event objects;
* **per-cycle probes** — :meth:`Machine.add_probe` objects get
  ``on_cycle(machine)`` after each simulated cycle (interval sampler);
* **stall attribution** — :meth:`Machine.enable_stall_attribution`
  makes the issue stage classify every unused issue slot per cycle
  (frontend, deps, structural, recovery), conserving
  ``issue_width × cycles`` slots exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.bitwidth.detect import operand_pair_width
from repro.core.config import BASELINE, MachineConfig
from repro.core.feed import DynInst, Feed
from repro.core.ruu import RUU, RUUEntry
from repro.isa.instruction import Program
from repro.isa.opcodes import Opcode, OpClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs.attribution import StallAttribution
from repro.obs.events import (
    CommitEvent,
    CompleteEvent,
    DispatchEvent,
    Event,
    FetchEvent,
    ICacheMissEvent,
    IssueEvent,
    MispredictRecoverEvent,
    PackJoinEvent,
    ReplayTrapEvent,
    SquashEvent,
    Subscriber,
)
from repro.packing.pack import OpenPack, open_pack, replay_overflows, try_join
from repro.power.accounting import PowerAccountant, PowerReport
from repro.stats.counters import CoreStats
from repro.stats.fluctuation import FluctuationTracker
from repro.stats.widths import WIDTH_TRACKED_CLASSES, WidthHistogram


@dataclass
class RunResult:
    """Everything a single simulation run produces."""

    name: str
    config: MachineConfig
    stats: CoreStats
    widths: WidthHistogram
    fluctuation: FluctuationTracker
    power: PowerReport | None

    @property
    def ipc(self) -> float:
        return self.stats.ipc


class Machine:
    """One simulated processor bound to one program."""

    def __init__(self, program: Program,
                 config: MachineConfig = BASELINE) -> None:
        self.program = program
        self.config = config
        self.feed = Feed(program, config)
        self.hierarchy = MemoryHierarchy(config.hierarchy)
        self.ruu = RUU(size=config.ruu_size, lsq_size=config.lsq_size)
        self.fetch_queue: deque[DynInst] = deque()
        self.stats = CoreStats()
        self.widths = WidthHistogram()
        self.fluctuation = FluctuationTracker()
        self.accountant = PowerAccountant(policy=config.gating)

        self._producer: dict[int, int] = {}        # reg -> producing seq
        self._completions: dict[int, list[RUUEntry]] = {}
        self._cycle = 0
        self._fetch_stall_until = 0
        self._fetch_resume = 0
        self._measuring = True
        self.done = False

        # observability (zero-cost until something attaches)
        self._subscribers: list[Subscriber] = []
        self._probes: list = []
        self.attribution: StallAttribution | None = None

    # ----------------------------------------------------------- observability

    def subscribe(self, handler: Subscriber) -> Subscriber:
        """Attach an event-bus subscriber (a callable taking one
        :class:`~repro.obs.events.Event`); returns it for chaining."""
        self._subscribers.append(handler)
        return handler

    def unsubscribe(self, handler: Subscriber) -> None:
        self._subscribers.remove(handler)

    def add_probe(self, probe) -> object:
        """Attach a per-cycle probe: ``probe.on_cycle(machine)`` runs
        after every simulated cycle."""
        self._probes.append(probe)
        return probe

    def remove_probe(self, probe) -> None:
        self._probes.remove(probe)

    @property
    def cycle(self) -> int:
        """Current simulated cycle (read-only observability accessor)."""
        return self._cycle

    def pending_completions(self) -> dict[int, list["RUUEntry"]]:
        """Scheduled writebacks keyed by completion cycle.

        Live view for probes (the chaos harness's replay-drop injector
        perturbs entries here before their writeback cycle); treat as
        read-only structure — mutate only entry fields, never the dict.
        """
        return self._completions

    def enable_stall_attribution(self) -> StallAttribution:
        """Turn on top-down issue-slot accounting; returns the
        accumulating :class:`~repro.obs.attribution.StallAttribution`."""
        if self.attribution is None:
            self.attribution = StallAttribution(
                issue_width=self.config.issue_width)
        return self.attribution

    def enable_profiling(self, profiler=None):
        """Attach a wall-clock phase profiler
        (:class:`~repro.perf.profiler.PhaseProfiler`) to this machine's
        hot loop; returns it (detach with ``profiler.detach()``).

        Opt-in and attach-time only: a machine that never calls this
        runs the exact unwrapped code path (the perf package is not
        even imported), mirroring the event bus's
        zero-cost-when-unused contract.
        """
        if profiler is None:
            from repro.perf.profiler import PhaseProfiler
            profiler = PhaseProfiler()
        return profiler.attach(self)

    def _emit(self, event: Event) -> None:
        for handler in self._subscribers:
            handler(event)

    # ------------------------------------------------------------------ run

    def fast_forward(self, instructions: int) -> int:
        """Warm caches and predictors functionally (paper Section 3.2:
        'a fast-mode ... simulation that updates only the caches and
        branch predictors').  Returns instructions actually executed."""
        self.feed.fast_mode = True
        executed = 0
        for _ in range(instructions):
            dyn = self.feed.next()
            if dyn is None:
                break
            self.hierarchy.fetch_instruction(dyn.pc)
            if dyn.mem_addr is not None:
                self.hierarchy.access_data(dyn.mem_addr,
                                           is_write=dyn.inst.is_store)
            executed += 1
        self.feed.fast_mode = False
        return executed

    def run(self, max_insts: int | None = None) -> RunResult:
        """Simulate until the program halts (or ``max_insts`` commit)."""
        target = self.stats.committed + max_insts if max_insts else None
        while not self.done and self._cycle < self.config.max_cycles:
            if target is not None and self.stats.committed >= target:
                break
            self.step()
        power = (self.accountant.report(self.stats.cycles)
                 if self.stats.cycles else None)
        return RunResult(name=self.program.name, config=self.config,
                         stats=self.stats, widths=self.widths,
                         fluctuation=self.fluctuation, power=power)

    def step(self) -> None:
        """Simulate one machine cycle (all stages, reverse order)."""
        self._commit()
        self._writeback()
        self._issue()
        self._dispatch()
        self._fetch()
        self._cycle += 1
        self.stats.cycles += 1
        if self._probes:
            for probe in self._probes:
                probe.on_cycle(self)

    #: Back-compat alias: external drivers historically stepped the
    #: machine through the private name.
    _step = step

    # ---------------------------------------------------------------- commit

    def _commit(self) -> None:
        retired = 0
        while retired < self.config.commit_width:
            head = self.ruu.head()
            if head is None or not head.completed:
                break
            self.ruu.retire_head()
            if self._subscribers:
                self._emit(CommitEvent(cycle=self._cycle, seq=head.seq))
            dyn = head.dyn
            dest = dyn.inst.dest_reg()
            if dest is not None and self._producer.get(dest) == head.seq:
                del self._producer[dest]
            if dyn.inst.is_store and dyn.mem_addr is not None:
                self.hierarchy.access_data(dyn.mem_addr, is_write=True)
            self.stats.committed += 1
            self.stats.count_class(dyn.op_class.value)
            if dyn.inst.is_branch:
                self.stats.branches_committed += 1
                if dyn.inst.is_conditional:
                    self.stats.cond_branches_committed += 1
            retired += 1
            if dyn.inst.opcode is Opcode.HALT:
                self.done = True
                break

    # -------------------------------------------------------------- writeback

    def _writeback(self) -> None:
        entries = self._completions.pop(self._cycle, None)
        if not entries:
            return
        for entry in entries:
            if entry.squashed:
                continue
            if entry.replay_packed and replay_overflows(entry):
                # Replay trap: squash this instruction's speculative
                # packed execution and re-issue it full width.
                entry.issued = False
                entry.replay_packed = False
                entry.no_pack = True
                entry.replay_pending = True
                entry.replay_ready_cycle = self._cycle + 1
                self.stats.replay_traps += 1
                if self._subscribers:
                    self._emit(ReplayTrapEvent(cycle=self._cycle,
                                               seq=entry.seq))
                continue
            entry.completed = True
            entry.complete_cycle = self._cycle
            self.stats.completed += 1
            if self._subscribers:
                self._emit(CompleteEvent(cycle=self._cycle, seq=entry.seq))
            dyn = entry.dyn
            if dyn.mispredicted and not dyn.spec:
                self._recover(entry)

    def _recover(self, branch: RUUEntry) -> None:
        """Misprediction recovery at branch resolution."""
        self.stats.mispredicts += 1
        squashed = self.ruu.squash_after(branch.seq)
        dropped = list(self.fetch_queue) if self._subscribers else ()
        self.fetch_queue.clear()
        self.feed.recover()
        self._rebuild_producers()
        # Redirect: one cycle to restart fetch plus Table 1's penalty.
        self._fetch_resume = self._cycle + 1 + self.config.mispredict_penalty
        if self._subscribers:
            self._emit(MispredictRecoverEvent(
                cycle=self._cycle, seq=branch.seq,
                resume_cycle=self._fetch_resume))
            for entry in squashed:
                self._emit(SquashEvent(cycle=self._cycle, seq=entry.seq))
            for dyn in dropped:
                self._emit(SquashEvent(cycle=self._cycle, seq=dyn.seq))

    def _rebuild_producers(self) -> None:
        self._producer.clear()
        for entry in self.ruu.entries:
            dest = entry.dyn.inst.dest_reg()
            if dest is not None:
                self._producer[dest] = entry.seq

    # ------------------------------------------------------------------ issue

    def _issue(self) -> None:
        config = self.config
        pcfg = config.packing
        slots = config.issue_width
        alus = config.int_alus
        mults = config.int_mult_div
        packs: dict[object, OpenPack] = {}
        # stall-attribution bookkeeping (cheap int/bool updates; only
        # consumed when enable_stall_attribution() was called)
        n_struct_alu = 0
        n_struct_mult = 0
        blocked = False

        for entry in self.ruu.entries:
            if entry.issued or entry.completed or entry.squashed:
                continue
            if slots <= 0 and not (pcfg.enabled and packs):
                break
            if entry.dispatch_cycle >= self._cycle:
                blocked = True   # dispatched this cycle; issuable next
                break   # younger entries dispatched even later
            if entry.replay_pending and self._cycle < entry.replay_ready_cycle:
                blocked = True   # serving a replay re-issue window
                continue
            if not self._ready(entry):
                blocked = True   # waiting on producers (deps not ready)
                continue
            dyn = entry.dyn
            needs_mult = dyn.op_class is OpClass.INT_MULT

            if pcfg.enabled and not needs_mult and not entry.replay_pending:
                pack, is_replay = try_join(packs, entry, pcfg)
                if pack is not None:
                    self._start_execution(entry, packed=True,
                                          replay=is_replay)
                    self._count_pack_member(pack)
                    if self._subscribers:
                        self._emit(PackJoinEvent(
                            cycle=self._cycle, seq=entry.seq,
                            leader_seq=pack.members[0].seq,
                            size=len(pack.members)))
                    continue
            if slots <= 0:
                continue
            if needs_mult:
                if mults <= 0:
                    n_struct_mult += 1   # ready, denied the multiplier
                    continue
                mults -= 1
            else:
                if alus <= 0:
                    n_struct_alu += 1    # ready, denied an ALU
                    continue
                alus -= 1
            slots -= 1
            self._start_execution(entry)
            if (pcfg.enabled and not needs_mult
                    and not entry.replay_pending):
                open_pack(packs, entry, pcfg)

        if self.attribution is not None:
            self.attribution.account_cycle(
                used=config.issue_width - slots, unused=slots,
                n_struct_alu=n_struct_alu, n_struct_mult=n_struct_mult,
                blocked=blocked,
                in_recovery=self._cycle < self._fetch_resume)

    def _count_pack_member(self, pack: OpenPack) -> None:
        """Pack statistics: a pack 'happens' once a second member joins."""
        if len(pack.members) == 2:
            self.stats.pack_groups += 1
            self.stats.packed_ops += 2   # leader + first follower
            pack.members[0].packed = True
            pack.members[0].pack_leader = True
            if pack.wide_leader:
                # A wide op opened this pack; gaining a companion makes
                # its upper-bit pass-through speculative (Section 5.3).
                pack.members[0].replay_packed = True
                self.stats.replay_packed_ops += 1
        else:
            self.stats.packed_ops += 1
        member = pack.members[-1]
        if member.replay_packed:
            self.stats.replay_packed_ops += 1

    def _ready(self, entry: RUUEntry) -> bool:
        for seq in entry.deps:
            if not self.ruu.dep_satisfied(seq):
                return False
        return True

    def _start_execution(self, entry: RUUEntry, packed: bool = False,
                         replay: bool = False) -> None:
        config = self.config
        dyn = entry.dyn
        entry.issued = True
        entry.issue_cycle = self._cycle
        entry.packed = entry.packed or packed
        entry.replay_packed = replay
        entry.replay_pending = False
        if self._subscribers:
            self._emit(IssueEvent(cycle=self._cycle, seq=entry.seq,
                                  packed=packed, replay=replay))
        if dyn.op_class is OpClass.INT_MULT:
            latency = config.mult_latency
        elif dyn.inst.is_load and dyn.mem_addr is not None:
            latency = (config.alu_latency
                       + self.hierarchy.access_data(dyn.mem_addr))
        else:
            latency = config.alu_latency
        self._completions.setdefault(self._cycle + latency, []).append(entry)
        self.stats.issued += 1
        if self._measuring:
            self._measure(dyn)

    def _measure(self, dyn: DynInst) -> None:
        """Sample the paper's instruments at execution time."""
        if dyn.op_class in WIDTH_TRACKED_CLASSES:
            pair = operand_pair_width(dyn.a_val, dyn.b_val)
            self.widths.record(dyn.op_class, pair)
            self.fluctuation.record(dyn.pc, pair)
            self.accountant.record_op(
                dyn.op_class, dyn.tag_a, dyn.tag_b,
                produces_result=dyn.result is not None,
                operand_from_load=dyn.operand_from_load)
        elif dyn.op_class is OpClass.JUMP:
            self.accountant.record_op(
                dyn.op_class, dyn.tag_a, dyn.tag_b,
                produces_result=dyn.result is not None,
                operand_from_load=dyn.operand_from_load)

    # ---------------------------------------------------------------- dispatch

    def _dispatch(self) -> None:
        dispatched = 0
        while dispatched < self.config.decode_width and self.fetch_queue:
            dyn = self.fetch_queue[0]
            if dyn.fetch_cycle >= self._cycle:
                break
            if not self.ruu.has_room(dyn.inst.is_mem):
                break
            self.fetch_queue.popleft()
            entry = RUUEntry(dyn=dyn, dispatch_cycle=self._cycle,
                             deps=self._dependences(dyn))
            if dyn.op_class in (OpClass.NOP, OpClass.HALT):
                entry.issued = True
                entry.completed = True
                entry.complete_cycle = self._cycle
            self.ruu.add(entry)
            if self._subscribers:
                self._emit(DispatchEvent(cycle=self._cycle, seq=dyn.seq))
                if entry.completed:   # NOP/HALT complete at dispatch
                    self._emit(CompleteEvent(cycle=self._cycle,
                                             seq=dyn.seq))
            dest = dyn.inst.dest_reg()
            if dest is not None:
                self._producer[dest] = dyn.seq
            self.stats.dispatched += 1
            dispatched += 1

    def _dependences(self, dyn: DynInst) -> tuple[int, ...]:
        deps = []
        for reg in dyn.inst.src_regs():
            seq = self._producer.get(reg)
            if seq is not None:
                deps.append(seq)
        if dyn.inst.is_load and dyn.mem_addr is not None:
            deps.extend(self._older_store_deps(dyn))
        return tuple(deps)

    def _older_store_deps(self, dyn: DynInst) -> list[int]:
        """Loads wait on older overlapping stores (oracle addresses, as
        in SimpleScalar's LSQ)."""
        lo = dyn.mem_addr
        hi = lo + dyn.inst.mem_size
        deps = []
        for entry in self.ruu.entries:
            other = entry.dyn
            if not other.inst.is_store or other.mem_addr is None:
                continue
            if other.mem_addr < hi and lo < other.mem_addr + other.inst.mem_size:
                deps.append(other.seq)
        return deps

    # ------------------------------------------------------------------ fetch

    def _fetch(self) -> None:
        if self._cycle < self._fetch_resume:
            return
        if self._cycle < self._fetch_stall_until:
            return
        fetched = 0
        l1_latency = self.config.hierarchy.l1_latency
        while (fetched < self.config.fetch_width
               and len(self.fetch_queue) < self.config.fetch_queue_size):
            dyn = self.feed.next()
            if dyn is None:
                break
            self.stats.fetched += 1
            latency = self.hierarchy.fetch_instruction(dyn.pc)
            dyn.fetch_cycle = self._cycle
            self.fetch_queue.append(dyn)
            fetched += 1
            missed = latency > l1_latency
            if missed:
                # I-cache miss: this instruction arrives when the fill
                # completes, and fetch stalls until then.
                dyn.fetch_cycle = self._cycle + latency - 1
                self._fetch_stall_until = self._cycle + latency - 1
            if self._subscribers:
                if missed:
                    self._emit(ICacheMissEvent(cycle=self._cycle,
                                               pc=dyn.pc, latency=latency))
                self._emit(FetchEvent(cycle=dyn.fetch_cycle, seq=dyn.seq,
                                      pc=dyn.pc, spec=dyn.spec,
                                      text=str(dyn.inst)))
            if missed:
                break
            if dyn.next_index != dyn.index + 1:
                break   # fetch break after any predicted-taken transfer
