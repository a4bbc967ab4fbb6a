"""Fused functional + timing fast core (phase 1 of the fast backend).

:class:`FastMachine` is a cycle-accurate reimplementation of
:class:`~repro.core.machine.Machine` + :class:`~repro.core.feed.Feed`
optimized SimpleScalar-style for raw speed:

* the static program is precompiled once into flat decode tables
  (:mod:`repro.fastsim.compile`) so the hot loop does integer list
  indexing instead of attribute/dataclass traffic;
* a dynamic instruction is one plain Python list of its 24 dynamic
  fields (``E_*`` indices below) instead of a ``DynInst`` + ``RUUEntry``
  pair; its PC, opcode and class stay in the decode tables under
  ``E_CIDX`` (a measured instruction's PC is ``base_pc + 4 * cidx``);
* width tags are small ints (:data:`~repro.bitwidth.tags.TAG_WIDE` /
  ``TAG_NARROW33`` / ``TAG_NARROW16``) instead of ``WidthTag`` objects,
  kept by one rule: a register's tag is ``TAG_WIDE`` when it came from
  a load and load zero-detect is off, and the width code of its value
  otherwise;
* the per-op instruments (histogram / fluctuation / power dicts) are
  *not* updated in the loop — each measured issue extends one flat
  :class:`~repro.fastsim.capture.TraceCapture` list by six values, and
  the vectorized phase 2 (:mod:`repro.fastsim.replay`) rebuilds the
  instruments from it afterwards;
* the whole cycle loop is one fused function (:meth:`FastMachine._loop`)
  with every hot structure bound to a local: statistics accumulate in
  local ints flushed once at loop exit, and commit counts retirements
  per decode index, from which the class mix and branch counts are
  derived at exit;
* issue is wakeup-driven instead of scan-driven: each entry carries a
  count of still-incomplete producers (``E_NWAIT``) and each producer a
  list of waiting consumers (``E_CONS``); writeback decrements the
  counters and pushes newly ready entries onto a heap of the entries
  themselves (list order is their unique ``E_SEQ``), so the issue
  stage touches only ready work — never the whole window.  This
  selects the identical issue set in the identical order as the
  reference's age-order scan, because that scan skips every entry with
  an incomplete producer anyway;
* consecutive accesses to the same cache block skip the hierarchy
  walk: the previous access proved L1+TLB residency at MRU, so the walk
  would return ``l1_latency`` and change nothing but hit/dirty counters
  (cache *latencies*, and therefore cycles, are unaffected; only
  ``CacheStats`` counters — which no
  :class:`~repro.core.machine.RunResult` field reads — drift).  A block
  inside one page implies the page; when blocks can straddle pages
  (the page size is not a multiple of the block size) the shortcut is
  never taken;
* the warm-up (:meth:`FastMachine._forward`) and the length count
  (:func:`count_to_halt`) decode nothing per instruction: they call
  generated straight-line runs (:mod:`repro.fastsim.runs`), one Python
  function per run with the decode constants folded in, compiled once
  per program and process;
* the cycle loop, :meth:`FastMachine.step` and the warm-up share one
  L1/TLB walk and one combining-predictor step, built once per
  hierarchy and predictor; the warm-up classifies no result and sets
  the tags by the rule above in one pass over the registers when it
  returns;
* a fresh machine restores the warmed state that the last fast-forward
  of its program, count and front-end config pickled (:data:`_WARM`).

Everything the timing model decides (fetch breaks, dependences, issue
selection, packing, replay traps, misprediction recovery, cache
latencies) is replicated decision-for-decision, because the measured
stream itself is timing-dependent: wrong-path depth depends on when
branches resolve.  The contract — enforced by ``repro-equivalence``
(:mod:`repro.fastsim.cli`, run by the CI equivalence matrix) and the
differential tests — is that ``FastMachine.run`` serializes
identically to ``Machine.run``.
"""

from __future__ import annotations

import gc
import pickle
from collections import deque
from heapq import heappop, heappush

from repro.asm.layout import PAGE_BYTES as _PAGE_BYTES
from repro.bitwidth.tags import tag_code_of_value
from repro.branch.btb import BranchTargetBuffer, ReturnAddressStack
from repro.branch.predictors import (
    CombiningPredictor,
    PerfectPredictor,
    make_predictor,
)
from repro.core.config import BASELINE, MachineConfig
from repro.core.machine import RunResult
from repro.fastsim.capture import TraceCapture
from repro.fastsim.replay import build_result
from repro.fastsim.compile import compile_program
from repro.fastsim.runs import COUNT_VARIANT, SPEC, WARM, bind
from repro.isa.instruction import Program
from repro.isa.registers import NUM_INT_REGS
from repro.memory.backing import MainMemory, SpeculativeMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats.counters import CoreStats

# Field indices into the per-instruction entry list (one flat list per
# dynamic instruction, covering the dynamic half of DynInst + RUUEntry;
# static facts stay in the decode tables under E_CIDX).  The fused loop
# uses these *numerically* — keep the literal values in its comments in
# sync.
E_SEQ = 0       # dynamic sequence number (unique: orders the ready heap)
E_CIDX = 1      # decode-table index (out-of-range clamped to sentinel)
E_FETCH = 2     # cycle the instruction arrived from the I-cache
E_DISP = 3      # dispatch cycle
E_CONS = 4      # consumer entries awaiting this result (None when none)
E_ISSUED = 5
E_COMP = 6      # completed
E_SQUASH = 7
E_NWAIT = 8     # count of still-incomplete producers (wakeup counter)
E_RPACKED = 9   # speculatively packed with a wide operand
E_RPEND = 10    # replay-trapped, awaiting full-width re-issue
E_RREADY = 11   # cycle the replay re-issue becomes eligible
E_NOPACK = 12   # excluded from packing (post-replay)
E_A = 13        # first ALU operand (uint64)
E_B = 14        # second ALU operand (uint64)
E_TA = 15       # width-tag code of a
E_TB = 16       # width-tag code of b
E_FL = 17       # an operand came straight from a load
E_RES = 18      # result value (None when no result)
E_ADDR = 19     # effective memory address (None for non-mem)
E_MIS = 20      # first wrong prediction on the good path
E_SPEC = 21     # executed on the wrong path
E_ROW = 22      # capture row of the latest measurement (-1: unmeasured)
E_DEAD = 23     # retired or squashed (producer bookkeeping)

#: What a fast-forward changes; ``_spec_memory`` only wraps ``_memory``.
_WARM_FIELDS = ("_regs", "_tags", "_from_load", "_memory", "_predictor",
                "_btb", "_ras", "hierarchy", "_fetch_index", "_seq",
                "_halted", "_iblk", "_dblk")

#: Program name -> ``(program, key, pickled _WARM_FIELDS, executed)`` of
#: the last fresh fast-forward (see :meth:`FastMachine.fast_forward`).
#: Module-level like ``registry._PROGRAMS``: the engine's ``_simulate``
#: has no object to carry it.  Threads only get and set whole tuples.
_WARM: dict[str, tuple] = {}


class FastMachine:
    """One fast-backend simulated processor bound to one program."""

    def __init__(self, program: Program,
                 config: MachineConfig = BASELINE) -> None:
        self.program = program
        self.config = config
        self.cp = compile_program(program)
        self.stats = CoreStats()
        self.capture = TraceCapture()
        self.hierarchy = MemoryHierarchy(config.hierarchy)
        self.done = False

        # ---- functional (feed) state --------------------------------
        self._memory = MainMemory(program.image)
        self._spec_memory = SpeculativeMemory(self._memory)
        self._predictor = make_predictor(config.predictor)
        self._perfect = isinstance(self._predictor, PerfectPredictor)
        self._btb = BranchTargetBuffer(config.btb_entries, config.btb_assoc)
        self._ras = ReturnAddressStack(config.ras_entries)
        self._regs = [0] * NUM_INT_REGS
        self._tags = [2] * NUM_INT_REGS          # TAG_NARROW16 == ZERO_TAG
        self._from_load = [False] * NUM_INT_REGS
        self._detect_loads = config.gating.detect_loads
        self._fetch_index = self.cp.entry
        self._seq = 0
        self._spec = False
        self._halted = False
        self._checkpoint = None

        # ---- timing state -------------------------------------------
        self._entries: deque = deque()    # in-flight window, age order
        self._ready: list = []            # issue-ready heap of entries
        self._stores: list = []           # dispatched stores, age order
        self._producer: list = [None] * NUM_INT_REGS   # reg -> entry
        self._completions: dict = {}      # cycle -> [entry]
        self._fetchq: deque = deque()
        self._lsq = 0
        self._cycle = 0
        self._fetch_stall_until = 0
        self._fetch_resume = 0

        # rows the packing logic touched, for the phase-2 eligibility
        # cross-check (every packed row must be a vectorized candidate)
        self._packed_rows: list = []
        self._replay_rows: list = []
        self._retired = [0] * (self.cp.n + 1)   # commits per decode index

        # ---- consecutive same-block access shortcut -----------------
        hcfg = config.hierarchy
        self._l1_lat = hcfg.l1_latency
        self._blk_bytes = hcfg.block_bytes
        self._page_bytes = self.hierarchy.itlb.page_bytes
        # The walk latency that proves a block L1- and TLB-resident at
        # MRU.  A block inside one page implies its page; a block that
        # can straddle two never takes the shortcut (-1 matches no walk).
        self._mru_lat = (hcfg.l1_latency
                         if self._page_bytes % hcfg.block_bytes == 0 else -1)
        self._iblk = -1
        self._dblk = -1
        self._share_steps()

    def _share_steps(self) -> None:
        """Build the walks and predictor step that :meth:`_loop`,
        :meth:`step` and :meth:`_forward` share: once per hierarchy and
        predictor, so at construction and after a warm-state restore."""
        self._i_walk, self._d_walk = self._walks()
        self._bp = self._bp_step()

    # --------------------------------------------------------------- run

    def fast_forward(self, instructions: int) -> int:
        """Warm caches and predictors functionally (Section 3.2); returns
        the instructions actually executed.

        The warmed state depends only on the ``Program`` object,
        ``instructions``, the predictor/BTB/RAS fields, the hierarchy
        and load zero-detect.  A fresh machine (nothing fetched or
        forwarded yet) restores it from :data:`_WARM` when they match,
        or runs :meth:`_forward` and stores it; any other machine just
        runs :meth:`_forward`.
        """
        if self._seq or self._cycle:
            return self._forward(instructions)
        program = self.program
        c = self.config
        key = (instructions, c.predictor, c.btb_entries, c.btb_assoc,
               c.ras_entries, c.hierarchy, c.gating.detect_loads)
        entry = _WARM.get(program.name)
        if entry is not None and entry[0] is program and entry[1] == key:
            for name, value in zip(_WARM_FIELDS, pickle.loads(entry[2])):
                setattr(self, name, value)
            self._spec_memory = SpeculativeMemory(self._memory)
            self._share_steps()
            return entry[3]
        executed = self._forward(instructions)
        state = pickle.dumps([getattr(self, name) for name in _WARM_FIELDS],
                             pickle.HIGHEST_PROTOCOL)
        _WARM[program.name] = (program, key, state, executed)
        return executed

    def _forward(self, instructions: int) -> int:
        """Fast mode behind :meth:`fast_forward`: control transfers train
        the predictor, BTB and RAS, then follow the correct path.
        Entered mid-speculation (``run(max_insts)`` and ``step()`` can
        stop there), it keeps the wrong-path rules (overlay memory, no
        training) and stops at a HALT, as the reference feed does.

        Each step runs one generated run (:mod:`repro.fastsim.runs`)
        bound to this machine's registers, memory, the walks and
        predictor step :meth:`_loop` shares, the BTB and the RAS; a
        warm-up that ends inside a run runs a copy capped at the
        instructions left.  Nothing here reads a width tag, so no result
        is classified: the tags follow from ``regs`` and ``from_load``
        by :meth:`_loop`'s rule, and one pass over the registers sets
        them on return.
        """
        cp = self.cp
        spec = self._spec
        regs = self._regs
        fload = self._from_load
        mem = self._spec_memory if spec else self._memory
        shortcut = [self._iblk, self._dblk]
        btb = self._btb
        ras = self._ras
        variant = (SPEC if spec else WARM, self._blk_bytes, self._mru_lat)
        defaults = (regs, fload, self._memory._pages.get, mem.store,
                    mem.load, self._i_walk, self._d_walk, self._bp,
                    btb.lookup, btb.update, ras.push, ras.pop, shortcut)
        bound: dict = {}
        index = self._fetch_index
        halted = self._halted
        executed = 0
        while executed < instructions and not halted:
            entry = bound.get(index)
            if entry is None:
                entry = bound[index] = bind(cp, variant, index, None,
                                            defaults)
            run, length, halts = entry
            if length > instructions - executed:   # ends inside the run
                run, length, halts = bind(cp, variant, index,
                                          instructions - executed, defaults)
            index = run()
            executed += length
            if halts:
                halted = not spec   # the wrong path stops before a HALT
                break

        tags = self._tags
        detect_loads = self._detect_loads
        for r in range(31):   # R31 keeps its zero tag
            tags[r] = (0 if fload[r] and not detect_loads
                       else tag_code_of_value(regs[r]))
        self._fetch_index = index
        self._seq += executed
        self._halted = halted
        self._iblk, self._dblk = shortcut
        return executed

    def run(self, max_insts: int | None = None) -> RunResult:
        """Simulate until the program halts (or ``max_insts`` commit),
        then replay the captured trace through the vectorized
        instruments (phase 2) and assemble the RunResult."""
        target = self.stats.committed + max_insts if max_insts else None
        # Phases 1 and 2 both allocate heavily but create no reference
        # cycles (entries reference only *older* entries; phase 2 builds
        # flat numpy columns); pausing the cyclic collector saves its
        # generation scans — otherwise the loop's deferred allocations
        # (entry lists) trigger a full collection right inside phase 2.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._loop(target, self.config.max_cycles)
            return build_result(self)
        finally:
            if gc_was_enabled:
                gc.enable()

    def step(self) -> None:
        """Simulate one machine cycle (no-op once the run is done)."""
        if not self.done:
            self._loop(None, self._cycle + 1)

    # ------------------------------------------- shared by both loops

    def _walks(self):
        """The L1 + TLB access walks of :meth:`_loop` and
        :meth:`_forward`: ``(i_walk(pc), d_walk(addr, is_write=False))``,
        each returning the access latency."""
        hier = self.hierarchy
        if hier.config.perfect:
            # all-hit hierarchy: the walk is already trivial
            return hier.fetch_instruction, hier.access_data
        l1_lat = self._l1_lat
        blk_b = self._blk_bytes
        page_b = self._page_bytes

        # L1-hit + TLB fast path, inlined over the cache/TLB guts.
        # Replacement state (LRU order, TLB contents) is updated exactly
        # as Cache.access/TLB.access would; on an L1 miss the full
        # hierarchy walk runs instead, so every latency — and all future
        # hit/miss behaviour — is identical.  Only the CacheStats/TLBStats
        # counters are skipped on the fast path (no RunResult field
        # reads them; see module docstring).
        def i_walk(pc, _sets=hier.l1i.num_sets,
                   _tags=hier.l1i._tags, _dirty=hier.l1i._dirty,
                   _pages=hier.itlb._pages,
                   _miss_lat=hier.itlb.miss_latency,
                   _entries=hier.itlb.entries,
                   _full=hier.fetch_instruction):
            blk = pc // blk_b
            row = _tags[blk % _sets]
            try:
                way = row.index(blk // _sets)
            except ValueError:
                return _full(pc)            # L1 miss: full walk
            if way:
                row.insert(0, row.pop(way))
                drow = _dirty[blk % _sets]
                drow.insert(0, drow.pop(way))
            page = pc // page_b
            if _pages and _pages[0] == page:
                return l1_lat
            try:
                pi = _pages.index(page)
            except ValueError:
                if len(_pages) >= _entries:
                    _pages.pop()
                _pages.insert(0, page)
                return l1_lat + _miss_lat
            _pages.insert(0, _pages.pop(pi))
            return l1_lat

        def d_walk(addr, is_write=False, _sets=hier.l1d.num_sets,
                   _tags=hier.l1d._tags, _dirty=hier.l1d._dirty,
                   _pages=hier.dtlb._pages,
                   _miss_lat=hier.dtlb.miss_latency,
                   _entries=hier.dtlb.entries,
                   _full=hier.access_data):
            blk = addr // blk_b
            si = blk % _sets
            row = _tags[si]
            try:
                way = row.index(blk // _sets)
            except ValueError:
                return _full(addr, is_write)   # L1 miss: full walk
            if way or is_write:
                drow = _dirty[si]
                drow.insert(0, drow.pop(way) or is_write)
                if way:
                    row.insert(0, row.pop(way))
            page = addr // page_b
            if _pages and _pages[0] == page:
                return l1_lat
            try:
                pi = _pages.index(page)
            except ValueError:
                if len(_pages) >= _entries:
                    _pages.pop()
                _pages.insert(0, page)
                return l1_lat + _miss_lat
            _pages.insert(0, _pages.pop(pi))
            return l1_lat

        return i_walk, d_walk

    def _bp_step(self):
        """The branch-predictor step of :meth:`_loop` and
        :meth:`_forward`: ``step(pc, taken, train)`` returns the
        predicted direction and, when ``train`` (the good path; the
        wrong path only consults), trains on ``taken``.

        Table 1's combining predictor is three saturating-counter tables
        plus histories, which the step updates directly instead of
        walking the predict()/update() call chain; its component
        PredictorStats, which no RunResult field reads, are skipped.
        Every other predictor keeps its method calls.
        """
        predictor = self._predictor
        if type(predictor) is not CombiningPredictor:
            def step(pc, taken, train, _p=predictor):
                if not train:
                    return _p.lookup(pc)
                predicted = _p.predict(pc, taken)
                _p.update(pc, taken)
                return predicted
            return step
        local = predictor.local
        glob = predictor.global_
        lt = local._table
        gt = glob._table
        st = predictor._selector

        def step(pc, taken, train, _glob=glob, _l_hists=local._histories,
                 _l_slot_mask=len(local._histories) - 1,
                 _l_hist_mask=local._history_mask,
                 _l_table=lt._table, _l_index_mask=len(lt) - 1,
                 _l_thr=lt.threshold, _l_max=lt.max_value,
                 _g_table=gt._table, _g_index_mask=len(gt) - 1,
                 _g_thr=gt.threshold, _g_max=gt.max_value,
                 _g_hist_mask=glob._history_mask,
                 _s_table=st._table, _s_index_mask=len(st) - 1,
                 _s_thr=st.threshold, _s_max=st.max_value):
            # Indexes mirror predict()/update(): all reads use the
            # pre-update histories.
            ghist = _glob._history
            sel_i = ghist & _s_index_mask
            lslot = (pc >> 2) & _l_slot_mask
            lhistory = _l_hists[lslot]
            l_i = lhistory & _l_index_mask
            local_p = _l_table[l_i] >= _l_thr
            g_i = ghist & _g_index_mask
            global_p = _g_table[g_i] >= _g_thr
            predicted = global_p if _s_table[sel_i] >= _s_thr else local_p
            if not train:
                return predicted
            if local_p != global_p:
                # selector trains toward whichever component was right
                v = _s_table[sel_i]
                if global_p == taken:
                    if v < _s_max:
                        _s_table[sel_i] = v + 1
                elif v > 0:
                    _s_table[sel_i] = v - 1
            v = _l_table[l_i]
            if taken:
                if v < _l_max:
                    _l_table[l_i] = v + 1
            elif v > 0:
                _l_table[l_i] = v - 1
            _l_hists[lslot] = ((lhistory << 1) | taken) & _l_hist_mask
            v = _g_table[g_i]
            if taken:
                if v < _g_max:
                    _g_table[g_i] = v + 1
            elif v > 0:
                _g_table[g_i] = v - 1
            _glob._history = ((ghist << 1) | taken) & _g_hist_mask
            return predicted

        return step

    # ------------------------------------------------------- fused loop

    def _loop(self, target, stop_cycle) -> None:
        """The whole pipeline — commit, writeback, issue, dispatch,
        fetch (reverse stage order), plus the functional feed — fused
        into one function with every hot structure in a local.

        Stage logic is a line-for-line transcription of the reference
        machine's; see the reference modules for the *why* of each
        rule.  Entry fields are accessed by literal index here (the
        ``E_*`` table above is the legend).
        """
        config = self.config
        cp = self.cp

        # ---- static decode tables
        cp_n = cp.n
        cp_base = cp.base_pc
        cp_kind = cp.kind
        cp_cls_value = cp.cls_value
        cp_rb31 = cp.rb31
        cp_rd_w = cp.rd_w
        cp_target = cp.target
        cp_dest = cp.dest
        cp_mem_size = cp.mem_size
        cp_is_mem = cp.is_mem
        cp_is_branch = cp.is_branch
        cp_is_conditional = cp.is_conditional
        cp_retire = cp.retire
        cp_frow = cp.frow
        cp_drow = cp.drow
        cp_irow = cp.irow

        # ---- machine parameters
        commit_width = config.commit_width
        decode_width = config.decode_width
        fetch_width = config.fetch_width
        queue_size = config.fetch_queue_size
        ruu_size = config.ruu_size
        lsq_size = config.lsq_size
        lsq_prune = 2 * lsq_size
        issue_width = config.issue_width
        int_alus = config.int_alus
        int_mult_div = config.int_mult_div
        alu_latency = config.alu_latency
        mult_latency = config.mult_latency
        mispredict_penalty = config.mispredict_penalty
        pcfg = config.packing
        pack_on = pcfg.enabled
        pk_same_op = pcfg.same_opcode
        pk_replay = pcfg.replay
        pk_max = pcfg.max_subwords

        # ---- functional state
        regs = self._regs
        tags = self._tags
        fload = self._from_load
        spec = self._spec
        halted = self._halted
        fetch_index = self._fetch_index
        seq = self._seq
        checkpoint = self._checkpoint
        perfect = self._perfect
        detect_loads = self._detect_loads
        bp_step = self._bp
        ras_push = self._ras.push
        ras_pop = self._ras.pop
        btb_lookup = self._btb.lookup
        btb_update = self._btb.update
        mem_load = self._memory.load
        mem_store = self._memory.store
        mem_pages_get = self._memory._pages.get
        overlay = self._spec_memory._overlay
        smem_load = self._spec_memory.load
        smem_store = self._spec_memory.store
        smem_discard = self._spec_memory.discard
        page_bytes = _PAGE_BYTES
        page_mask = _PAGE_BYTES - 1
        from_bytes = int.from_bytes

        # ---- caches (latency walk + same-block shortcut)
        i_walk = self._i_walk
        d_walk = self._d_walk
        l1_lat = self._l1_lat
        mru_lat = self._mru_lat
        blk_b = self._blk_bytes
        iblk = self._iblk
        dblk = self._dblk

        # ---- timing state
        entries = self._entries
        nentries = len(entries)
        ready = self._ready
        stores = self._stores
        producer = self._producer
        completions = self._completions
        comp_pop = completions.pop
        comp_get = completions.get
        fetchq = self._fetchq
        fq_append = fetchq.append
        fq_popleft = fetchq.popleft
        nfq = len(fetchq)
        lsq = self._lsq
        cycle = self._cycle
        stall = self._fetch_stall_until
        resume = self._fetch_resume
        done = self.done

        # ---- trace capture (phase-2 input)
        capture = self.capture
        cap_extend = capture.values.extend
        nrows = len(capture)
        prows_append = self._packed_rows.append
        rrows_append = self._replay_rows.append

        # ---- statistics deltas (flushed to self.stats on exit)
        stats = self.stats
        committed = committed_before = stats.committed
        ccount = self._retired
        d_cycles = 0
        d_dispatched = 0
        d_issued = 0
        d_completed = 0
        d_mispred = 0
        d_traps = 0
        d_pack_groups = 0
        d_packed_ops = 0
        d_rpacked_ops = 0

        while cycle < stop_cycle:
            if done or (target is not None and committed >= target):
                break

            # ======================================================= commit
            if nentries and entries[0][6]:               # head completed
                retired = 0
                while retired < commit_width and nentries:
                    head = entries[0]
                    if not head[6]:
                        break
                    entries.popleft()
                    nentries -= 1
                    head[23] = True                      # dead: retired
                    cidx = head[1]
                    ccount[cidx] += 1
                    retired += 1
                    action = cp_retire[cidx]
                    if action:
                        if action == 3:                  # R_HALT
                            done = True
                            break
                        lsq -= 1                         # R_LOAD, R_STORE
                        if action == 2 and head[19] is not None:
                            addr = head[19]
                            blk = addr // blk_b
                            if blk != dblk:
                                dblk = (blk if d_walk(addr, True) == mru_lat
                                        else -1)
                committed += retired

            # ==================================================== writeback
            completed_now = comp_pop(cycle, None)
            if completed_now:
                for e in completed_now:
                    if e[7]:                             # squashed
                        continue
                    if e[9]:                             # replay-packed
                        res = e[18]
                        if res is None:
                            res = 0
                        wide = e[14] if e[15] == 2 else e[13]
                        if (res >> 16) != (wide >> 16):
                            # Replay trap: squash the speculative packed
                            # execution and re-issue full width.
                            e[5] = False
                            e[9] = False
                            e[12] = True
                            e[10] = True
                            e[11] = cycle + 1
                            d_traps += 1
                            # back onto the ready heap (it left the heap
                            # when it issued, so no duplicate exists)
                            heappush(ready, e)
                            continue
                    e[6] = True                          # completed
                    d_completed += 1
                    cons = e[4]
                    if cons is not None:
                        # wake consumers whose last producer this was
                        e[4] = None
                        for c in cons:
                            nw = c[8] - 1
                            c[8] = nw
                            if not nw and not c[7]:
                                heappush(ready, c)
                    if e[20] and not e[21]:   # good-path mispredicted branch
                        # ---------------------------------------- recovery
                        d_mispred += 1
                        bseq = e[0]
                        kept: deque = deque()
                        kept_append = kept.append
                        for x in entries:
                            if x[0] > bseq:
                                x[7] = True              # squashed
                                x[23] = True             # dead
                                if cp_is_mem[x[1]]:
                                    lsq -= 1
                            else:
                                kept_append(x)
                        entries = kept
                        nentries = len(kept)
                        fetchq.clear()
                        nfq = 0
                        # rewind architected state to the checkpoint
                        regs, tags, fload, fetch_index = checkpoint
                        smem_discard()
                        spec = False
                        checkpoint = None
                        for i in range(32):
                            producer[i] = None
                        for x in kept:
                            dest = cp_dest[x[1]]
                            if dest >= 0:
                                producer[dest] = x
                        if stores:
                            stores = [s for s in stores if not s[23]]
                        # one cycle to restart fetch + Table 1's penalty
                        resume = cycle + 1 + mispredict_penalty

            # ======================================================== issue
            # Pops the ready heap in seq (= age) order.  Matches the
            # reference's in-order scan over the whole window exactly:
            # entries with incomplete producers would be skipped by
            # that scan, and they are the only ones not on the heap.
            # Entries popped but not issued (replay window, exhausted
            # units) go to ``aside`` and return to the heap after the
            # pass — the reference leaves them pending the same way.
            # Every entry on the heap was dispatched in an earlier
            # cycle (dispatch pushes after this stage; wakeups and
            # replay traps push in a later cycle's writeback), and
            # none has issued (issue pops it; a replay trap clears
            # E_ISSUED before pushing it back), so only squashed
            # entries are stale.
            if ready:
                slots = issue_width
                alus = int_alus
                mults = int_mult_div
                if pack_on:
                    packs: dict = {}
                    packs_get = packs.get
                else:
                    packs = None
                aside = None
                while ready:
                    e = ready[0]
                    if e[7]:
                        heappop(ready)     # stale: squashed
                        continue
                    if slots <= 0 and not (pack_on and packs):
                        break
                    heappop(ready)
                    if e[10] and cycle < e[11]:
                        # serving a replay re-issue window
                        if aside is None:
                            aside = [e]
                        else:
                            aside.append(e)
                        continue
                    cidx = e[1]
                    (needs_mult, is_load, measured, ccode, ocode,
                     packable, replay_op) = cp_irow[cidx]
                    if pack_on and not needs_mult and not e[10]:
                        # ---- try to join an open pack
                        key = ocode if pk_same_op else ccode
                        pack = packs_get(key)
                        if pack is not None and pack[0] > 0:
                            ta = e[15]
                            tb = e[16]
                            no_pack = e[12]
                            joined = False
                            is_replay = False
                            if (not no_pack and packable
                                    and ta == 2 and tb == 2):
                                pack[0] -= 1
                                pack[3].append(e)
                                joined = True
                            elif (not pack[1] and pk_replay and not no_pack
                                    and replay_op
                                    and (ta == 2) != (tb == 2)):
                                # one replay member fits; it closes the pack
                                pack[1] = True
                                pack[0] = 0
                                pack[3].append(e)
                                joined = True
                                is_replay = True
                            if joined:
                                # ---- start execution (packed)
                                e[5] = True
                                e[9] = is_replay
                                e[10] = False
                                if needs_mult:
                                    lat = mult_latency
                                elif is_load and e[19] is not None:
                                    addr = e[19]
                                    blk = addr // blk_b
                                    if blk == dblk:
                                        lat = alu_latency + l1_lat
                                    else:
                                        dl = d_walk(addr)
                                        dblk = blk if dl == mru_lat else -1
                                        lat = alu_latency + dl
                                else:
                                    lat = alu_latency
                                when = cycle + lat
                                lst = comp_get(when)
                                if lst is None:
                                    completions[when] = [e]
                                else:
                                    lst.append(e)
                                d_issued += 1
                                if measured:
                                    e[22] = nrows
                                    nrows += 1
                                    cap_extend((cidx, e[13], e[14], e[15],
                                                e[16], e[17]))
                                # ---- pack statistics (pack 'happens'
                                # once a second member joins)
                                members = pack[3]
                                if len(members) == 2:
                                    d_pack_groups += 1
                                    d_packed_ops += 2
                                    leader = members[0]
                                    prows_append(leader[22])
                                    if pack[2]:   # wide leader goes spec
                                        leader[9] = True
                                        d_rpacked_ops += 1
                                        rrows_append(leader[22])
                                else:
                                    d_packed_ops += 1
                                prows_append(e[22])
                                if e[9]:
                                    d_rpacked_ops += 1
                                    rrows_append(e[22])
                                continue
                    if slots <= 0:
                        if aside is None:
                            aside = [e]
                        else:
                            aside.append(e)
                        continue
                    if needs_mult:
                        if mults <= 0:
                            if aside is None:
                                aside = [e]
                            else:
                                aside.append(e)
                            continue
                        mults -= 1
                    else:
                        if alus <= 0:
                            if aside is None:
                                aside = [e]
                            else:
                                aside.append(e)
                            continue
                        alus -= 1
                    slots -= 1
                    # ---- start execution (unpacked)
                    e[5] = True
                    e[9] = False
                    e[10] = False
                    if needs_mult:
                        lat = mult_latency
                    elif is_load and e[19] is not None:
                        addr = e[19]
                        blk = addr // blk_b
                        if blk == dblk:
                            lat = alu_latency + l1_lat
                        else:
                            dl = d_walk(addr)
                            dblk = blk if dl == mru_lat else -1
                            lat = alu_latency + dl
                    else:
                        lat = alu_latency
                    when = cycle + lat
                    lst = comp_get(when)
                    if lst is None:
                        completions[when] = [e]
                    else:
                        lst.append(e)
                    d_issued += 1
                    if measured:
                        e[22] = nrows
                        nrows += 1
                        cap_extend((cidx, e[13], e[14], e[15], e[16],
                                    e[17]))
                    if pack_on and not needs_mult:
                        # ---- open a pack around this op (E_RPEND was
                        # cleared above, matching the reference order)
                        ta = e[15]
                        tb = e[16]
                        no_pack = e[12]
                        if (not no_pack and packable
                                and ta == 2 and tb == 2):
                            packs[ocode if pk_same_op else ccode] = \
                                [pk_max - 1, False, False, [e]]
                        elif (pk_replay and not no_pack
                                and replay_op
                                and (ta == 2) != (tb == 2)):
                            packs[ocode if pk_same_op else ccode] = \
                                [1, True, True, [e]]
                if aside is not None:
                    for e in aside:
                        heappush(ready, e)

            # ===================================================== dispatch
            if nfq:
                dispatched = 0
                while dispatched < decode_width and nfq:
                    e = fetchq[0]
                    if e[2] >= cycle:
                        break
                    (kind, is_mem, is_load, is_store, dest, nsrc,
                     src0, src1, src2, msize) = cp_drow[e[1]]
                    if nentries >= ruu_size or (is_mem and lsq >= lsq_size):
                        break
                    fq_popleft()
                    nfq -= 1
                    e[3] = cycle
                    # Register with each still-incomplete producer (reg
                    # + overlapping-store deps); completed producers are
                    # already satisfied, exactly as the reference's
                    # dispatch-time dep filter treats them.
                    nw = 0
                    if nsrc:
                        p = producer[src0]
                        if p is not None and not p[6]:
                            if p[4] is None:
                                p[4] = [e]
                            else:
                                p[4].append(e)
                            nw += 1
                        if nsrc > 1:
                            p = producer[src1]
                            if p is not None and not p[6]:
                                if p[4] is None:
                                    p[4] = [e]
                                else:
                                    p[4].append(e)
                                nw += 1
                            if nsrc > 2:   # CMOV also reads its dest
                                p = producer[src2]
                                if p is not None and not p[6]:
                                    if p[4] is None:
                                        p[4] = [e]
                                    else:
                                        p[4].append(e)
                                    nw += 1
                    if is_load and e[19] is not None:
                        lo = e[19]
                        hi = lo + msize
                        if len(stores) > lsq_prune:
                            # prune dead stores (age order kept)
                            stores = [s for s in stores if not s[23]]
                        for s in stores:
                            if s[23] or s[6]:
                                continue
                            saddr = s[19]
                            if saddr < hi and lo < saddr + cp_mem_size[s[1]]:
                                if s[4] is None:
                                    s[4] = [e]
                                else:
                                    s[4].append(e)
                                nw += 1
                    if kind == 9 or kind == 10:          # NOP / HALT
                        e[5] = True
                        e[6] = True
                    elif nw:
                        e[8] = nw
                    else:
                        heappush(ready, e)
                    entries.append(e)
                    nentries += 1
                    if is_mem:
                        lsq += 1
                        if is_store:
                            stores.append(e)
                    if dest >= 0:
                        producer[dest] = e
                    dispatched += 1
                d_dispatched += dispatched

            # ======================================================== fetch
            if cycle >= resume and cycle >= stall and not halted:
                nfetched = 0
                while nfetched < fetch_width and nfq < queue_size:
                    # ---- functional feed, inlined
                    raw = fetch_index
                    cidx = raw if 0 <= raw < cp_n else cp_n
                    kind = cp_kind[cidx]
                    sp = spec
                    if kind == 10 and sp:
                        break   # wrong path fell off the program
                    pc = cp_base + raw * 4
                    addr = None
                    mis = False
                    nxt = raw + 1

                    # Every kind below sets a, b, ta, tb, fl and res.
                    if kind == 0:                        # OPERATE
                        (ra, has_rb, rb, imm_u, imm_tag, fn, rd31,
                         rd) = cp_frow[cidx]
                        a = regs[ra]
                        ta = tags[ra]
                        fl = ra != 31 and fload[ra]
                        if has_rb:
                            b = regs[rb]
                            tb = tags[rb]
                            fl = fl or (rb != 31 and fload[rb])
                        else:
                            b = imm_u
                            tb = imm_tag
                        res = fn(a, b, regs[rd31])
                        if rd >= 0:
                            regs[rd] = res
                            fload[rd] = False
                            high = res >> 16
                            if high == 0 or high == 0xFFFFFFFFFFFF:
                                tags[rd] = 2
                            else:
                                high = res >> 33
                                tags[rd] = (1 if high == 0
                                            or high == 0x7FFFFFFF else 0)
                    elif kind == 1:                      # LOAD
                        rb, imm_u, imm_tag, sz, is_ldl, rd = cp_frow[cidx]
                        a = regs[rb]
                        ta = tags[rb]
                        fl = rb != 31 and fload[rb]
                        b = imm_u
                        tb = imm_tag
                        addr = (a + b) & 0xFFFFFFFFFFFFFFFF
                        if sp and overlay:
                            res = smem_load(addr, sz)
                        else:
                            # MainMemory.load, inlined (same-page case;
                            # the overlay-free wrong path reads it too)
                            off = addr & page_mask
                            if off + sz <= page_bytes:
                                pg = mem_pages_get(addr // page_bytes)
                                res = (0 if pg is None else
                                       from_bytes(pg[off:off + sz],
                                                  "little"))
                            else:
                                res = mem_load(addr, sz)
                        if is_ldl:
                            res &= 0xFFFFFFFF
                            if res & 0x80000000:
                                res += 0xFFFFFFFF00000000
                        if rd >= 0:
                            regs[rd] = res
                            fload[rd] = True
                            if detect_loads:
                                high = res >> 16
                                if high == 0 or high == 0xFFFFFFFFFFFF:
                                    tags[rd] = 2
                                else:
                                    high = res >> 33
                                    tags[rd] = (1 if high == 0
                                                or high == 0x7FFFFFFF else 0)
                            else:
                                tags[rd] = 0   # no zero-detect: unknown
                    elif kind == 3:                      # COND branch
                        (ra, has_rb, rb, imm_u, imm_tag, bfn,
                         tgt) = cp_frow[cidx]
                        a = regs[ra]
                        ta = tags[ra]
                        fl = ra != 31 and fload[ra]
                        if has_rb:
                            b = regs[rb]
                            tb = tags[rb]
                            fl = fl or (rb != 31 and fload[rb])
                        else:
                            b = imm_u
                            tb = imm_tag
                        res = None
                        taken = bfn(a)
                        actual = tgt if taken else raw + 1
                        pred = tgt if bp_step(pc, taken, not sp) else raw + 1
                        if perfect:
                            pred = actual
                        if sp:
                            nxt = pred
                        elif pred != actual:
                            checkpoint = (regs[:], tags[:], fload[:], actual)
                            spec = True
                            mis = True
                            nxt = pred
                        else:
                            nxt = actual
                    elif kind == 2:                      # STORE
                        rb, imm_u, imm_tag, ra, msize = cp_frow[cidx]
                        a = regs[rb]
                        ta = tags[rb]
                        fl = rb != 31 and fload[rb]
                        b = imm_u
                        tb = imm_tag
                        res = None
                        addr = (a + b) & 0xFFFFFFFFFFFFFFFF
                        if sp:
                            smem_store(addr, regs[ra], msize)
                        else:
                            mem_store(addr, regs[ra], msize)
                    elif kind == 9 or kind == 10:        # NOP / HALT
                        a = b = 0
                        ta = tb = 2
                        fl = False
                        res = None
                    elif kind == 4 or kind == 5:         # BR / BSR: direct
                        a = b = 0
                        ta = tb = 2
                        fl = False
                        res = None
                        if kind == 5:
                            return_pc = cp_base + (raw + 1) * 4
                            res = return_pc
                            rd = cp_rd_w[cidx]
                            if rd >= 0:
                                regs[rd] = res
                                fload[rd] = False
                                high = res >> 16
                                if high == 0 or high == 0xFFFFFFFFFFFF:
                                    tags[rd] = 2
                                else:
                                    high = res >> 33
                                    tags[rd] = (1 if high == 0
                                                or high == 0x7FFFFFFF else 0)
                            if not sp:
                                ras_push(return_pc)
                        # direct target known at decode: never mispredicts
                        nxt = cp_target[cidx]
                    else:                    # JMP / JSR / RET: indirect
                        rb = cp_rb31[cidx]
                        target_pc = regs[rb]
                        a = target_pc
                        ta = tags[rb]
                        b = 0
                        tb = 2
                        fl = False
                        res = None
                        actual = (target_pc - cp_base) // 4
                        return_pc = cp_base + (raw + 1) * 4
                        if kind == 8:                    # RET
                            ppc = ras_pop() if not sp else None
                        else:
                            ppc = btb_lookup(pc)
                            if kind == 7 and not sp:     # JSR
                                ras_push(return_pc)
                        if not sp:
                            btb_update(pc, target_pc)
                        pred = raw + 1 if ppc is None \
                            else (ppc - cp_base) // 4
                        if kind == 7:
                            res = return_pc
                            rd = cp_rd_w[cidx]
                            if rd >= 0:
                                regs[rd] = res
                                fload[rd] = False
                                high = res >> 16
                                if high == 0 or high == 0xFFFFFFFFFFFF:
                                    tags[rd] = 2
                                else:
                                    high = res >> 33
                                    tags[rd] = (1 if high == 0
                                                or high == 0x7FFFFFFF else 0)
                        if perfect:
                            pred = actual
                        if sp:
                            nxt = pred
                        elif pred != actual:
                            checkpoint = (regs[:], tags[:], fload[:], actual)
                            spec = True
                            mis = True
                            nxt = pred
                        else:
                            nxt = actual

                    fetch_index = nxt
                    if kind == 10 and not sp:
                        halted = True
                    e = [seq, cidx, cycle, -1, None, False, False, False,
                         0, False, False, -1, False, a, b, ta, tb, fl,
                         res, addr, mis, sp, -1, False]
                    seq += 1
                    # ---- I-side access with the same-block shortcut
                    blk = pc // blk_b
                    if blk == iblk:
                        lat = l1_lat
                    else:
                        lat = i_walk(pc)
                        iblk = blk if lat == mru_lat else -1
                    fq_append(e)
                    nfq += 1
                    nfetched += 1
                    if lat > l1_lat:
                        # I-cache miss: arrival when the fill completes,
                        # and fetch stalls until then.
                        e[2] = cycle + lat - 1
                        stall = cycle + lat - 1
                        break
                    if nxt != raw + 1:
                        break   # fetch break after a predicted-taken xfer
                    if halted:
                        break

            cycle += 1
            d_cycles += 1

        # ---- flush locals back to the instance -----------------------
        stats.fetched += seq - self._seq   # each fetch took one seq number
        self._regs = regs
        self._tags = tags
        self._from_load = fload
        self._spec = spec
        self._halted = halted
        self._fetch_index = fetch_index
        self._seq = seq
        self._checkpoint = checkpoint
        self._entries = entries
        self._ready = ready
        self._stores = stores
        self._lsq = lsq
        self._cycle = cycle
        self._fetch_stall_until = stall
        self._fetch_resume = resume
        self._iblk = iblk
        self._dblk = dblk
        self.done = done
        stats.cycles += d_cycles
        stats.dispatched += d_dispatched
        stats.issued += d_issued
        stats.completed += d_completed
        stats.mispredicts += d_mispred
        stats.replay_traps += d_traps
        stats.pack_groups += d_pack_groups
        stats.packed_ops += d_packed_ops
        stats.replay_packed_ops += d_rpacked_ops
        if committed != committed_before:
            # class mix and branch counts from the per-index commits
            stats.committed = committed
            mix: dict = {}
            branches = cond = 0
            for count, value, is_br, is_cond in zip(
                    ccount, cp_cls_value, cp_is_branch, cp_is_conditional):
                if count:
                    mix[value] = mix.get(value, 0) + count
                    if is_br:
                        branches += count
                        if is_cond:
                            cond += count
            stats.class_mix = mix
            stats.branches_committed = branches
            stats.cond_branches_committed = cond

    # ---------------------------------------------- architected access

    def reg(self, index: int) -> int:
        """Architected value of register ``index`` (test helper)."""
        return 0 if index == 31 else self._regs[index]


def count_to_halt(program: Program) -> int:
    """Dynamic length of ``program``: the instructions a fast-mode
    :class:`~repro.core.feed.Feed` supplies, closing HALT included (the
    synthetic HALT row when control leaves the program).

    Runs the program's generated COUNT runs (:mod:`repro.fastsim.runs`)
    over registers and main memory only, on the correct path, with no
    width tags, predictors, caches or per-instruction objects; the run
    that ends on the HALT is counted, not executed.  An indirect jump
    may land anywhere, so each run is compiled where control first
    enters it.  Like the feed, it runs forever on a program that never
    halts.
    """
    cp = compile_program(program)
    memory = MainMemory(program.image)
    defaults = ([0] * NUM_INT_REGS, memory._pages.get, memory.store,
                memory.load)
    bound: dict = {}
    index = cp.entry
    count = 0
    while True:
        entry = bound.get(index)
        if entry is None:
            entry = bound[index] = bind(cp, COUNT_VARIANT, index, None,
                                        defaults)
        run, length, halts = entry
        count += length
        if halts:
            return count
        index = run()
