"""Fused functional + timing fast core (phase 1 of the fast backend).

:class:`FastMachine` is a cycle-accurate reimplementation of
:class:`~repro.core.machine.Machine` + :class:`~repro.core.feed.Feed`
optimized SimpleScalar-style for raw speed:

* the static program is precompiled once into flat decode tables
  (:mod:`repro.fastsim.compile`) so the hot loop does integer list
  indexing instead of attribute/dataclass traffic;
* a dynamic instruction is one plain Python list (``E_*`` field
  indices below) instead of a ``DynInst`` + ``RUUEntry`` pair;
* width tags are small ints (:data:`~repro.bitwidth.tags.TAG_WIDE` /
  ``TAG_NARROW33`` / ``TAG_NARROW16``) instead of ``WidthTag`` objects;
* the per-op instruments (histogram / fluctuation / power dicts) are
  *not* updated in the loop — each measured operation appends one row
  to a columnar :class:`~repro.fastsim.capture.TraceCapture`, and the
  vectorized phase 2 (:mod:`repro.fastsim.replay`) rebuilds the
  instruments from the columns afterwards;
* the whole cycle loop is one fused function (:meth:`FastMachine._loop`)
  with every hot structure bound to a local: statistics accumulate in
  local ints flushed once at loop exit, and trace rows append through
  pre-bound list methods;
* issue is wakeup-driven instead of scan-driven: each entry carries a
  count of still-incomplete producers (``E_NWAIT``) and each producer a
  list of waiting consumers (``E_CONS``); writeback decrements the
  counters and pushes newly ready entries onto a seq-ordered heap, so
  the issue stage touches only ready work — never the whole window.
  This selects the identical issue set in the identical order as the
  reference's age-order scan, because that scan skips every entry with
  an incomplete producer anyway;
* consecutive accesses to the same cache block and page skip the
  hierarchy walk: the previous access proved L1+TLB residency at MRU,
  so the walk would return ``l1_latency`` and change nothing but
  hit/dirty counters (cache *latencies*, and therefore cycles, are
  unaffected; only ``CacheStats`` counters — which no
  :class:`~repro.core.machine.RunResult` field reads — drift);
* the cycle loop and the fast-forward interpreter share one L1/TLB
  walk and one combining-predictor step, so warm-up runs at loop speed;
* a fresh machine restores the warmed state that the last fast-forward
  of its program, count and front-end config pickled (:data:`_WARM`).

Everything the timing model decides (fetch breaks, dependences, issue
selection, packing, replay traps, misprediction recovery, cache
latencies) is replicated decision-for-decision, because the measured
stream itself is timing-dependent: wrong-path depth depends on when
branches resolve.  The contract — enforced by ``--backend both``, the
CI equivalence matrix, and the round-trip tests — is that
``FastMachine.run`` serializes identically to ``Machine.run``.
"""

from __future__ import annotations

import gc
import pickle
from collections import deque
from heapq import heappop, heappush

from repro.asm.layout import PAGE_BYTES as _PAGE_BYTES
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
from repro.fastsim.compile import (
    K_BSR,
    K_COND,
    K_HALT,
    K_JSR,
    K_LOAD,
    K_NOP,
    K_OPERATE,
    K_RET,
    K_STORE,
    compile_program,
)
from repro.isa.instruction import Program
from repro.isa.registers import NUM_INT_REGS
from repro.memory.backing import MainMemory, SpeculativeMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats.counters import CoreStats

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

# Field indices into the per-instruction entry list (one flat list per
# dynamic instruction, covering what DynInst + RUUEntry hold).  The
# fused loop uses these *numerically* — keep the literal values in its
# comments in sync.
E_SEQ = 0       # dynamic sequence number
E_CIDX = 1      # decode-table index (out-of-range clamped to sentinel)
E_RAW = 2       # raw static index (drives PCs and fetch breaks)
E_PC = 3        # simulated byte address
E_NEXT = 4      # index the feed moved to next
E_FETCH = 5     # cycle the instruction arrived from the I-cache
E_DISP = 6      # dispatch cycle
E_CONS = 7      # consumer entries awaiting this result (None when none)
E_ISSUED = 8
E_COMP = 9      # completed
E_SQUASH = 10
E_PACKED = 11
E_RPACKED = 12  # speculatively packed with a wide operand
E_RPEND = 13    # replay-trapped, awaiting full-width re-issue
E_RREADY = 14   # cycle the replay re-issue becomes eligible
E_NOPACK = 15   # excluded from packing (post-replay)
E_A = 16        # first ALU operand (uint64)
E_B = 17        # second ALU operand (uint64)
E_TA = 18       # width-tag code of a
E_TB = 19       # width-tag code of b
E_FL = 20       # an operand came straight from a load
E_RES = 21      # result value (None when no result)
E_ADDR = 22     # effective memory address (None for non-mem)
E_MIS = 23      # first wrong prediction on the good path
E_SPEC = 24     # executed on the wrong path
E_ROW = 25      # capture row of the latest measurement (-1: unmeasured)
E_DEAD = 26     # retired or squashed (producer bookkeeping)
E_NWAIT = 27    # count of still-incomplete producers (wakeup counter)

#: What a fast-forward changes; ``_spec_memory`` only wraps ``_memory``.
_WARM_FIELDS = ("_regs", "_tags", "_from_load", "_memory", "_predictor",
                "_btb", "_ras", "hierarchy", "_fetch_index", "_seq",
                "_halted", "_iblk", "_ipage", "_dblk", "_dpage")

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
        self._ready: list = []            # issue-ready heap of (seq, entry)
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

        # ---- consecutive same-block/page access shortcut ------------
        hcfg = config.hierarchy
        self._l1_lat = hcfg.l1_latency
        self._blk_bytes = hcfg.block_bytes
        self._page_bytes = self.hierarchy.itlb.page_bytes
        self._iblk = self._ipage = -1
        self._dblk = self._dpage = -1

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
            return entry[3]
        executed = self._forward(instructions)
        state = pickle.dumps([getattr(self, name) for name in _WARM_FIELDS],
                             pickle.HIGHEST_PROTOCOL)
        _WARM[program.name] = (program, key, state, executed)
        return executed

    def _forward(self, instructions: int) -> int:
        """Fast mode behind :meth:`fast_forward`: control transfers train
        the predictor, BTB and RAS, then follow the correct path.  Entered mid-speculation (``run(max_insts)``
        and ``step()`` can stop there), it keeps the wrong-path rules
        (overlay memory, no training) and stops at a HALT, as the
        reference feed does.  State lives in locals, and the cache walks
        and predictor step are :meth:`_loop`'s own.
        """
        cp = self.cp
        cp_n = cp.n
        cp_base = cp.base_pc
        cp_kind = cp.kind
        cp_frow = cp.frow
        regs = self._regs
        tags = self._tags
        fload = self._from_load
        detect_loads = self._detect_loads
        spec = self._spec
        mem = self._spec_memory if spec else self._memory
        mem_load = mem.load
        mem_store = mem.store
        pages_get = self._memory._pages.get
        overlay = self._spec_memory._overlay
        page_bytes = _PAGE_BYTES
        page_mask = _PAGE_BYTES - 1
        from_bytes = int.from_bytes
        bp_step = self._bp_step()
        ras = self._ras
        btb = self._btb
        i_walk, d_walk = self._walks()
        l1_lat = self._l1_lat
        blk_b = self._blk_bytes
        page_b = self._page_bytes
        iblk = self._iblk
        ipage = self._ipage
        dblk = self._dblk
        dpage = self._dpage
        fetch_index = self._fetch_index
        halted = self._halted
        executed = 0
        while executed < instructions and not halted:
            raw = fetch_index
            cidx = raw if 0 <= raw < cp_n else cp_n
            kind = cp_kind[cidx]
            pc = cp_base + raw * 4
            fetch_index = raw + 1
            addr = -1
            rd = -1
            if kind == K_OPERATE:
                ra, has_rb, rb, imm_u, _, fn, rd31, rd = cp_frow[cidx]
                res = fn(regs[ra], regs[rb] if has_rb else imm_u,
                         regs[rd31])
                if rd >= 0:
                    regs[rd] = res
                    fload[rd] = False
            elif kind == K_LOAD:
                rb, imm_u, _, size, is_ldl, rd = cp_frow[cidx]
                addr = (regs[rb] + imm_u) & _MASK64
                off = addr & page_mask
                if off + size <= page_bytes and not overlay:
                    pg = pages_get(addr // page_bytes)   # as _loop reads
                    res = (0 if pg is None else
                           from_bytes(pg[off:off + size], "little"))
                else:
                    res = mem_load(addr, size)
                if is_ldl and res & 0x80000000:
                    res += 0xFFFFFFFF00000000
                if rd >= 0:
                    regs[rd] = res
                    fload[rd] = True
                    if not detect_loads:
                        tags[rd] = 0   # no zero-detect: width unknown
                        rd = -1
            elif kind == K_COND:
                ra, _, _, _, _, bfn, target = cp_frow[cidx]
                taken = bfn(regs[ra])
                if taken:
                    fetch_index = target
                if not spec:   # a wrong-path branch never trains
                    bp_step(pc, taken, True)
            elif kind == K_STORE:
                rb, imm_u, _, ra, size = cp_frow[cidx]
                addr = (regs[rb] + imm_u) & _MASK64
                mem_store(addr, regs[ra], size)
            elif kind == K_HALT:
                if spec:
                    fetch_index = raw
                    break   # the wrong path fell off the program
                halted = True
            elif kind != K_NOP:   # BR, BSR direct; JMP, JSR, RET indirect
                if kind <= K_BSR:
                    fetch_index = cp.target[cidx]
                else:
                    target_pc = regs[cp.rb31[cidx]]
                    fetch_index = (target_pc - cp_base) // 4
                    if kind != K_RET:
                        btb.lookup(pc)
                    elif not spec:
                        ras.pop()
                    if not spec:
                        btb.update(pc, target_pc)
                if kind == K_BSR or kind == K_JSR:
                    if not spec:
                        ras.push(pc + 4)
                    rd = cp.rd_w[cidx]
                    if rd >= 0:
                        res = regs[rd] = pc + 4
                        fload[rd] = False
            if rd >= 0:   # classify the result width, as _loop does
                high = res >> 16
                if high == 0 or high == 0xFFFFFFFFFFFF:
                    tags[rd] = 2
                else:
                    high = res >> 33
                    tags[rd] = 1 if high == 0 or high == 0x7FFFFFFF else 0
            executed += 1

            # Same-block/page shortcut: an L1 + TLB hit leaves both
            # lines at MRU, so the next access there repeats it.
            blk = pc // blk_b
            page = pc // page_b
            if blk != iblk or page != ipage:
                if i_walk(pc) == l1_lat:
                    iblk = blk
                    ipage = page
                else:
                    iblk = -1
            if addr >= 0:
                blk = addr // blk_b
                page = addr // page_b
                if blk != dblk or page != dpage:
                    if d_walk(addr, kind == K_STORE) == l1_lat:
                        dblk = blk
                        dpage = page
                    else:
                        dblk = -1

        self._fetch_index = fetch_index
        self._seq += executed
        self._halted = halted
        self._iblk = iblk
        self._ipage = ipage
        self._dblk = dblk
        self._dpage = dpage
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
        # (entry lists and capture rows) trigger a full collection
        # right inside the column transpose.
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
        cp_opcode = cp.opcode
        cp_opc_code = cp.opc_code
        cp_cls_code = cp.cls_code
        cp_cls_value = cp.cls_value
        cp_ra31 = cp.ra31
        cp_rb31 = cp.rb31
        cp_rd31 = cp.rd31
        cp_rd_w = cp.rd_w
        cp_has_rb = cp.has_rb
        cp_imm_u = cp.imm_u
        cp_imm_tag = cp.imm_tag
        cp_target = cp.target
        cp_srcs = cp.srcs
        cp_nsrc = cp.nsrc
        cp_src0 = cp.src0
        cp_src1 = cp.src1
        cp_fn = cp.fn
        cp_bfn = cp.bfn
        cp_dest = cp.dest
        cp_mem_size = cp.mem_size
        cp_is_mem = cp.is_mem
        cp_is_load = cp.is_load
        cp_is_store = cp.is_store
        cp_is_branch = cp.is_branch
        cp_is_conditional = cp.is_conditional
        cp_needs_mult = cp.needs_mult
        cp_measured = cp.measured
        cp_produces = cp.produces
        cp_packable = cp.packable
        cp_replay_op = cp.replay_op
        cp_is_ldl = cp.is_ldl
        cp_frow = cp.frow
        cp_drow = cp.drow
        cp_crow = cp.crow
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
        bp_step = self._bp_step()
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

        # ---- caches (latency walk + same-block/page shortcut)
        i_walk, d_walk = self._walks()
        l1_lat = self._l1_lat
        blk_b = self._blk_bytes
        page_b = self._page_bytes
        iblk = self._iblk
        ipage = self._ipage
        dblk = self._dblk
        dpage = self._dpage

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
        cap_row = capture.rows.append
        nrows = len(capture.rows)
        prows_append = self._packed_rows.append
        rrows_append = self._replay_rows.append

        # ---- statistics deltas (flushed to self.stats on exit)
        stats = self.stats
        committed = stats.committed
        d_cycles = 0
        d_fetched = 0
        d_dispatched = 0
        d_issued = 0
        d_completed = 0
        d_branches = 0
        d_cond = 0
        d_mispred = 0
        d_traps = 0
        d_pack_groups = 0
        d_packed_ops = 0
        d_rpacked_ops = 0
        cmix: dict = {}

        while cycle < stop_cycle:
            if done or (target is not None and committed >= target):
                break

            # ======================================================= commit
            if nentries and entries[0][9]:               # head completed
                retired = 0
                while retired < commit_width and nentries:
                    head = entries[0]
                    if not head[9]:
                        break
                    entries.popleft()
                    nentries -= 1
                    head[26] = True                      # dead: retired
                    kind, is_mem, is_store, value, is_br, is_cond = \
                        cp_crow[head[1]]
                    if is_mem:
                        lsq -= 1
                        if is_store:
                            addr = head[22]
                            if addr is not None:
                                blk = addr // blk_b
                                page = addr // page_b
                                if blk != dblk or page != dpage:
                                    lat = d_walk(addr, True)
                                    if lat == l1_lat:
                                        dblk = blk
                                        dpage = page
                                    else:
                                        dblk = -1
                    committed += 1
                    cmix[value] = cmix.get(value, 0) + 1
                    if is_br:
                        d_branches += 1
                        if is_cond:
                            d_cond += 1
                    retired += 1
                    if kind == 10:                       # HALT
                        done = True
                        break

            # ==================================================== writeback
            completed_now = comp_pop(cycle, None)
            if completed_now:
                for e in completed_now:
                    if e[10]:                            # squashed
                        continue
                    if e[12]:                            # replay-packed
                        res = e[21]
                        if res is None:
                            res = 0
                        wide = e[17] if e[18] == 2 else e[16]
                        if (res >> 16) != (wide >> 16):
                            # Replay trap: squash the speculative packed
                            # execution and re-issue full width.
                            e[8] = False
                            e[12] = False
                            e[15] = True
                            e[13] = True
                            e[14] = cycle + 1
                            d_traps += 1
                            # back onto the ready heap (it left the heap
                            # when it issued, so no duplicate exists)
                            heappush(ready, (e[0], e))
                            continue
                    e[9] = True                          # completed
                    d_completed += 1
                    cons = e[7]
                    if cons is not None:
                        # wake consumers whose last producer this was
                        e[7] = None
                        for c in cons:
                            nw = c[27] - 1
                            c[27] = nw
                            if not nw and not c[10]:
                                heappush(ready, (c[0], c))
                    if e[23] and not e[24]:   # good-path mispredicted branch
                        # ---------------------------------------- recovery
                        d_mispred += 1
                        bseq = e[0]
                        kept: deque = deque()
                        kept_append = kept.append
                        for x in entries:
                            if x[0] > bseq:
                                x[10] = True             # squashed
                                x[26] = True             # dead
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
                            stores = [s for s in stores if not s[26]]
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
                    item = ready[0]
                    e = item[1]
                    if e[8] or e[10]:
                        heappop(ready)     # stale: issued or squashed
                        continue
                    if slots <= 0 and not (pack_on and packs):
                        break
                    if e[6] >= cycle:
                        break   # dispatched this cycle: issues later
                    heappop(ready)
                    if e[13] and cycle < e[14]:
                        # serving a replay re-issue window
                        if aside is None:
                            aside = [item]
                        else:
                            aside.append(item)
                        continue
                    cidx = e[1]
                    (needs_mult, is_load, measured, ccode, ocode,
                     produces, packable, replay_op) = cp_irow[cidx]
                    if pack_on and not needs_mult and not e[13]:
                        # ---- try to join an open pack
                        key = ocode if pk_same_op else ccode
                        pack = packs_get(key)
                        if pack is not None and pack[0] > 0:
                            ta = e[18]
                            tb = e[19]
                            no_pack = e[15]
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
                                e[8] = True
                                e[11] = True
                                e[12] = is_replay
                                e[13] = False
                                if needs_mult:
                                    lat = mult_latency
                                elif is_load and e[22] is not None:
                                    addr = e[22]
                                    blk = addr // blk_b
                                    page = addr // page_b
                                    if blk == dblk and page == dpage:
                                        lat = alu_latency + l1_lat
                                    else:
                                        dl = d_walk(addr)
                                        if dl == l1_lat:
                                            dblk = blk
                                            dpage = page
                                        else:
                                            dblk = -1
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
                                    e[25] = nrows
                                    nrows += 1
                                    cap_row((ccode, ocode, e[3],
                                             e[16], e[17], e[18], e[19],
                                             e[20], produces))
                                # ---- pack statistics (pack 'happens'
                                # once a second member joins)
                                members = pack[3]
                                if len(members) == 2:
                                    d_pack_groups += 1
                                    d_packed_ops += 2
                                    leader = members[0]
                                    leader[11] = True
                                    prows_append(leader[25])
                                    if pack[2]:   # wide leader goes spec
                                        leader[12] = True
                                        d_rpacked_ops += 1
                                        rrows_append(leader[25])
                                else:
                                    d_packed_ops += 1
                                prows_append(e[25])
                                if e[12]:
                                    d_rpacked_ops += 1
                                    rrows_append(e[25])
                                continue
                    if slots <= 0:
                        if aside is None:
                            aside = [item]
                        else:
                            aside.append(item)
                        continue
                    if needs_mult:
                        if mults <= 0:
                            if aside is None:
                                aside = [item]
                            else:
                                aside.append(item)
                            continue
                        mults -= 1
                    else:
                        if alus <= 0:
                            if aside is None:
                                aside = [item]
                            else:
                                aside.append(item)
                            continue
                        alus -= 1
                    slots -= 1
                    # ---- start execution (unpacked)
                    e[8] = True
                    e[12] = False
                    e[13] = False
                    if needs_mult:
                        lat = mult_latency
                    elif is_load and e[22] is not None:
                        addr = e[22]
                        blk = addr // blk_b
                        page = addr // page_b
                        if blk == dblk and page == dpage:
                            lat = alu_latency + l1_lat
                        else:
                            dl = d_walk(addr)
                            if dl == l1_lat:
                                dblk = blk
                                dpage = page
                            else:
                                dblk = -1
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
                        e[25] = nrows
                        nrows += 1
                        cap_row((ccode, ocode, e[3], e[16], e[17],
                                 e[18], e[19], e[20], produces))
                    if pack_on and not needs_mult:
                        # ---- open a pack around this op (E_RPEND was
                        # cleared above, matching the reference order)
                        ta = e[18]
                        tb = e[19]
                        no_pack = e[15]
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
                    for item in aside:
                        heappush(ready, item)

            # ===================================================== dispatch
            if nfq:
                dispatched = 0
                while dispatched < decode_width and nfq:
                    e = fetchq[0]
                    if e[5] >= cycle:
                        break
                    (kind, is_mem, is_load, is_store, dest, nsrc,
                     src0, src1, src2, msize) = cp_drow[e[1]]
                    if nentries >= ruu_size or (is_mem and lsq >= lsq_size):
                        break
                    fq_popleft()
                    nfq -= 1
                    e[6] = cycle
                    # Register with each still-incomplete producer (reg
                    # + overlapping-store deps); completed producers are
                    # already satisfied, exactly as the reference's
                    # dispatch-time dep filter treats them.
                    nw = 0
                    if nsrc:
                        p = producer[src0]
                        if p is not None and not p[9]:
                            if p[7] is None:
                                p[7] = [e]
                            else:
                                p[7].append(e)
                            nw += 1
                        if nsrc > 1:
                            p = producer[src1]
                            if p is not None and not p[9]:
                                if p[7] is None:
                                    p[7] = [e]
                                else:
                                    p[7].append(e)
                                nw += 1
                            if nsrc > 2:   # CMOV also reads its dest
                                p = producer[src2]
                                if p is not None and not p[9]:
                                    if p[7] is None:
                                        p[7] = [e]
                                    else:
                                        p[7].append(e)
                                    nw += 1
                    if is_load and e[22] is not None:
                        lo = e[22]
                        hi = lo + msize
                        if len(stores) > lsq_prune:
                            # prune dead stores (age order kept)
                            stores = [s for s in stores if not s[26]]
                        for s in stores:
                            if s[26] or s[9]:
                                continue
                            saddr = s[22]
                            if saddr < hi and lo < saddr + cp_mem_size[s[1]]:
                                if s[7] is None:
                                    s[7] = [e]
                                else:
                                    s[7].append(e)
                                nw += 1
                    if kind == 9 or kind == 10:          # NOP / HALT
                        e[8] = True
                        e[9] = True
                    elif nw:
                        e[27] = nw
                    else:
                        heappush(ready, (e[0], e))
                    entries.append(e)
                    nentries += 1
                    if is_mem:
                        lsq += 1
                        if is_store:
                            stores.append(e)
                    if dest >= 0:
                        producer[dest] = e
                    d_dispatched += 1
                    dispatched += 1

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
                    a = 0
                    b = 0
                    ta = 2
                    tb = 2
                    fl = False
                    res = None
                    addr = None
                    mis = False
                    nxt = raw + 1

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
                        addr = (a + b) & 0xFFFFFFFFFFFFFFFF
                        if sp:
                            smem_store(addr, regs[ra], msize)
                        else:
                            mem_store(addr, regs[ra], msize)
                    elif kind == 9 or kind == 10:        # NOP / HALT
                        pass
                    elif kind == 4 or kind == 5:         # BR / BSR: direct
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
                    e = [seq, cidx, raw, pc, nxt, cycle, -1, None, False,
                         False, False, False, False, False, -1, False,
                         a, b, ta, tb, fl, res, addr, mis, sp, -1, False,
                         0]
                    seq += 1
                    # ---- I-side access with the same-block shortcut
                    blk = pc // blk_b
                    page = pc // page_b
                    if blk == iblk and page == ipage:
                        lat = l1_lat
                    else:
                        lat = i_walk(pc)
                        if lat == l1_lat:
                            iblk = blk
                            ipage = page
                        else:
                            iblk = -1
                    d_fetched += 1
                    fq_append(e)
                    nfq += 1
                    nfetched += 1
                    if lat > l1_lat:
                        # I-cache miss: arrival when the fill completes,
                        # and fetch stalls until then.
                        e[5] = cycle + lat - 1
                        stall = cycle + lat - 1
                        break
                    if nxt != raw + 1:
                        break   # fetch break after a predicted-taken xfer
                    if halted:
                        break

            cycle += 1
            d_cycles += 1

        # ---- flush locals back to the instance -----------------------
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
        self._ipage = ipage
        self._dblk = dblk
        self._dpage = dpage
        self.done = done
        stats.cycles += d_cycles
        stats.fetched += d_fetched
        stats.dispatched += d_dispatched
        stats.issued += d_issued
        stats.completed += d_completed
        stats.committed = committed
        stats.branches_committed += d_branches
        stats.cond_branches_committed += d_cond
        stats.mispredicts += d_mispred
        stats.replay_traps += d_traps
        stats.pack_groups += d_pack_groups
        stats.packed_ops += d_packed_ops
        stats.replay_packed_ops += d_rpacked_ops
        if cmix:
            mix = stats.class_mix
            mix_get = mix.get
            for key, count in cmix.items():
                mix[key] = mix_get(key, 0) + count

    # ---------------------------------------------- architected access

    def reg(self, index: int) -> int:
        """Architected value of register ``index`` (test helper)."""
        return 0 if index == 31 else self._regs[index]


def count_to_halt(program: Program) -> int:
    """Dynamic length of ``program``: the instructions a fast-mode
    :class:`~repro.core.feed.Feed` supplies, closing HALT included (the
    synthetic HALT row when control leaves the program).

    An architectural interpreter over the decode rows: registers and
    main memory only, on the correct path, with no width tags,
    predictors, caches or per-instruction objects.  Like the feed, it
    runs forever on a program that never halts.
    """
    cp = compile_program(program)
    cp_n = cp.n
    cp_base = cp.base_pc
    cp_kind = cp.kind
    cp_frow = cp.frow
    memory = MainMemory(program.image)
    mem_load = memory.load
    mem_store = memory.store
    regs = [0] * NUM_INT_REGS
    index = cp.entry
    count = 0
    while True:
        cidx = index if 0 <= index < cp_n else cp_n
        kind = cp_kind[cidx]
        count += 1
        nxt = index + 1
        if kind == K_OPERATE:
            ra, has_rb, rb, imm_u, _, fn, rd31, rd = cp_frow[cidx]
            res = fn(regs[ra], regs[rb] if has_rb else imm_u, regs[rd31])
            if rd >= 0:
                regs[rd] = res
        elif kind == K_LOAD:
            rb, imm_u, _, size, is_ldl, rd = cp_frow[cidx]
            res = mem_load((regs[rb] + imm_u) & _MASK64, size)
            if is_ldl and res & 0x80000000:
                res += 0xFFFFFFFF00000000
            if rd >= 0:
                regs[rd] = res
        elif kind == K_COND:
            ra, _, _, _, _, bfn, target = cp_frow[cidx]
            if bfn(regs[ra]):
                nxt = target
        elif kind == K_STORE:
            rb, imm_u, _, ra, size = cp_frow[cidx]
            mem_store((regs[rb] + imm_u) & _MASK64, regs[ra], size)
        elif kind == K_HALT:
            return count
        elif kind != K_NOP:   # BR, BSR direct; JMP, JSR, RET indirect
            if kind <= K_BSR:
                nxt = cp.target[cidx]
            else:
                nxt = (regs[cp.rb31[cidx]] - cp_base) // 4
            rd = cp.rd_w[cidx]
            if (kind == K_BSR or kind == K_JSR) and rd >= 0:
                regs[rd] = cp_base + (index + 1) * 4
        index = nxt
