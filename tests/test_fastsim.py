"""Differential tests for the two-phase fast backend.

Three layers, from leaf to whole-machine:

1. the per-opcode dispatch tables (``COMPUTE_FNS``/``BRANCH_FNS``)
   against the reference ``compute()``/``branch_taken()`` if-chains,
   over edge-pattern operands and randomized 64-bit values;
2. the :class:`~repro.fastsim.machine.FastMachine` against the
   reference :class:`~repro.core.machine.Machine`: serialized results
   (every counter, the width histogram, fluctuation, power) must be
   identical over a matrix of workloads and configurations, and the
   fast-forward warmup must leave the same state as the reference's
   from any entry point, including mid-speculation and split calls;
3. the run engine's ``backend`` plumbing: ``fast`` yields the same
   results as ``reference`` through :class:`RunEngine`, ``both``
   cross-checks and raises :class:`BackendDivergence` on any tampering,
   and an unknown backend is rejected at context construction.

``repro-equivalence`` argument validation rides along: a window or
scale that would compare nothing is a usage error, never a vacuous
pass.  So does set-up cost: building either machine allocates cache
sets only as a run touches them.
"""

from __future__ import annotations

import copy
import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitwidth.tags import tag_code
from repro.core.config import BASELINE, MachineConfig
from repro.core.machine import Machine
from repro.exec import Job, RunContext, RunEngine, clear_memo
from repro.exec.engine import BackendDivergence
from repro.exec.serialize import dict_divergences, result_to_dict
from repro.fastsim import cli as equivalence_cli
from repro.fastsim.machine import FastMachine
from repro.isa.opcodes import Opcode
from repro.isa.semantics import (
    BRANCH_FNS,
    COMPUTE_FNS,
    MASK64,
    branch_taken,
    compute,
)
from repro.power.gating import GatingPolicy
from repro.robust.report import SuiteFailure
from repro.workloads.registry import (
    dynamic_length,
    get_workload,
    resolve_warmup,
)

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
    ], ids=["packing", "packing-replay", "packing-loose",
            "no-detect", "bimodal-predictor", "packing-gcc",
            "packing-replay-gcc"])
    def test_config_matrix(self, workload, config):
        assert run_pair(workload, config) == []

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


# ---------------------------------------------------------------- warmup

def _fields(obj):
    """Plain-data view of a predictor, BTB or RAS: its tables,
    histories and pointers.  Left out are the stats counters, which the
    fast cycle loop skips for the component predictors by design, and
    the combining predictor's ``_last``, a scratch value passed from
    predict() to update()."""
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
    same count returned, same warmed state, from any entry point."""

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
            fast = FastMachine(w.build(1), config)
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
        whole = FastMachine(w.build(1), BASELINE)
        whole.fast_forward(warmup)
        state = warm_state(whole)
        expected = result_to_dict(whole.run(max_insts=WINDOW))
        for first in (1, 17, warmup // 3):
            split = FastMachine(w.build(1), BASELINE)
            assert split.fast_forward(first) == first
            assert split.fast_forward(warmup - first) == warmup - first
            assert warm_state(split) == state
            out = result_to_dict(split.run(max_insts=WINDOW))
            assert dict_divergences(expected, out) == []


# ----------------------------------------------------------------- engine

@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


JOB = Job("go", BASELINE, 1)


class TestEngineBackend:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            RunContext(backend="warp")

    def test_fast_matches_reference_through_engine(self):
        ref = RunEngine(RunContext(use_cache=False)).run(JOB)
        clear_memo()
        fast = RunEngine(RunContext(backend="fast",
                                    use_cache=False)).run(JOB)
        assert dict_divergences(result_to_dict(ref),
                                result_to_dict(fast)) == []

    def test_both_mode_passes_clean(self):
        result = RunEngine(RunContext(backend="both",
                                      use_cache=False)).run(JOB)
        assert result.stats.committed > 0

    def test_both_mode_never_served_from_cache(self, tmp_path):
        # A cached result proves nothing about the current fast
        # backend; "both" must re-simulate even on a warm cache.
        ctx = RunContext(cache_dir=str(tmp_path))
        RunEngine(ctx).run(JOB)
        clear_memo()
        both = RunContext(backend="both", cache_dir=str(tmp_path))
        engine = RunEngine(both)
        engine.run(JOB)
        assert engine.stats.cache_hits == 0

    def test_both_mode_raises_on_divergence(self, monkeypatch):
        # Tamper with the fast backend's result; the cross-check must
        # refuse to return it and name the divergent counter.  The
        # engine's worker boundary converts the BackendDivergence into
        # a failed job outcome (tried once: retries=0), so the typed
        # error surfaces through SuiteFailure.
        original = FastMachine.run

        def tampered(self, max_insts=None):
            result = original(self, max_insts=max_insts)
            result.stats.committed += 1
            return result

        monkeypatch.setattr(FastMachine, "run", tampered)
        engine = RunEngine(RunContext(backend="both", use_cache=False,
                                      retries=0))
        with pytest.raises(SuiteFailure) as excinfo:
            engine.run(JOB)
        (outcome,) = excinfo.value.report.outcomes
        assert BackendDivergence.__name__ in outcome.error
        assert "stats.committed" in outcome.error


# ------------------------------------------------------------------- CLI

class TestEquivalenceArgs:
    @pytest.mark.parametrize("argv,message", [
        (["--window", "0"], "--window must be >= 1"),
        (["--window", "-5"], "--window must be >= 1"),
        (["--scale", "0"], "--scale must be >= 1"),
    ], ids=["window-0", "window-negative", "scale-0"])
    def test_empty_comparison_is_a_usage_error(self, argv, message,
                                               capsys):
        # A zero or negative window simulates nothing (or silently
        # means "full window"), so the matrix would "match" without
        # comparing a single instruction; scale 0 builds no workload.
        with pytest.raises(SystemExit) as excinfo:
            equivalence_cli.main(argv + ["--workloads", "go"])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


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
        assert doc["total"] == 1
        (row,) = doc["configs"]["baseline"]["workloads"]
        assert row["ref_wall_seconds"] > 0
        assert row["fast_wall_seconds"] > 0
        assert row["speedup"] == pytest.approx(
            row["ref_wall_seconds"] / row["fast_wall_seconds"], rel=0.01)
