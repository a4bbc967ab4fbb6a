"""Integration tests for the benchmark stand-ins (Tables 2-3).

Each workload must (a) assemble, (b) run to completion functionally,
with the architectural length count behind its warmup agreeing with
the reference feed, (c) compute a verifiable result where a Python
model exists, and (d) exhibit the qualitative profile the paper reports
for its namesake.
"""

import pytest

from repro.asm.assembler import Assembler
from repro.core.config import BASELINE
from repro.core.feed import Feed
from repro.core.machine import Machine
from repro.fastsim.machine import FastMachine, count_to_halt
from repro.isa.opcodes import Opcode
from repro.workloads.data import Xorshift64, audio_samples, image_block, text_bytes
from repro.workloads.registry import (
    MEDIABENCH,
    SPECINT95,
    all_workloads,
    dynamic_length,
    get_workload,
    resolve_warmup,
    suite_workloads,
)

SPEC_NAMES = {"compress", "gcc", "go", "ijpeg", "m88ksim", "perl",
              "vortex", "xlisp"}
MEDIA_NAMES = {"gsm-encode", "gsm-decode", "g721-encode", "g721-decode",
               "mpeg2-encode", "mpeg2-decode"}


def run_functional(name: str, limit: int = 2_000_000,
                   scale: int = 1) -> Feed:
    feed = Feed(get_workload(name).build(scale), BASELINE)
    feed.fast_mode = True
    for _ in range(limit):
        if feed.next() is None:
            break
    assert feed.halted, f"{name} did not halt within {limit} instructions"
    return feed


class TestRegistry:
    def test_paper_benchmarks_registered(self):
        names = {w.name for w in all_workloads()}
        assert SPEC_NAMES <= names
        assert MEDIA_NAMES <= names

    def test_suites(self):
        assert {w.name for w in suite_workloads(SPECINT95)} == SPEC_NAMES
        assert {w.name for w in suite_workloads(MEDIABENCH)} == MEDIA_NAMES

    def test_descriptions_nonempty(self):
        for workload in all_workloads():
            assert workload.description

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_workload("spice")

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            get_workload("ijpeg").build(scale=0)

    def test_warmup_resolution(self):
        for workload in all_workloads():
            warmup = resolve_warmup(workload)
            total = dynamic_length(workload)
            assert 0 <= warmup < total

    def test_dynamic_length_cached_and_stable(self):
        w = get_workload("go")
        assert dynamic_length(w) == dynamic_length(w)

    def test_build_is_memoized_per_scale(self):
        w = get_workload("go")
        first = w.build(1)
        assert w.build(1) is first
        assert first == w.builder(1)
        with pytest.raises(ValueError):
            w.build(0)
        assert w.build(1) is first
        second = w.build(2)
        assert w.build(2) is second
        assert second == w.builder(2)
        # One program per workload is kept: scale 1 is built afresh.
        again = w.build(1)
        assert again is not first
        assert again == first

    def test_runs_leave_the_memoized_program_unchanged(self):
        # The length count, the warmup and a job's run on either backend
        # all share the memoized program; none of them may change it.
        w = get_workload("go")
        program = w.build(1)
        warmup = resolve_warmup(w, 1)
        assert count_to_halt(program) == dynamic_length(w, 1)
        for machine_cls in (Machine, FastMachine):
            machine = machine_cls(w.build(1), BASELINE)
            machine.fast_forward(warmup)
            assert machine.run(max_insts=w.window).stats.committed
        assert w.build(1) is program
        assert program == w.builder(1)


@pytest.mark.parametrize("name", sorted(SPEC_NAMES | MEDIA_NAMES))
class TestAllWorkloads:
    def test_builds_deterministically(self, name):
        w = get_workload(name)
        p1, p2 = w.builder(1), w.builder(1)
        assert len(p1) == len(p2)
        assert p1.image == p2.image

    def test_runs_to_halt(self, name):
        feed = run_functional(name)
        # The architectural count behind dynamic_length supplies exactly
        # the reference feed's instructions, closing HALT included.
        assert count_to_halt(get_workload(name).build()) == feed.seq

    def test_length_count_at_scale_2(self, name):
        feed = run_functional(name, scale=2)
        assert count_to_halt(get_workload(name).build(2)) == feed.seq


def _calls() -> Assembler:
    # BSR and JSR link the return address; RET returns through it.
    asm = Assembler()
    asm.br("br", "main")
    asm.label("bump")                  # index 1
    asm.op("addq", "t0", "t0", 1)
    asm.ret()
    asm.label("main")
    asm.bsr("bump")
    asm.li("t12", asm.base_pc + 4)     # address of "bump"
    asm.jsr("t12")
    asm.op("subq", "t1", "t0", 2)
    asm.br("bne", "t1", "skip")        # taken only if a call was lost
    asm.nop()
    asm.label("skip")
    return asm


def _ldl_sign_extension() -> Assembler:
    # LDL sign-extends bit 31; the branch sees a negative value.
    asm = Assembler()
    buf = asm.alloc("buf", 8)
    asm.data_words(buf, [0x8000_0000], size=4)
    asm.li("s0", buf)
    asm.load("ldl", "t0", "s0", 0)
    asm.br("bge", "t0", "positive")
    asm.nop()
    asm.nop()
    asm.label("positive")
    asm.nop()
    return asm


def _cmov_keeps_old_destination() -> Assembler:
    # A CMOV whose condition fails leaves its destination's old value.
    asm = Assembler()
    asm.li("t0", 3)
    asm.li("t1", 1)
    asm.op("cmoveq", "t0", "t1", 0)    # t1 != 0: t0 stays 3
    asm.op("cmovne", "t2", "t1", 5)    # t1 != 0: t2 becomes 5
    asm.br("beq", "t0", "end")
    asm.op("subq", "t2", "t2", 5)
    asm.br("bne", "t2", "end")
    asm.nop()
    asm.label("end")
    asm.nop()
    return asm


def _indirect_jump_out() -> Assembler:
    # JMP to an address past the program: the next row is the
    # synthetic HALT.
    asm = Assembler()
    asm.li("t0", asm.base_pc + 4 * 1000)
    asm.jmp("t0")
    asm.nop()
    return asm


def _runs_off_the_end() -> Assembler:
    asm = Assembler()
    asm.li("t0", 2)
    asm.label("loop")
    asm.op("subq", "t0", "t0", 1)
    asm.br("bne", "t0", "loop")
    return asm


@pytest.mark.parametrize("build", [
    _calls, _ldl_sign_extension, _cmov_keeps_old_destination,
    _indirect_jump_out, _runs_off_the_end,
], ids=["calls", "ldl-sign-extension", "cmov-old-destination",
        "indirect-jump-out", "runs-off-the-end"])
def test_length_count_edge_programs(build):
    # None of these programs has a HALT: each ends on the synthetic
    # HALT row past the program, which the feed supplies and counts.
    program = build().assemble()
    feed = Feed(program, BASELINE)
    feed.fast_mode = True
    supplied = []
    while (dyn := feed.next()) is not None:
        supplied.append(dyn)
    last = supplied[-1]
    assert last.inst.opcode is Opcode.HALT
    assert not 0 <= last.index < len(program)
    assert count_to_halt(program) == len(supplied)


class TestComputedResults:
    """Cross-check kernel outputs against Python models of the same
    computation, proving the kernels really compute what they claim."""

    def test_mpeg2_decode_checksum(self):
        from repro.workloads.media.mpeg2_k import _DEC_FRAME, _LINE
        feed = run_functional("mpeg2-decode")
        pred_bytes = image_block(256, _DEC_FRAME // 256, seed=0x9EC0)
        resid_bytes = image_block(256, _DEC_FRAME // 256, seed=0x4E51D)
        checksum = 0
        for _ in range(2):                       # two frame passes
            for group in range(_DEC_FRAME // _LINE):
                for lane in range(4):
                    i = group * _LINE + lane
                    r = (resid_bytes[i] - 128) >> 1   # arithmetic shift
                    v = max(0, min(255, pred_bytes[i] + r))
                    checksum += v
        assert feed.reg(12) == checksum          # s3 = r12

    def test_compress_counts_sum_to_probes(self):
        feed = run_functional("compress")
        from repro.workloads.spec.compress_k import _TEXT_LEN
        # matches + inserts equals the number of probes (2 passes).
        probes = 2 * (_TEXT_LEN // 16)
        matches = feed.reg(13)   # s4
        inserts = feed.reg(14)   # s5
        assert matches + inserts == probes
        assert inserts > 0

    def test_xlisp_tree_sum(self):
        feed = run_functional("xlisp")
        from repro.workloads.spec.xlisp_k import _CELLS
        # Leaf fixnums come from the PRNG in cell order; internal cells
        # consume no draws (see _heap_image).
        rng = Xorshift64(0x115BCE11)
        total = 0
        for i in range(_CELLS):
            if 2 * i + 2 >= _CELLS:
                total += rng.next_below(100)
        assert feed.reg(10) == 6 * total          # s1 = r10, 6 passes

    def test_m88ksim_retires_all_guest_instructions(self):
        feed = run_functional("m88ksim")
        from repro.workloads.spec.m88ksim_k import _GUEST_INSTRS
        assert feed.reg(12) == 3 * _GUEST_INSTRS  # s3 = r12, 3 runs

    def test_vortex_transaction_count(self):
        feed = run_functional("vortex")
        from repro.workloads.spec.vortex_k import _RECORDS
        assert feed.reg(11) == 2 * _RECORDS       # s2 = r11


class TestQualitativeProfiles:
    """The paper-reported characteristics each stand-in must keep."""

    @pytest.fixture(scope="class")
    def profiles(self):
        from repro.experiments.base import run_workload
        names = ("ijpeg", "compress", "go", "vortex", "gsm-encode",
                 "g721-encode")
        return {name: run_workload(name) for name in names}

    def test_ijpeg_narrower_than_compress(self, profiles):
        # Figure 4: ijpeg is among the narrowest, compress the widest.
        ijpeg = profiles["ijpeg"].widths.cumulative_pct(16)
        compress = profiles["compress"].widths.cumulative_pct(16)
        assert ijpeg > compress + 15

    def test_media_is_narrow(self, profiles):
        assert profiles["gsm-encode"].widths.cumulative_pct(16) > 50
        assert profiles["g721-encode"].widths.cumulative_pct(16) > 70

    def test_go_predicts_worst(self, profiles):
        # "go, notorious for its poor branch prediction".
        go_acc = profiles["go"].stats.branch_accuracy
        vortex_acc = profiles["vortex"].stats.branch_accuracy
        assert go_acc < vortex_acc
        assert go_acc < 0.92

    def test_gsm_has_narrow_multiplies(self, profiles):
        # "they do account for 6% of the narrow-width operations in gsm".
        from repro.isa.opcodes import OpClass
        by_class = profiles["gsm-encode"].widths.narrow_pct_by_class(16)
        assert by_class.get(OpClass.INT_MULT, 0.0) > 1.0

    def test_addresses_produce_33_bit_jump(self, profiles):
        # Figure 1's signature: a jump at 33 bits from heap references.
        widths = profiles["vortex"].widths
        assert widths.cumulative_pct(33) - widths.cumulative_pct(32) > 10


class TestDataGenerators:
    def test_xorshift_deterministic(self):
        a = Xorshift64(42)
        b = Xorshift64(42)
        assert [a.next64() for _ in range(5)] == [b.next64() for _ in range(5)]

    def test_xorshift_rejects_zero_seed(self):
        with pytest.raises(ValueError):
            Xorshift64(0)

    def test_bounded_draws(self):
        rng = Xorshift64(7)
        assert all(0 <= rng.next_below(10) < 10 for _ in range(100))

    def test_audio_samples_are_16bit_signed(self):
        samples = audio_samples(1000)
        assert all(-32768 <= s <= 32767 for s in samples)
        # Speech-like: mostly small sample-to-sample deltas.
        deltas = [abs(b - a) for a, b in zip(samples, samples[1:])]
        assert sum(deltas) / len(deltas) < 1000

    def test_image_block_is_bytes(self):
        block = image_block(16, 16)
        assert len(block) == 256
        assert all(0 <= b <= 255 for b in block)

    def test_text_is_ascii(self):
        text = text_bytes(500)
        assert len(text) == 500
        assert all(b < 128 for b in text)
