"""Integration tests for the benchmark stand-ins (Tables 2-3).

Each workload must (a) assemble, (b) run to completion functionally,
with the architectural length count behind its warmup agreeing with
the reference feed, (c) compute a verifiable result where a Python
model exists, and (d) exhibit the qualitative profile the paper reports
for its namesake.  The input generators, which step the PRNG inline,
must draw exactly what the reference ``Xorshift64`` step draws, and
every workload's program is pinned by a digest.
"""

import hashlib

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


def program_digest(program) -> str:
    """sha256 over a program's entry, instructions and data image."""
    h = hashlib.sha256()
    h.update(repr((program.base_pc, program.entry)).encode())
    for inst in program.instructions:
        h.update(repr((inst.opcode.name, inst.ra, inst.rb, inst.rd,
                       inst.imm, inst.target)).encode())
    for addr, data in program.image:
        h.update(repr((addr, len(data))).encode())
        h.update(data)
    return h.hexdigest()


#: ``program_digest(workload.builder(scale))`` per (workload, scale).
PROGRAM_DIGESTS = {
    ("compress", 1): "18470b93ac4520703dc191a971fb451d701479844181c32ab7249c045b57b2d1",
    ("compress", 2): "4303afba10d73060c9041ce3a57118ac9e697940de75a2dff906830df8a2408d",
    ("g721-decode", 1): "50ee9eb0c9a59ce8d0a9532eabe47f44b214bcb698d9088fd1a5a89d17906c1c",
    ("g721-decode", 2): "a5975a3111c3551ff1ee8302b136df208d8768027c2d99f72ceb1b8234f1f52b",
    ("g721-encode", 1): "1e68dc08726b085e9b51a4b20cbad7cfac6daaccf0eb7821dbeed8e12a3e0776",
    ("g721-encode", 2): "ae26b13af9ed1c0251723752f8a06a4a314fa99b61e189ca6b58f71a3153bf92",
    ("gcc", 1): "dbdafcbd3fbcd59b9e7395bc0ce4800436da38b8f744df58394ca709a84dea7b",
    ("gcc", 2): "45966ad5302390ad04a17826db7fa1aa88f28ddafcf71c10539a5d92be6de1d8",
    ("go", 1): "3a11240a98cf81fd4ea3204bdf3deeb90548e1676cacf01c7d02bb792c3b2421",
    ("go", 2): "3493188368478a4c288d7876fd43bf87bf378ba67ba524a56e8a995dceb3fedb",
    ("gsm-decode", 1): "f31ec1689cc48a47ea1470d2587f36b9701f3ccb405e638845b432d6e53491e0",
    ("gsm-decode", 2): "4b6165fbaccde05f0a731d2dbe6f3dac6cbe83897c94af663f36d754b699fd50",
    ("gsm-encode", 1): "5cb1c45ab48aba02046ef9c43764fa3d92d4fd74770a981461ff470e97c0ea83",
    ("gsm-encode", 2): "33a300bab419dd2427f17c4dc7cc7f05094df20dd8024ade84d710578993f47f",
    ("ijpeg", 1): "2723c6f8ba942d3f0b9abb269b1482161aa1bb989961b505d31a916a84912e50",
    ("ijpeg", 2): "373dd8a98719f893e3c526354516a941025bbd596f77b4315a9b8b8af2e3c3e2",
    ("m88ksim", 1): "d838cf1973390d5f28e335a8cfbcead8fa08d52bd8f00943c3ee8c86135c54a1",
    ("m88ksim", 2): "4c0b399a232c1a93aebfd0ba5a9354efd0494d4b8d06e445efe3be1c7239cce7",
    ("mpeg2-decode", 1): "50581c964b55e3116a5948c71fb87fb1e64d81b914b7c7c9c1d6f1e1f7f2dcee",
    ("mpeg2-decode", 2): "6e06d9d379a18f0b755b33312a07cfe28e67d7483b273fd6a82176690518cce7",
    ("mpeg2-encode", 1): "93fee82b8e09c082226f7f6e3cd94013c0ec34a7be7f330de292579fc0e97a95",
    ("mpeg2-encode", 2): "86be590fee9d35eaee0a65c97f62c83da85c398e53f636fac0e0fe3d1c187ea4",
    ("perl", 1): "d5afa90c21dfadced439c682f26dcc553ca0738dbfdaa2df9bfe7729445fd800",
    ("perl", 2): "1a2387fbdc35ac2cfecba01eb90f9ff24f1daf2ec3c274ed01a71aae29517403",
    ("vortex", 1): "3d93535a2976360ac2bf5faa52915c31baa2b9f1664aec306e452053a709a445",
    ("vortex", 2): "ed7cda1def1970cd620453397c83968c125762883b33822342303a18ae8ea6ad",
    ("xlisp", 1): "304fbcbbc89c182f7581df513f903d2eb7da36a3ad2189718cf575030e735eab",
    ("xlisp", 2): "4373c154894dd275c00624ebcfda1069dfc0ada401e04bf3f283851fd86bd663",
}


@pytest.mark.parametrize("name", sorted(SPEC_NAMES | MEDIA_NAMES))
class TestAllWorkloads:
    def test_builds_deterministically(self, name):
        w = get_workload(name)
        p1, p2 = w.builder(1), w.builder(1)
        assert len(p1) == len(p2)
        assert p1.image == p2.image

    @pytest.mark.parametrize("scale", [1, 2])
    def test_program_matches_its_pinned_digest(self, name, scale):
        # A generator or builder that drifts changes the simulated
        # programs, and with them every published number.
        program = get_workload(name).builder(scale)
        assert program_digest(program) == PROGRAM_DIGESTS[name, scale]

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


# Value-by-value twins of the generators, on the reference step.

def reference_audio(count: int, seed: int) -> list[int]:
    rng = Xorshift64(seed)
    samples = []
    level = 0
    for _ in range(count):
        level += rng.next_below(257) - 128
        level -= level // 8
        level = max(-32768, min(32767, level))
        samples.append(level)
    return samples


def reference_image(width: int, height: int, seed: int) -> bytes:
    rng = Xorshift64(seed)
    pixels = bytearray(width * height)
    value = 128
    for y in range(height):
        for x in range(width):
            value = max(0, min(255, value + rng.next_below(33) - 16))
            pixels[y * width + x] = value
    return bytes(pixels)


def reference_text(count: int, seed: int) -> bytes:
    rng = Xorshift64(seed)
    alphabet = b"etaoinshrdlucmfwypvbgkjqxz     \n"
    return bytes(alphabet[rng.next_below(len(alphabet))]
                 for _ in range(count))


SEEDS = (1, 42, 0x1234_5678, 0x9E37_79B9_7F4A_7C15, (1 << 64) - 1)


class TestInlineDraws:
    """The inline xorshift64* steps draw what ``next64``/``next_below``
    draw, value by value."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", [0, 1, 10_000])
    @pytest.mark.parametrize("bound", [1, 3, 16, 33, 257])
    def test_bulk_draw_matches_next_below(self, seed, count, bound):
        bulk, single = Xorshift64(seed), Xorshift64(seed)
        assert (bulk.draws_below(bound, count)
                == [single.next_below(bound) for _ in range(count)])
        # and leaves the state where the single draws leave it
        assert bulk.next64() == single.next64()

    def test_bulk_draw_rejects_empty_bound(self):
        with pytest.raises(ValueError):
            Xorshift64(7).draws_below(0, 5)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", [0, 1, 10_000])
    def test_audio_samples(self, seed, count):
        assert audio_samples(count, seed) == reference_audio(count, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("width,height", [(0, 4), (1, 1), (100, 100),
                                              (256, 3)])
    def test_image_block(self, seed, width, height):
        assert (image_block(width, height, seed)
                == reference_image(width, height, seed))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", [0, 1, 10_000])
    def test_text_bytes(self, seed, count):
        assert text_bytes(count, seed) == reference_text(count, seed)

    @pytest.mark.parametrize("generator", [
        lambda: audio_samples(4, seed=0),
        lambda: image_block(2, 2, seed=0),
        lambda: text_bytes(4, seed=0),
    ], ids=["audio", "image", "text"])
    def test_zero_seed_is_rejected(self, generator):
        with pytest.raises(ValueError):
            generator()
