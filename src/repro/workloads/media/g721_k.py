"""``g721-encode`` / ``g721-decode`` stand-ins: G.721 ADPCM.

G.721 voice compression quantizes the difference between each 16-bit
sample and an adaptive prediction into a 4-bit code.  Virtually every
value in flight — samples, differences, step sizes, codes — fits in 16
bits, which is why the paper's media benchmarks gate so well.  The
encoder kernel runs the compare-ladder quantizer and predictor update;
the decoder reconstructs samples from 4-bit codes with the inverse
quantizer.  Control is a short data-dependent compare ladder per
sample, mostly well predicted.
"""

from __future__ import annotations

from repro.asm.assembler import Assembler
from repro.isa.instruction import Program
from repro.workloads.common import loop_begin, loop_end, prologue
from repro.workloads.data import Xorshift64, audio_samples
from repro.workloads.registry import (
    MEDIABENCH,
    WARMUP_HALF,
    Workload,
    register,
)

_BUF_BYTES = 72 * 1024        # sample buffer, > 64K L1 (streams)
_LINE = 32                    # one sample quantized per cache line
_SAMPLES = _BUF_BYTES // _LINE


def _encode(scale: int) -> Program:
    asm = Assembler("g721-encode")
    prologue(asm)
    pcm = asm.alloc("pcm", _BUF_BYTES)
    codes = asm.alloc("codes", _SAMPLES)
    out = asm.alloc("out", 16)
    asm.data_words(pcm, audio_samples(_BUF_BYTES // 2, seed=0x6721), size=2)

    # Register map: s0 pcm base  s1 codes base  s2 index
    #   s3 predictor  s4 step size  s5 code checksum
    asm.li("s0", pcm)
    asm.li("s1", codes)

    loop_begin(asm, "frames", "a0", 2 * scale)
    asm.clr("s3")
    asm.li("s4", 16)
    asm.clr("s2")
    asm.label("sample")
    # d = sample - predictor; one sample per cache line streams the
    # buffer through the L1.
    asm.li("t0", _LINE)
    asm.op("mulq", "t1", "s2", "t0")
    asm.op("addq", "t1", "t1", "s0")
    asm.load("ldwu", "t2", "t1", 0)
    asm.op("sll", "t2", "t2", 48)
    asm.op("sra", "t2", "t2", 48)
    asm.op("subq", "t3", "t2", "s3")

    # |d| and the sign bit.
    asm.op("cmplt", "t4", "t3", "zero")         # sign
    asm.op("subq", "t5", "zero", "t3")          # t5 = -d ...
    asm.op("cmoveq", "t5", "t4", "t3")          # ... or d when d >= 0

    # Compare-ladder quantizer: code bits from |d| vs step multiples.
    asm.clr("t6")                               # code
    asm.op("cmple", "t7", "s4", "t5")           # |d| >= step ?
    asm.br("beq", "t7", "q1")
    asm.op("bis", "t6", "t6", 4)
    asm.op("subq", "t5", "t5", "s4")
    asm.label("q1")
    asm.op("srl", "t8", "s4", 1)
    asm.op("cmple", "t7", "t8", "t5")           # |d| >= step/2 ?
    asm.br("beq", "t7", "q2")
    asm.op("bis", "t6", "t6", 2)
    asm.op("subq", "t5", "t5", "t8")
    asm.label("q2")
    asm.op("srl", "t8", "s4", 2)
    asm.op("cmple", "t7", "t8", "t5")           # |d| >= step/4 ?
    asm.br("beq", "t7", "q3")
    asm.op("bis", "t6", "t6", 1)
    asm.label("q3")
    asm.op("sll", "t9", "t4", 3)
    asm.op("bis", "t6", "t6", "t9")             # sign into bit 3

    # Predictor update: pred += (code centred) * step / 4.
    asm.op("and", "t10", "t6", 7)
    asm.op("mull", "t11", "t10", "s4")
    asm.op("sra", "t11", "t11", 2)
    asm.op("subq", "t12", "zero", "t11")
    asm.op("cmovne", "t11", "t4", "t12")        # apply sign
    asm.op("addq", "s3", "s3", "t11")
    # Step adaptation: bigger codes grow the step, small ones shrink it.
    asm.li("at", 3)
    asm.op("cmple", "t7", "at", "t10")
    asm.br("beq", "t7", "shrink")
    asm.op("sll", "s4", "s4", 1)                # grow
    asm.br("br", "clampstep")
    asm.label("shrink")
    asm.op("srl", "s4", "s4", 1)
    asm.label("clampstep")
    asm.li("at", 8)
    asm.op("cmplt", "t7", "s4", "at")
    asm.op("cmovne", "s4", "t7", "at")          # step >= 8
    asm.li("at", 2048)
    asm.op("cmplt", "t7", "at", "s4")
    asm.op("cmovne", "s4", "t7", "at")          # step <= 2048

    asm.op("addq", "a1", "s2", "s1")
    asm.store("stb", "t6", "a1", 0)            # emit the 4-bit code
    asm.op("xor", "s5", "s5", "t6")
    asm.op("addq", "s2", "s2", 1)
    asm.li("a2", _SAMPLES)
    asm.op("cmplt", "t7", "s2", "a2")
    asm.br("bne", "t7", "sample")
    loop_end(asm, "frames", "a0")

    asm.li("t0", out)
    asm.store("stq", "s5", "t0", 0)
    asm.halt()
    return asm.assemble()


def _decode(scale: int) -> Program:
    asm = Assembler("g721-decode")
    prologue(asm)
    codes = asm.alloc("codes", _BUF_BYTES)
    pcm = asm.alloc("pcm_out", _SAMPLES * 2)
    out = asm.alloc("out", 16)
    asm.data_bytes(codes, bytes(Xorshift64(0xDEC721).draws_below(
        16, _BUF_BYTES)))

    # Register map: s0 codes  s1 pcm out  s2 index  s3 predictor
    #   s4 step  s5 checksum
    asm.li("s0", codes)
    asm.li("s1", pcm)
    asm.clr("s5")

    loop_begin(asm, "frames", "a0", 2 * scale)
    asm.clr("s3")
    asm.li("s4", 16)
    asm.clr("s2")
    asm.label("sample")
    asm.li("t0", _LINE)
    asm.op("mulq", "t0", "s2", "t0")
    asm.op("addq", "t0", "t0", "s0")
    asm.load("ldbu", "t1", "t0", 0)             # 4-bit code (one/line)
    asm.op("and", "t2", "t1", 7)                # magnitude
    asm.op("srl", "t3", "t1", 3)                # sign
    # dq = (2*mag + 1) * step / 8
    asm.op("sll", "t4", "t2", 1)
    asm.op("addq", "t4", "t4", 1)
    asm.op("mull", "t5", "t4", "s4")
    asm.op("sra", "t5", "t5", 3)
    asm.op("subq", "t6", "zero", "t5")
    asm.op("cmovne", "t5", "t3", "t6")
    asm.op("addq", "s3", "s3", "t5")            # reconstruct
    # clamp predictor to 16-bit audio range with compares + cmov.
    asm.li("at", 32767)
    asm.op("cmplt", "t7", "at", "s3")
    asm.op("cmovne", "s3", "t7", "at")
    asm.li("at", -32768)
    asm.op("cmplt", "t7", "s3", "at")
    asm.op("cmovne", "s3", "t7", "at")
    # step adaptation identical to the encoder.
    asm.li("at", 3)
    asm.op("cmple", "t7", "at", "t2")
    asm.br("beq", "t7", "shrink")
    asm.op("sll", "s4", "s4", 1)
    asm.br("br", "clampstep")
    asm.label("shrink")
    asm.op("srl", "s4", "s4", 1)
    asm.label("clampstep")
    asm.li("at", 8)
    asm.op("cmplt", "t7", "s4", "at")
    asm.op("cmovne", "s4", "t7", "at")
    asm.li("at", 2048)
    asm.op("cmplt", "t7", "at", "s4")
    asm.op("cmovne", "s4", "t7", "at")

    asm.op("sll", "t8", "s2", 1)
    asm.op("addq", "t8", "t8", "s1")
    asm.store("stw", "s3", "t8", 0)
    asm.op("xor", "s5", "s5", "s3")
    asm.op("addq", "s2", "s2", 1)
    asm.li("t9", _SAMPLES)
    asm.op("cmplt", "t7", "s2", "t9")
    asm.br("bne", "t7", "sample")
    loop_end(asm, "frames", "a0")

    asm.li("t0", out)
    asm.store("stq", "s5", "t0", 0)
    asm.halt()
    return asm.assemble()


register(Workload(
    name="g721-encode",
    suite=MEDIABENCH,
    description="G.721 ADPCM compare-ladder quantizer and predictor "
                "update (stand-in for MediaBench g721-encode)",
    builder=_encode,
    warmup=WARMUP_HALF,
))

register(Workload(
    name="g721-decode",
    suite=MEDIABENCH,
    description="G.721 ADPCM inverse quantizer and reconstruction "
                "(stand-in for MediaBench g721-decode)",
    builder=_decode,
    warmup=WARMUP_HALF,
))
