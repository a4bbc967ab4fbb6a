"""``go`` stand-in: board evaluation with data-dependent branches.

SPECint95 ``go`` is the suite's branch-predictor nightmare (the paper:
"go, notorious for its poor branch prediction, is affected the most")
and is "helped the most by adding the extra signal to detect 33-bit
operations" because it is dominated by address calculations into board
arrays.  This kernel walks a 19x19 board of pseudo-random stones,
counting liberties and chain strengths: every stone comparison is a
data-dependent branch on PRNG data, and every neighbour access is a
33-bit address calculation.
"""

from __future__ import annotations

from repro.asm.assembler import Assembler
from repro.isa.instruction import Program
from repro.workloads.common import loop_begin, loop_end, prologue
from repro.workloads.data import Xorshift64
from repro.workloads.registry import SPECINT95, Workload, register

_SIZE = 19


def _board_bytes() -> bytes:
    # 0 = empty, 1 = black, 2 = white; roughly mid-game density.
    return bytes(Xorshift64(0x60B0A2D0).draws_below(3, _SIZE * _SIZE))


def build(scale: int = 1) -> Program:
    asm = Assembler("go")
    prologue(asm)
    board = asm.alloc("board", _SIZE * _SIZE)
    score = asm.alloc("score", 16)
    asm.data_bytes(board, _board_bytes())

    # Register map:
    #   s0 board base   s1 row   s2 col   s3 score   s4 cell addr
    #   s5 our stone
    asm.li("s0", board)
    asm.clr("s3")

    loop_begin(asm, "eval", "a0", 2 * scale)
    asm.li("s1", _SIZE - 2)                  # rows 1..17 (skip edges)
    asm.label("row")
    asm.li("s2", _SIZE - 2)                  # cols 1..17
    asm.label("col")

    # addr = board + row*19 + col   (33-bit address arithmetic)
    asm.li("t0", _SIZE)
    asm.op("mulq", "t1", "s1", "t0")
    asm.op("addq", "t1", "t1", "s2")
    asm.op("addq", "s4", "t1", "s0")
    asm.load("ldbu", "s5", "s4", 0)          # the stone here
    asm.br("beq", "s5", "empty")             # data-dependent, ~33% taken

    # Count friendly neighbours (N, S, E, W) — four data-dependent
    # branches per occupied point, essentially random to the predictor.
    asm.load("ldbu", "t2", "s4", -_SIZE)     # north
    asm.op("cmpeq", "t3", "t2", "s5")
    asm.br("beq", "t3", "no_n")
    asm.op("addq", "s3", "s3", 2)
    asm.label("no_n")
    asm.load("ldbu", "t2", "s4", _SIZE)      # south
    asm.op("cmpeq", "t3", "t2", "s5")
    asm.br("beq", "t3", "no_s")
    asm.op("addq", "s3", "s3", 2)
    asm.label("no_s")
    asm.load("ldbu", "t2", "s4", 1)          # east
    asm.op("cmpeq", "t3", "t2", "s5")
    asm.br("beq", "t3", "no_e")
    asm.op("addq", "s3", "s3", 1)
    asm.label("no_e")
    asm.load("ldbu", "t2", "s4", -1)         # west
    asm.op("cmpeq", "t3", "t2", "s5")
    asm.br("beq", "t3", "no_w")
    asm.op("addq", "s3", "s3", 1)
    asm.label("no_w")
    asm.br("br", "cont")

    asm.label("empty")
    # Liberty credit for empty points adjacent to stones.
    asm.load("ldbu", "t2", "s4", 1)
    asm.op("addq", "s3", "s3", "t2")
    asm.label("cont")

    asm.op("subq", "s2", "s2", 1)
    asm.br("bne", "s2", "col")
    asm.op("subq", "s1", "s1", 1)
    asm.br("bne", "s1", "row")
    loop_end(asm, "eval", "a0")

    asm.li("t4", score)
    asm.store("stq", "s3", "t4", 0)
    asm.halt()
    return asm.assemble()


register(Workload(
    name="go",
    suite=SPECINT95,
    description="19x19 board evaluation with data-dependent stone "
                "comparisons (stand-in for SPECint95 go, 9stone21)",
    builder=build,
    warmup=500,
))
