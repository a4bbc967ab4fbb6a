"""Run compiler: straight-line code as generated Python functions.

A *run* is the straight-line code from any instruction index up to and
including its closing control transfer or HALT, or up to an instruction
cap.  The fast backend's functional passes, the length count
(:func:`~repro.fastsim.machine.count_to_halt`) and the warm-up
(:meth:`~repro.fastsim.machine.FastMachine._forward`), execute one run
per call instead of decoding and dispatching every instruction.

:func:`run_source` emits a run as the source of one function ``run``.
Every decode constant is folded in: register numbers, immediates, PCs,
branch targets, access sizes and the block numbers of the same-block
shortcut.  Each operate and condition is inlined from
:data:`~repro.isa.semantics.COMPUTE_EXPRS` /
:data:`~repro.isa.semantics.BRANCH_EXPRS`.  The function returns the
index of the next run.  It comes in three variants:

* :data:`COUNT`: registers and main memory only, on the correct path.
* :data:`WARM`: the good-path warm-up.  Conditional branches train the
  predictor step, BTB and RAS calls keep ``_forward``'s order, and the
  walks run in program order: the I-side walk before each instruction's
  D-side walk.  The I-side check is emitted only where it can fire: at
  the run's first instruction and wherever the run enters a new block.
  A walk leaves its block at MRU in the L1 and its page at the front of
  the TLB, so a repeat walk of that block would change nothing and
  return the L1 latency.  The one thing such a repeat would set, the
  shortcut register, is set directly at the end of the run.  When
  blocks can straddle pages (``mru`` is -1) every instruction walks.
  From-load bits are written once per register, at the end of the run:
  nothing in the warm-up reads them.
* :data:`SPEC`: a warm-up entered on a wrong path.  Loads and stores go
  through the speculative overlay, nothing trains, and the run stops
  before a HALT.

Per-machine objects (registers, memory, walks, predictor step, BTB and
RAS) are the function's parameter defaults, bound by :func:`bind` with
``types.FunctionType``, so binding a run never recompiles it.  Code
objects are cached per process by a digest of the source text
(:data:`_CODE`), so a run is compiled once and kept across rebuilds of
an equal program; the cache starts over past :data:`_CODE_LIMIT`
entries.  The generated functions share one constant globals dict that
never holds them, so a finished machine's objects are freed by
reference counting alone.

To read a run's code, print ``run_source(compile_program(program),
COUNT_VARIANT, start)[0]``, or for a machine's warm-up
``run_source(m.cp, (WARM, m._blk_bytes, m._mru_lat), start)[0]``.
"""

from __future__ import annotations

from hashlib import blake2b
from types import CodeType, FunctionType

from repro.asm.layout import PAGE_BYTES
from repro.fastsim.capture import OPCODE_ORDER
from repro.fastsim.compile import (
    K_BR,
    K_BSR,
    K_COND,
    K_HALT,
    K_JMP,
    K_JSR,
    K_LOAD,
    K_NOP,
    K_OPERATE,
    K_RET,
    K_STORE,
    CompiledProgram,
)
from repro.isa.semantics import BRANCH_EXPRS, COMPUTE_EXPRS, ZAPNOT_MASKS

#: Variant modes (see the module docstring).
COUNT = "count"
WARM = "warm"
SPEC = "spec"

#: A variant is ``(mode, block_bytes, mru)``; the count needs no walks.
COUNT_VARIANT = (COUNT, 0, 0)

_PARAMS = {COUNT: "r, pg, st, ld",
           WARM: "r, fl, pg, st, ld, iw, dw, bp, bl, bu, rpush, rpop, sb"}
_PARAMS[SPEC] = _PARAMS[WARM]

#: The globals of every generated function.  It holds no function, so
#: no generated function is part of a reference cycle.
_GLOBALS = {"fb": int.from_bytes, "ZAPNOT_MASKS": ZAPNOT_MASKS}

#: Digest of a run's source text -> code object of its ``run`` function.
#: Threads only get and set whole entries.
_CODE: dict[bytes, CodeType] = {}

#: Most entries :data:`_CODE` holds before it starts over (about 2.7 KB
#: of marshalled code each).  The 14 workloads' counts and Table 1
#: warm-ups fill 152 at scale 1 and 188 at scales 1 and 2, so only a
#: process that serves many scales or hierarchies ever recompiles.
_CODE_LIMIT = 1024

_PAGE_SHIFT = PAGE_BYTES.bit_length() - 1
assert PAGE_BYTES == 1 << _PAGE_SHIFT
_OFF = PAGE_BYTES - 1


def _reg(index: int) -> str:
    return "0" if index == 31 else f"r[{index}]"


def _address(base: int, disp: int) -> str:
    if base == 31:
        return str(disp)
    return f"(r[{base}] + {disp}) & 0xFFFFFFFFFFFFFFFF" if disp else \
        f"r[{base}]"


def _load(size: int) -> str:
    """Main-memory read of ``size`` bytes at ``x``: same-page reads
    slice the page, the rest (unmapped or straddling) call ``ld``."""
    if size == 1:
        return f"p[x & {_OFF}] if (p := pg(x >> {_PAGE_SHIFT})) is not None else 0"
    return (f'fb(p[o:o + {size}], "little") if (o := x & {_OFF}) <= '
            f"{PAGE_BYTES - size} and (p := pg(x >> {_PAGE_SHIFT})) "
            f"is not None else ld(x, {size})")


def _store(value: str, size: int) -> list[str]:
    """Main-memory write of ``value``'s low ``size`` bytes at ``x``:
    same-page writes into an existing page go straight in."""
    if size == 1:
        return [f"if (p := pg(x >> {_PAGE_SHIFT})) is not None: "
                f"p[x & {_OFF}] = {value} & 0xFF",
                f"else: st(x, {value}, 1)"]
    # Parenthesized, so a literal 0 (R31) takes the method call too.
    low = f"({value})" if size == 8 else \
        f"({value} & {(1 << 8 * size) - 1})"
    return [f"if (o := x & {_OFF}) <= {PAGE_BYTES - size} and "
            f"(p := pg(x >> {_PAGE_SHIFT})) is not None: "
            f'p[o:o + {size}] = {low}.to_bytes({size}, "little")',
            f"else: st(x, {value}, {size})"]


def run_source(cp: CompiledProgram, variant: tuple, start: int,
               cap: int | None = None) -> tuple[str, int, bool]:
    """``(source, length, halts)`` of the run at ``start``: ``length``
    instructions, and whether it ends on a HALT (which the SPEC variant
    stops before and leaves out of ``length``)."""
    mode, blk_b, mru = variant
    warm = mode != COUNT
    spec = mode == SPEC
    if warm:
        shift = blk_b.bit_length() - 1
        blk_of = f">> {shift}" if blk_b == 1 << shift else f"// {blk_b}"
    body: list[str] = []
    emit = body.append
    from_load: dict[int, bool] = {}
    n = 0
    halts = False
    index = start
    blk = walked = None
    while True:
        if n == cap:
            ret = str(index)
            break
        cidx = index if 0 <= index < cp.n else cp.n
        kind = cp.kind[cidx]
        if kind == K_HALT and spec:
            halts = True
            ret = str(index)
            break
        pc = cp.base_pc + 4 * index
        op = OPCODE_ORDER[cp.opc_code[cidx]]
        if warm:
            # ---- I-side walk (see the module docstring)
            if mru < 0:
                emit(f"iw({pc})")
            elif blk != pc // blk_b:
                blk = pc // blk_b
                walk = f"sb[0] = {blk} if iw({pc}) == {mru} else -1"
                emit(f"if sb[0] != {blk}: {walk}" if n == 0 else walk)
                walked = n
        n += 1
        ret = None
        if kind == K_OPERATE:
            ra, has_rb, rb, imm_u, _, _, rd31, rd = cp.frow[cidx]
            if rd >= 0:
                emit(f"r[{rd}] = " + COMPUTE_EXPRS[op].format(
                    a=_reg(ra), b=_reg(rb) if has_rb else imm_u,
                    o=_reg(rd31)))
                from_load[rd] = False
        elif kind == K_LOAD or kind == K_STORE:
            if kind == K_LOAD:
                rb, imm_u, _, size, is_ldl, rd = cp.frow[cidx]
            else:
                rb, imm_u, _, ra, size = cp.frow[cidx]
            if warm or kind == K_STORE or rd >= 0:
                emit(f"x = {_address(rb, imm_u)}")
            if kind == K_STORE:
                if spec:
                    emit(f"st(x, {_reg(ra)}, {size})")
                else:
                    body.extend(_store(_reg(ra), size))
            elif rd >= 0:
                value = f"ld(x, {size})" if spec else _load(size)
                if is_ldl:
                    emit(f"v = {value}")
                    value = "v + 0xFFFFFFFF00000000 if v & 0x80000000 else v"
                emit(f"r[{rd}] = {value}")
                from_load[rd] = True
            if warm:
                write = ", True" if kind == K_STORE else ""
                if mru < 0:
                    emit(f"dw(x{write})")
                else:
                    emit(f"if (k := x {blk_of}) != sb[1]: "
                         f"sb[1] = k if dw(x{write}) == {mru} else -1")
        elif kind == K_COND:
            ra, _, _, _, _, _, target = cp.frow[cidx]
            taken = BRANCH_EXPRS[op].format(a=_reg(ra))
            if warm and not spec:
                emit(f"t = {taken}")
                emit(f"bp({pc}, t, True)")
                taken = "t"
            ret = f"{target} if {taken} else {index + 1}"
        elif kind == K_BR or kind == K_BSR:
            if kind == K_BSR:
                if warm and not spec:
                    emit(f"rpush({pc + 4})")
                rd = cp.rd_w[cidx]
                if rd >= 0:
                    emit(f"r[{rd}] = {pc + 4}")
                    from_load[rd] = False
            ret = str(cp.target[cidx])
        elif kind == K_JMP or kind == K_JSR or kind == K_RET:
            emit(f"t = {_reg(cp.rb31[cidx])}")
            if warm:
                if kind != K_RET:
                    emit(f"bl({pc})")
                elif not spec:
                    emit("rpop()")
                if not spec:
                    emit(f"bu({pc}, t)")
            if kind == K_JSR:
                if warm and not spec:
                    emit(f"rpush({pc + 4})")
                rd = cp.rd_w[cidx]
                if rd >= 0:
                    emit(f"r[{rd}] = {pc + 4}")
                    from_load[rd] = False
            ret = f"(t - {cp.base_pc}) >> 2"
        elif kind == K_HALT:
            halts = True
            ret = str(index + 1)
        else:
            assert kind == K_NOP
        if ret is not None:
            break
        index += 1
    if warm and mru >= 0 and walked is not None and walked != n - 1:
        emit(f"sb[0] = {blk}")     # the repeat walk's only effect
    if warm:
        for loaded in (False, True):
            written = [f"fl[{rd}] = " for rd in sorted(from_load)
                       if from_load[rd] is loaded]
            if written:
                emit("".join(written) + str(loaded))
    lines = [f"def run({_PARAMS[mode]}):",
             f"    # {mode} run of {n} from index {start}"]
    lines.extend(f"    {line}" for line in body)
    lines.append(f"    return {ret}")
    return "\n".join(lines) + "\n", n, halts


def _compile(source: str) -> CodeType:
    module = compile(source, "<fastsim run>", "exec")
    return next(const for const in module.co_consts
                if isinstance(const, CodeType))


def bind(cp: CompiledProgram, variant: tuple, start: int,
         cap: int | None, defaults: tuple) -> tuple:
    """``(run, length, halts)``: the run at ``start`` as a function of
    no arguments over one machine's objects (``defaults``, in the
    variant's parameter order), compiled once per process."""
    source, length, halts = run_source(cp, variant, start, cap)
    digest = blake2b(source.encode(), digest_size=16).digest()
    code = _CODE.get(digest)
    if code is None:
        if len(_CODE) >= _CODE_LIMIT:
            _CODE.clear()
        code = _CODE[digest] = _compile(source)
    return FunctionType(code, _GLOBALS, "run", defaults), length, halts
