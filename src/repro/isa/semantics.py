"""Functional semantics of the Alpha-like ISA.

All values are unsigned 64-bit integers (Python ints in ``[0, 2**64)``);
signed behaviour is obtained through explicit two's-complement
conversion, exactly as the paper assumes ("Numbers are expressed in
two's complement form", Section 4.3).

The semantics are stated twice, side by side: :func:`compute` and
:func:`branch_taken` are the reference machine's if-chains, and
:data:`COMPUTE_EXPRS` / :data:`BRANCH_EXPRS` are the fast backend's
table of Python expressions.  That table is its only statement of
them: the cycle loop calls it as :data:`COMPUTE_FNS` / :data:`BRANCH_FNS`,
and the run compiler (:mod:`repro.fastsim.runs`) inlines it into
generated code.  ``tests/test_fastsim.py`` checks the two statements
agree on every opcode.
"""

from __future__ import annotations

from repro.isa.opcodes import Opcode

MASK64 = 0xFFFF_FFFF_FFFF_FFFF
SIGN_BIT = 1 << 63


def mask64(value: int) -> int:
    """Truncate ``value`` to 64 bits (two's-complement wraparound)."""
    return value & MASK64


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as a signed quadword."""
    return value - (1 << 64) if value & SIGN_BIT else value


def to_unsigned(value: int) -> int:
    """Convert a (possibly negative) Python int to its 64-bit pattern."""
    return value & MASK64


def sext(value: int, bits: int) -> int:
    """Sign-extend the low ``bits`` bits of ``value`` to 64 bits."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value & MASK64


def _sext32(value: int) -> int:
    return sext(value, 32)


def _zapnot(a: int, b: int) -> int:
    """Keep only the bytes of ``a`` whose select bit is set in ``b``."""
    result = 0
    for byte in range(8):
        if b & (1 << byte):
            result |= a & (0xFF << (8 * byte))
    return result


def compute(op: Opcode, a: int, b: int, old_dest: int = 0) -> int:
    """Compute the 64-bit result of a non-memory, non-control operation.

    ``a`` and ``b`` are the resolved source values (register contents or
    literals, already 64-bit unsigned).  ``old_dest`` is the previous
    destination value, read only by conditional moves.
    """
    if op is Opcode.ADDQ or op is Opcode.LDA:
        return mask64(a + b)
    if op is Opcode.SUBQ:
        return mask64(a - b)
    if op is Opcode.ADDL:
        return _sext32(a + b)
    if op is Opcode.SUBL:
        return _sext32(a - b)
    if op is Opcode.S4ADDQ:
        return mask64(4 * a + b)
    if op is Opcode.S8ADDQ:
        return mask64(8 * a + b)
    if op is Opcode.LDAH:
        return mask64(a + mask64(b << 16))
    if op is Opcode.CMPEQ:
        return 1 if a == b else 0
    if op is Opcode.CMPLT:
        return 1 if to_signed(a) < to_signed(b) else 0
    if op is Opcode.CMPLE:
        return 1 if to_signed(a) <= to_signed(b) else 0
    if op is Opcode.CMPULT:
        return 1 if a < b else 0
    if op is Opcode.CMPULE:
        return 1 if a <= b else 0
    if op is Opcode.MULQ:
        return mask64(a * b)
    if op is Opcode.MULL:
        return _sext32(a * b)
    if op is Opcode.AND:
        return a & b
    if op is Opcode.BIS:
        return a | b
    if op is Opcode.XOR:
        return a ^ b
    if op is Opcode.BIC:
        return a & ~b & MASK64
    if op is Opcode.ORNOT:
        return (a | ~b) & MASK64
    if op is Opcode.EQV:
        return (a ^ ~b) & MASK64
    if op is Opcode.CMOVEQ:
        return b if a == 0 else old_dest
    if op is Opcode.CMOVNE:
        return b if a != 0 else old_dest
    if op is Opcode.ZAPNOT:
        return _zapnot(a, b)
    if op is Opcode.SLL:
        return mask64(a << (b & 0x3F))
    if op is Opcode.SRL:
        return a >> (b & 0x3F)
    if op is Opcode.SRA:
        return to_unsigned(to_signed(a) >> (b & 0x3F))
    if op is Opcode.EXTBL:
        return (a >> (8 * (b & 0x7))) & 0xFF
    if op is Opcode.EXTWL:
        return (a >> (8 * (b & 0x7))) & 0xFFFF
    if op is Opcode.NOP:
        return 0
    raise ValueError(f"compute() does not handle opcode {op}")


#: Operate semantics as Python expressions over ``{a}``, ``{b}`` and
#: ``{o}`` (the old destination, read only by CMOV), all unsigned 64-bit:
#: the fast backend's one statement of what :func:`compute` computes.
#: :data:`COMPUTE_FNS` wraps each in a lambda, and the run compiler
#: (:mod:`repro.fastsim.runs`) substitutes register reads and folded
#: immediates for the placeholders.  Signed compares and shifts flip or
#: subtract the sign bit instead of calling :func:`to_signed`.
#: ``tests/test_fastsim.py`` checks every entry against :func:`compute`.
COMPUTE_EXPRS: dict[Opcode, str] = {
    Opcode.ADDQ: "({a} + {b}) & 0xFFFFFFFFFFFFFFFF",
    Opcode.LDA: "({a} + {b}) & 0xFFFFFFFFFFFFFFFF",
    Opcode.SUBQ: "({a} - {b}) & 0xFFFFFFFFFFFFFFFF",
    Opcode.ADDL: "(((({a} + {b}) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"
                 " & 0xFFFFFFFFFFFFFFFF",
    Opcode.SUBL: "(((({a} - {b}) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"
                 " & 0xFFFFFFFFFFFFFFFF",
    Opcode.S4ADDQ: "(4 * {a} + {b}) & 0xFFFFFFFFFFFFFFFF",
    Opcode.S8ADDQ: "(8 * {a} + {b}) & 0xFFFFFFFFFFFFFFFF",
    Opcode.LDAH: "({a} + ({b} << 16)) & 0xFFFFFFFFFFFFFFFF",
    Opcode.CMPEQ: "1 if {a} == {b} else 0",
    Opcode.CMPLT: "1 if ({a} ^ 0x8000000000000000)"
                  " < ({b} ^ 0x8000000000000000) else 0",
    Opcode.CMPLE: "1 if ({a} ^ 0x8000000000000000)"
                  " <= ({b} ^ 0x8000000000000000) else 0",
    Opcode.CMPULT: "1 if {a} < {b} else 0",
    Opcode.CMPULE: "1 if {a} <= {b} else 0",
    Opcode.MULQ: "({a} * {b}) & 0xFFFFFFFFFFFFFFFF",
    Opcode.MULL: "(((({a} * {b}) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"
                 " & 0xFFFFFFFFFFFFFFFF",
    Opcode.AND: "{a} & {b}",
    Opcode.BIS: "{a} | {b}",
    Opcode.XOR: "{a} ^ {b}",
    Opcode.BIC: "{a} & ({b} ^ 0xFFFFFFFFFFFFFFFF)",
    Opcode.ORNOT: "{a} | ({b} ^ 0xFFFFFFFFFFFFFFFF)",
    Opcode.EQV: "{a} ^ {b} ^ 0xFFFFFFFFFFFFFFFF",
    Opcode.CMOVEQ: "{b} if {a} == 0 else {o}",
    Opcode.CMOVNE: "{b} if {a} != 0 else {o}",
    Opcode.ZAPNOT: "{a} & ZAPNOT_MASKS[{b} & 0xFF]",
    Opcode.SLL: "({a} << ({b} & 0x3F)) & 0xFFFFFFFFFFFFFFFF",
    Opcode.SRL: "{a} >> ({b} & 0x3F)",
    Opcode.SRA: "((({a} ^ 0x8000000000000000) - 0x8000000000000000)"
                " >> ({b} & 0x3F)) & 0xFFFFFFFFFFFFFFFF",
    Opcode.EXTBL: "({a} >> (({b} & 0x7) * 8)) & 0xFF",
    Opcode.EXTWL: "({a} >> (({b} & 0x7) * 8)) & 0xFFFF",
    Opcode.NOP: "0",
}

#: Conditional-branch twin of :data:`COMPUTE_EXPRS`: each condition over
#: ``{a}`` as a bool, with sign tests as bit tests on the unsigned
#: pattern.  Checked against :func:`branch_taken` the same way.
BRANCH_EXPRS: dict[Opcode, str] = {
    Opcode.BEQ: "{a} == 0",
    Opcode.BNE: "{a} != 0",
    Opcode.BLT: "{a} >= 0x8000000000000000",
    Opcode.BLE: "{a} == 0 or {a} >= 0x8000000000000000",
    Opcode.BGT: "0 < {a} < 0x8000000000000000",
    Opcode.BGE: "{a} < 0x8000000000000000",
    Opcode.BLBC: "({a} & 1) == 0",
    Opcode.BLBS: "({a} & 1) == 1",
}

#: ZAPNOT's byte masks, one per select pattern (bit ``i`` keeps byte
#: ``i``), built by doubling: patterns with bit ``i`` set follow those
#: without it, with byte ``i`` added.
ZAPNOT_MASKS: tuple[int, ...] = (0,)
for _byte in range(8):
    ZAPNOT_MASKS += tuple(mask | 0xFF << 8 * _byte for mask in ZAPNOT_MASKS)


def _lambdas(params: str, exprs: dict[Opcode, str]) -> dict:
    """One lambda per table entry, compiled together in one pass."""
    names = {name: name for name in params.split(", ")}
    source = ", ".join(f"{op.name}: lambda {params}: "
                       f"{expr.format(**names)}"
                       for op, expr in exprs.items())
    return eval(f"{{{source}}}",
                {"ZAPNOT_MASKS": ZAPNOT_MASKS, **Opcode.__members__})


#: :data:`COMPUTE_EXPRS` as callables ``(a, b, o) -> result``, the form the
#: fast backend's cycle loop calls per operate.
COMPUTE_FNS = _lambdas("a, b, o", COMPUTE_EXPRS)

#: :data:`BRANCH_EXPRS` as callables ``(a) -> taken``.
BRANCH_FNS = _lambdas("a", BRANCH_EXPRS)


def branch_taken(op: Opcode, a: int) -> bool:
    """Evaluate a conditional branch's condition on register value ``a``."""
    signed = to_signed(a)
    if op is Opcode.BEQ:
        return a == 0
    if op is Opcode.BNE:
        return a != 0
    if op is Opcode.BLT:
        return signed < 0
    if op is Opcode.BLE:
        return signed <= 0
    if op is Opcode.BGT:
        return signed > 0
    if op is Opcode.BGE:
        return signed >= 0
    if op is Opcode.BLBC:
        return (a & 1) == 0
    if op is Opcode.BLBS:
        return (a & 1) == 1
    raise ValueError(f"branch_taken() does not handle opcode {op}")
