"""Flat dynamic-trace capture (phase 1 of the fast backend).

A :class:`TraceCapture` accumulates one row per *measured* operation —
the exact stream the reference machine's instruments observe at issue
time (width-tracked classes plus jumps, wrong path and replay re-issues
included).  A row is only what varies per dynamic instance: six plain
ints appended to one flat list.  Phase 2 reads the list into numpy
once, and takes each row's static facts (op class, opcode, PC, whether
it produces a result) from the compiled program by its index.
"""

from __future__ import annotations

from repro.isa.opcodes import Opcode, OpClass

#: Canonical code orders shared by capture and replay: a class/opcode
#: code is its position in these tuples.
CLASS_ORDER: tuple[OpClass, ...] = tuple(OpClass)
OPCODE_ORDER: tuple[Opcode, ...] = tuple(Opcode)

CLASS_CODE: dict[OpClass, int] = {c: i for i, c in enumerate(CLASS_ORDER)}
OPCODE_CODE: dict[Opcode, int] = {o: i for i, o in enumerate(OPCODE_ORDER)}

#: Values per row: ``(cidx, a, b, tag_a, tag_b, from_load)``.
ROW_VALUES = 6


class TraceCapture:
    """Flat value store for the measured-operation stream.

    Each row extends :attr:`values` by ``(cidx, a, b, tag_a, tag_b,
    from_load)``: the static instruction index, the ALU operand pair,
    their width-tag codes and whether an operand came straight from a
    load.  ``len()`` counts rows.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: list[int] = []

    def __len__(self) -> int:
        return len(self.values) // ROW_VALUES
