"""Vectorized trace replay (phase 2 of the fast backend).

Rebuilds the reference machine's measurement instruments — the width
histogram, the fluctuation tracker, and the power accountant — from a
captured trace using batch numpy over whole columns.  The capture's
flat six-value rows become one ``(n, 6)`` array; the op class, opcode,
PC and produces columns come from the compiled program's static tables,
indexed by each row's instruction index:

* operand-pair widths via :func:`repro.bitwidth.vector.pair_widths`;
* gating decisions via :func:`repro.bitwidth.vector.gate_widths`;
* instrument state via the ``from_columns`` builders on
  :class:`~repro.stats.widths.WidthHistogram`,
  :class:`~repro.stats.fluctuation.FluctuationTracker`, and
  :class:`~repro.power.accounting.PowerAccountant`.

When packing was enabled, the replay also cross-checks the timing
loop's packing decisions against the vectorized eligibility rules
(:func:`repro.packing.pack.vector_pack_candidates`): every capture row
the loop packed must be a full or replay candidate, and every row it
replay-packed must be a replay candidate.  A violation raises — it can
only mean the two implementations of the Section 5 rules disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bitwidth.vector import gate_widths, pair_widths
from repro.core.config import PackingConfig
from repro.core.machine import RunResult
from repro.fastsim.capture import (
    CLASS_CODE,
    CLASS_ORDER,
    ROW_VALUES,
    TraceCapture,
)
from repro.fastsim.compile import CompiledProgram
from repro.packing.pack import vector_pack_candidates
from repro.power.accounting import PowerAccountant
from repro.power.gating import GatingPolicy
from repro.stats.fluctuation import FluctuationTracker
from repro.stats.widths import WIDTH_TRACKED_CLASSES, WidthHistogram


@dataclass
class ReplayedMeasurements:
    """The three instruments rebuilt from one captured trace."""

    widths: WidthHistogram
    fluctuation: FluctuationTracker
    accountant: PowerAccountant


def replay_measurements(capture: TraceCapture, program: CompiledProgram,
                        policy: GatingPolicy,
                        packing: PackingConfig | None = None,
                        packed_rows=None,
                        replay_rows=None) -> ReplayedMeasurements:
    """Replay a measurement stream captured from ``program`` through the
    vectorized instrument twins.

    ``packing``/``packed_rows``/``replay_rows`` are optional: when the
    capturing run packed operations, pass its packing config and the
    capture-row lists it recorded so the eligibility cross-check runs.
    """
    import numpy as np

    values = capture.values
    trace = np.fromiter(values, np.uint64,
                        count=len(values)).reshape(-1, ROW_VALUES)
    cidx = trace[:, 0].astype(np.int64)
    cls = np.array(program.cls_code, np.int64)[cidx]
    tag_a = trace[:, 3].astype(np.int8)
    tag_b = trace[:, 4].astype(np.int8)

    # Width-tracked subset (everything except jumps, which are captured
    # for power accounting only).
    tracked_lookup = np.zeros(len(CLASS_ORDER), dtype=bool)
    for op_class in WIDTH_TRACKED_CLASSES:
        tracked_lookup[CLASS_CODE[op_class]] = True
    tracked = tracked_lookup[cls]

    pair = pair_widths(trace[:, 1], trace[:, 2])[tracked]
    widths = WidthHistogram.from_columns(cls[tracked], pair)
    fluctuation = FluctuationTracker.from_columns(
        program.base_pc + 4 * cidx[tracked], pair)
    accountant = PowerAccountant.from_columns(
        policy, cls, CLASS_ORDER, gate_widths(policy, tag_a, tag_b),
        np.array(program.produces, bool)[cidx], trace[:, 5].astype(bool))

    if packing is not None and packing.enabled and packed_rows:
        opc = np.array(program.opc_code, np.int64)[cidx]
        full, replay = vector_pack_candidates(cls, opc, tag_a, tag_b,
                                              packing)
        eligible = full | replay
        rows = np.asarray(packed_rows, dtype=np.int64)
        if not bool(np.all(eligible[rows])):
            raise RuntimeError(
                "fast-backend packing divergence: the timing loop packed "
                "an operation the vectorized eligibility rules reject")
        if replay_rows:
            rrows = np.asarray(replay_rows, dtype=np.int64)
            if not bool(np.all(replay[rrows])):
                raise RuntimeError(
                    "fast-backend packing divergence: the timing loop "
                    "replay-packed an operation the vectorized replay "
                    "rules reject")

    return ReplayedMeasurements(widths=widths, fluctuation=fluctuation,
                                accountant=accountant)


def build_result(machine) -> RunResult:
    """Assemble a :class:`~repro.core.machine.RunResult` for a finished
    :class:`~repro.fastsim.machine.FastMachine` (called by its ``run``)."""
    stats = machine.stats
    config = machine.config
    replayed = replay_measurements(
        machine.capture, machine.cp, config.gating, packing=config.packing,
        packed_rows=machine._packed_rows, replay_rows=machine._replay_rows)
    power = (replayed.accountant.report(stats.cycles)
             if stats.cycles else None)
    return RunResult(name=machine.program.name, config=config,
                     stats=stats, widths=replayed.widths,
                     fluctuation=replayed.fluctuation, power=power)
