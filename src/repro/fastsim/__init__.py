"""Two-phase fast simulation backend.

The reference :class:`~repro.core.machine.Machine` walks every pipeline
structure in pure Python each cycle.  This package reorganizes the same
model SimpleScalar-style (``sim-fast`` / ``sim-outorder``):

* **phase 1 — capture** (:mod:`repro.fastsim.machine`): an optimized
  cycle loop executes the workload functionally through
  :mod:`repro.isa.semantics` on flat integer state, drives an exact
  reimplementation of the reference timing model, and captures a
  compact *flat dynamic trace* of every measured operation (static
  index, operand values, width-tag codes, load provenance);
* **phase 2 — replay** (:mod:`repro.fastsim.replay`): the captured
  rows, joined by index to the compiled program's static columns, are
  replayed through *vectorized twins* of width tagging
  (:mod:`repro.bitwidth.vector`), packing eligibility
  (:func:`repro.packing.pack.vector_pack_candidates`), gating
  (:func:`repro.bitwidth.vector.gate_widths`), and power/stat
  accumulation (``from_columns`` builders) — batch numpy over the whole
  trace instead of per-instruction Python.

The contract is *bit-exactness*: ``FastMachine.run`` returns a
:class:`~repro.core.machine.RunResult` whose serialized form equals the
reference machine's for every workload and configuration.
``repro-equivalence`` (:mod:`repro.fastsim.cli`), which the
``backend-equivalence`` CI matrix runs over the named configs and the
jobs experiments declare, and the differential tests enforce the
contract continuously.
"""

from repro.fastsim.capture import TraceCapture
from repro.fastsim.machine import FastMachine

__all__ = ["FastMachine", "TraceCapture"]
