"""Static width-dataflow analysis and simulator-invariant lint.

This package is the *static* counterpart of the paper's dynamic
narrow-width detection hardware (:mod:`repro.bitwidth`).  A forward
abstract interpretation over the ISA semantics computes, per static
instruction and per register, a conservative signed-value interval;
the interval's width classification (provably-fits-16 /
provably-fits-33 / wide) concretizes to exactly the value sets the
zero/ones-detect circuits of Figure 3 recognize, so every static fact
can be checked against the dynamic detector on a live simulation.

Three consumers build on the analysis:

* :class:`~repro.analysis.oracle.DifferentialOracle` — attaches to a
  running :class:`~repro.core.machine.Machine` and asserts the
  **static ⊆ dynamic** soundness invariant: any result the analyzer
  proves narrow must be tagged narrow by the dynamic detector, and any
  operation that dynamically packs must be statically pack-eligible
  (which makes the static pack-candidate count a true upper bound on
  observed packing).
* :func:`~repro.analysis.linter.lint_program` — rejects malformed
  workloads (writes to the zero register, unreachable blocks, reads of
  never-written registers, bad branch targets) with file/line
  diagnostics from the assembler's source map, and flags provably dead
  register writes and stores from the backward liveness fixpoint
  (:mod:`repro.analysis.liveness`) and the per-block memory-effect
  byte ranges (:mod:`repro.analysis.effects`).
* the ``repro-lint`` CLI (:mod:`repro.analysis.cli`) and the ``lint``
  experiment, which render the static-vs-dynamic report through the
  run engine and its persistent cache.
"""

from repro.analysis.cfg import CFG, BasicBlock, build_cfg
from repro.analysis.dataflow import InstFacts, WidthAnalysis, analyze
from repro.analysis.effects import EffectsAnalysis, analyze_effects
from repro.analysis.intervals import BOOL, BYTE, TOP, WORD16, Interval
from repro.analysis.linter import Diagnostic, lint_program
from repro.analysis.liveness import LivenessAnalysis, analyze_liveness
from repro.analysis.oracle import DifferentialOracle, OracleViolation

__all__ = [
    "BOOL",
    "BYTE",
    "TOP",
    "WORD16",
    "Interval",
    "CFG",
    "BasicBlock",
    "build_cfg",
    "InstFacts",
    "WidthAnalysis",
    "analyze",
    "EffectsAnalysis",
    "analyze_effects",
    "LivenessAnalysis",
    "analyze_liveness",
    "Diagnostic",
    "lint_program",
    "DifferentialOracle",
    "OracleViolation",
]
