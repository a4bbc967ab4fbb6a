"""Figure 1 — cumulative operand bitwidths for SPECint95.

"Figure 1 illustrates ... the cumulative percentage of integer
instructions in SPECint95 in which both operands are less than or equal
to the specified bitwidth.  Roughly 50% of the instructions had both
operands less than or equal to 16-bits.  Since this chart includes
address calculations, there is a large jump at 33 bits."

The experiment reruns each SPEC stand-in on the Table 1 baseline and
reports the per-benchmark cumulative curves plus the suite aggregate at
the paper's landmark abscissas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BASELINE, MachineConfig
from repro.exec.jobs import Job
from repro.experiments.base import format_table, run_workload, spec_names
from repro.experiments.registry import Experiment, ResultFn, register

#: Bit positions highlighted when printing the curve.
LANDMARKS = (8, 16, 24, 32, 33, 48, 64)


@dataclass
class Fig1Result:
    """Per-benchmark cumulative width curves (index i = width i+1)."""

    curves: dict[str, list[float]]
    aggregate: list[float]

    def at(self, name: str, bits: int) -> float:
        return self.curves[name][bits - 1]

    def aggregate_at(self, bits: int) -> float:
        return self.aggregate[bits - 1]


def run(config: MachineConfig = BASELINE, scale: int = 1,
        result: ResultFn = run_workload) -> Fig1Result:
    curves: dict[str, list[float]] = {}
    totals = [0.0] * 64
    weights = 0
    for name in spec_names():
        widths = result(name, config, scale).widths
        curve = widths.cumulative_curve()
        curves[name] = curve
        ops = widths.total
        for i, value in enumerate(curve):
            totals[i] += value * ops
        weights += ops
    aggregate = [t / weights for t in totals] if weights else totals
    return Fig1Result(curves=curves, aggregate=aggregate)


def report(result: Fig1Result) -> str:
    headers = ["benchmark"] + [f"<={b}b" for b in LANDMARKS]
    rows = []
    for name, curve in result.curves.items():
        rows.append([name] + [curve[b - 1] for b in LANDMARKS])
    rows.append(["SPECint95"] + [result.aggregate[b - 1] for b in LANDMARKS])
    table = format_table(headers, rows, precision=1)
    return ("Figure 1 — cumulative % of integer operations with both "
            "operands <= N bits\n" + table)


def jobs(scale: int = 1,
         config: MachineConfig = BASELINE) -> list[Job]:
    """The SPECint95 suite on the Table 1 baseline."""
    return [Job(name, config, scale) for name in spec_names()]


register(Experiment(
    name="fig1",
    description="Figure 1 — cumulative operand bitwidths (SPECint95)",
    jobs=jobs,
    render=lambda scale, result: report(run(scale=scale, result=result)),
))


if __name__ == "__main__":
    print(report(run()))
