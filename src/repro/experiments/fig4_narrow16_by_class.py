"""Figure 4 — operations with both operands <= 16 bits, by class.

"Figure 4 shows, for each benchmark, the percentage and type of
operations whose input operands are both less than or equal to 16-bits.
(Both operands must be small in order for the clock gating to be
allowed.)  ... for most benchmarks arithmetic and logical operations
dominate the number of narrow-width operations.  In most of the
benchmarks multiplies are rather infrequent although they do account
for 6% of the narrow-width operations in gsm."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BASELINE, MachineConfig
from repro.exec.jobs import Job
from repro.experiments.base import all_names, format_table, run_workload
from repro.experiments.registry import Experiment, ResultFn, register
from repro.isa.opcodes import OpClass

#: The classes Figure 4 breaks bars into.
BAR_CLASSES = (OpClass.INT_ARITH, OpClass.INT_LOGIC, OpClass.INT_SHIFT,
               OpClass.INT_MULT)

CUT = 16


@dataclass
class NarrowByClassRow:
    benchmark: str
    by_class: dict[OpClass, float]   # % of all tracked ops, per class

    @property
    def total(self) -> float:
        return sum(self.by_class.get(c, 0.0) for c in BAR_CLASSES)


@dataclass
class NarrowByClassResult:
    cut: int
    rows: list[NarrowByClassRow]


def run(config: MachineConfig = BASELINE, scale: int = 1,
        cut: int = CUT,
        result: ResultFn = run_workload) -> NarrowByClassResult:
    rows = []
    for name in all_names():
        widths = result(name, config, scale).widths
        by_class = widths.narrow_pct_by_class(cut)
        rows.append(NarrowByClassRow(benchmark=name, by_class=by_class))
    return NarrowByClassResult(cut=cut, rows=rows)


def report(result: NarrowByClassResult, figure: str = "Figure 4") -> str:
    headers = ["benchmark", "arith%", "logic%", "shift%", "mult%",
               "total%"]
    rows = []
    for row in result.rows:
        rows.append([row.benchmark]
                    + [row.by_class.get(c, 0.0) for c in BAR_CLASSES]
                    + [row.total])
    return (f"{figure} — % of integer operations with both operands "
            f"<= {result.cut} bits, by class\n"
            + format_table(headers, rows, precision=1))


def jobs(scale: int = 1,
         config: MachineConfig = BASELINE) -> list[Job]:
    """The full 14-benchmark suite on the Table 1 baseline (the same
    runs serve Figures 5, 6, 7, and 11's baseline column)."""
    return [Job(name, config, scale) for name in all_names()]


register(Experiment(
    name="fig4",
    description="Figure 4 — operations with both operands <= 16 bits, "
                "by class",
    jobs=jobs,
    render=lambda scale, result: report(run(scale=scale, result=result)),
))


if __name__ == "__main__":
    print(report(run()))
