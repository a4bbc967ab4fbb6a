"""Figure 2 — operand-width fluctuation per PC, perfect vs realistic
branch prediction.

"Figure 2 shows the percentage of PC values where operand width changes
as the instruction is executed repeatedly within a single run ... With
perfect branch prediction, the instruction operand sizes are far more
predictable than with realistic branch prediction ... With imperfect
branch prediction, uncommon paths, like error conditions, may be
executed (but not committed) if the branch predictor points that way."

The tracker samples *executed* operations (wrong path included), so the
combining-predictor series picks up exactly the wrong-path width noise
the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BASELINE, MachineConfig
from repro.exec.jobs import Job
from repro.experiments.base import format_table, mean, run_workload, spec_names
from repro.experiments.registry import Experiment, ResultFn, register


@dataclass
class Fig2Row:
    benchmark: str
    perfect_pct: float       # % of PCs crossing the 16-bit line, oracle BP
    realistic_pct: float     # same with the Table 1 combining predictor


@dataclass
class Fig2Result:
    rows: list[Fig2Row]

    @property
    def mean_perfect(self) -> float:
        return mean([r.perfect_pct for r in self.rows])

    @property
    def mean_realistic(self) -> float:
        return mean([r.realistic_pct for r in self.rows])


def run(config: MachineConfig = BASELINE, scale: int = 1,
        result: ResultFn = run_workload) -> Fig2Result:
    rows = []
    perfect_cfg = config.with_predictor("perfect")
    realistic_cfg = config.with_predictor("combining")
    for name in spec_names():
        perfect = result(name, perfect_cfg, scale)
        realistic = result(name, realistic_cfg, scale)
        rows.append(Fig2Row(
            benchmark=name,
            perfect_pct=perfect.fluctuation.fluctuation_pct,
            realistic_pct=realistic.fluctuation.fluctuation_pct,
        ))
    return Fig2Result(rows=rows)


def report(result: Fig2Result) -> str:
    headers = ["benchmark", "perfect BP %", "combining BP %"]
    rows = [[r.benchmark, r.perfect_pct, r.realistic_pct]
            for r in result.rows]
    rows.append(["mean", result.mean_perfect, result.mean_realistic])
    return ("Figure 2 — % of PCs whose operand precision crosses the "
            "16-bit line during a run\n"
            + format_table(headers, rows, precision=1))


def jobs(scale: int = 1,
         config: MachineConfig = BASELINE) -> list[Job]:
    """SPECint95 under oracle and combining branch prediction."""
    out = []
    for name in spec_names():
        out.append(Job(name, config.with_predictor("perfect"), scale))
        out.append(Job(name, config.with_predictor("combining"), scale))
    return out


register(Experiment(
    name="fig2",
    description="Figure 2 — per-PC operand-width fluctuation, perfect "
                "vs combining branch prediction",
    jobs=jobs,
    render=lambda scale, result: report(run(scale=scale, result=result)),
))


if __name__ == "__main__":
    print(report(run()))
