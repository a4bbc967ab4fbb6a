"""Figure 7 — integer-unit power per cycle, baseline vs gated.

"For the baseline system, we assume that all operations use the amount
of power that a 64-bit device would use.  (We assume basic clock gating
in which, for example, multipliers are turned off for add instructions
and vice versa.)  For the SPECint95 benchmark suite, the average power
consumption of the integer unit was reduced by 54.1%.  For the media
benchmarks, the reduction was 57.9%."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BASELINE, MachineConfig
from repro.exec.jobs import Job
from repro.experiments.registry import Experiment, ResultFn, register
from repro.experiments.base import (
    all_names,
    format_table,
    mean,
    media_names,
    run_workload,
    spec_names,
)


@dataclass
class Fig7Row:
    benchmark: str
    baseline_mw: float
    gated_mw: float

    @property
    def reduction_pct(self) -> float:
        if self.baseline_mw == 0:
            return 0.0
        return 100.0 * (self.baseline_mw - self.gated_mw) / self.baseline_mw


@dataclass
class Fig7Result:
    rows: list[Fig7Row]

    def _suite_mean(self, names: tuple[str, ...]) -> float:
        return mean([r.reduction_pct for r in self.rows
                     if r.benchmark in names])

    @property
    def spec_reduction_pct(self) -> float:
        """The paper's 54.1% headline number."""
        return self._suite_mean(spec_names())

    @property
    def media_reduction_pct(self) -> float:
        """The paper's 57.9% headline number."""
        return self._suite_mean(media_names())


def run(config: MachineConfig = BASELINE, scale: int = 1,
        result: ResultFn = run_workload) -> Fig7Result:
    rows = []
    for name in all_names():
        power = result(name, config, scale).power
        rows.append(Fig7Row(
            benchmark=name,
            baseline_mw=power.baseline,
            gated_mw=power.gated,
        ))
    return Fig7Result(rows=rows)


def report(result: Fig7Result) -> str:
    headers = ["benchmark", "baseline mW/cyc", "gated mW/cyc",
               "reduction %"]
    rows = [[r.benchmark, r.baseline_mw, r.gated_mw, r.reduction_pct]
            for r in result.rows]
    rows.append(["SPECint95 avg", "", "", result.spec_reduction_pct])
    rows.append(["MediaBench avg", "", "", result.media_reduction_pct])
    return ("Figure 7 — integer-unit power per cycle (paper: 54.1% SPEC "
            "/ 57.9% media reduction)\n"
            + format_table(headers, rows, precision=1))


def jobs(scale: int = 1,
         config: MachineConfig = BASELINE) -> list[Job]:
    """The baseline suite (shared verbatim with Figure 6)."""
    return [Job(name, config, scale) for name in all_names()]


register(Experiment(
    name="fig7",
    description="Figure 7 — integer-unit power, baseline vs gated",
    jobs=jobs,
    render=lambda scale, result: report(run(scale=scale, result=result)),
))


if __name__ == "__main__":
    print(report(run()))
