"""Section 4.2's load-operand statistic.

"For the SPECint95 suite, 13.1% of power saving instructions have one
or more operands that come directly from a load instruction; these are
the instructions that would be missed if zero-detect were omitted on
loads.  The percentages for the media benchmarks are much lower at
1.5%."

We report the per-benchmark and per-suite percentage of *gated* (power
saving) operations whose source operand was produced directly by a
load, and — as the ablation — the power reduction lost when the
cache-side zero detect is omitted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
class LoadDetectRow:
    benchmark: str
    load_dependent_pct: float      # % of gated ops with a load operand
    reduction_with_pct: float      # power reduction, loads detected
    reduction_without_pct: float   # power reduction, loads undetected


@dataclass
class LoadDetectResult:
    rows: list[LoadDetectRow]

    def _suite_mean(self, names: tuple[str, ...]) -> float:
        return mean([r.load_dependent_pct for r in self.rows
                     if r.benchmark in names])

    @property
    def spec_pct(self) -> float:
        """The paper's 13.1% statistic."""
        return self._suite_mean(spec_names())

    @property
    def media_pct(self) -> float:
        """The paper's 1.5% statistic."""
        return self._suite_mean(media_names())


def run(config: MachineConfig = BASELINE, scale: int = 1,
        result: ResultFn = run_workload) -> LoadDetectResult:
    no_loads = config.with_gating(
        replace(config.gating, detect_loads=False))
    rows = []
    for name in all_names():
        with_detect = result(name, config, scale)
        without = result(name, no_loads, scale)
        rows.append(LoadDetectRow(
            benchmark=name,
            load_dependent_pct=with_detect.power.load_dependent_pct,
            reduction_with_pct=with_detect.power.reduction_pct,
            reduction_without_pct=without.power.reduction_pct,
        ))
    return LoadDetectResult(rows=rows)


def report(result: LoadDetectResult) -> str:
    headers = ["benchmark", "load-fed gated %", "red. w/ detect %",
               "red. w/o detect %"]
    rows = [[r.benchmark, r.load_dependent_pct, r.reduction_with_pct,
             r.reduction_without_pct] for r in result.rows]
    rows.append(["SPECint95 avg", result.spec_pct, "", ""])
    rows.append(["MediaBench avg", result.media_pct, "", ""])
    return ("Section 4.2 — gated operations fed directly by loads "
            "(paper: 13.1% SPEC / 1.5% media)\n"
            + format_table(headers, rows, precision=1))


def jobs(scale: int = 1,
         config: MachineConfig = BASELINE) -> list[Job]:
    """The full suite with and without the cache-side zero detect (the
    detect-on runs are the shared baseline suite)."""
    no_loads = config.with_gating(
        replace(config.gating, detect_loads=False))
    out = []
    for name in all_names():
        out.append(Job(name, config, scale))
        out.append(Job(name, no_loads, scale))
    return out


register(Experiment(
    name="loaddetect",
    description="Section 4.2 — gated operations fed directly by loads, "
                "and the cost of omitting load zero-detect",
    jobs=jobs,
    render=lambda scale, result: report(run(scale=scale, result=result)),
))


if __name__ == "__main__":
    print(report(run()))
