"""Figure 5 — operations with both operands <= 33 bits, by class.

"Figure 5 emphasizes this point [that] address calculations result in
many operations with bitwidths of 33.  From this data it makes sense to
include a second control signal for clock gating of operands that are
33-bits or less."

This is the same measurement as Figure 4 at the second hardware cut
point; load/store address arithmetic joins the eligible set here.
"""

from __future__ import annotations

from repro.core.config import BASELINE, MachineConfig
from repro.exec.jobs import Job
from repro.experiments.fig4_narrow16_by_class import (
    NarrowByClassResult,
    jobs as _jobs,
    report as _report,
    run as _run,
)
from repro.experiments.base import run_workload
from repro.experiments.registry import Experiment, ResultFn, register

CUT = 33


def run(config: MachineConfig = BASELINE, scale: int = 1,
        result: ResultFn = run_workload) -> NarrowByClassResult:
    return _run(config, scale, cut=CUT, result=result)


def report(result: NarrowByClassResult) -> str:
    return _report(result, figure="Figure 5")


def jobs(scale: int = 1,
         config: MachineConfig = BASELINE) -> list[Job]:
    """Identical runs to Figure 4 — only the cut point differs, so the
    engine deduplicates the whole job set."""
    return _jobs(scale, config)


register(Experiment(
    name="fig5",
    description="Figure 5 — operations with both operands <= 33 bits, "
                "by class",
    jobs=jobs,
    render=lambda scale, result: report(run(scale=scale, result=result)),
))


if __name__ == "__main__":
    print(report(run()))
