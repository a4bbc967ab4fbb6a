"""Figure 6 — net power saved by clock gating at 16 and 33 bits.

"Total extra used is the amount used by zero detection and muxing.
Net savings denotes the amount saved at 16 bits plus the amount saved
at 33 bits minus the amount used.  Numbers are per cycle."

The paper's headline observations, all checked by the benchmark suite:
the media benchmarks save more than SPECint95; ijpeg and go save the
most among SPEC (go thanks to the 33-bit signal); the zero-detect
overhead is small, nearly constant, and never exceeds the savings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BASELINE, MachineConfig
from repro.exec.jobs import Job
from repro.experiments.base import all_names, format_table, run_workload
from repro.experiments.registry import Experiment, ResultFn, register


@dataclass
class Fig6Row:
    benchmark: str
    saved16: float      # mW/cycle saved by the 16-bit cut
    saved33: float      # mW/cycle saved by the 33-bit cut
    overhead: float     # mW/cycle spent on zero-detect + muxes
    net: float          # saved16 + saved33 - overhead


@dataclass
class Fig6Result:
    rows: list[Fig6Row]


def run(config: MachineConfig = BASELINE, scale: int = 1,
        result: ResultFn = run_workload) -> Fig6Result:
    rows = []
    for name in all_names():
        power = result(name, config, scale).power
        rows.append(Fig6Row(
            benchmark=name,
            saved16=power.saved16,
            saved33=power.saved33,
            overhead=power.overhead,
            net=power.net_saved,
        ))
    return Fig6Result(rows=rows)


def report(result: Fig6Result) -> str:
    headers = ["benchmark", "saved@16 mW", "saved@33 mW", "extra used mW",
               "net mW"]
    rows = [[r.benchmark, r.saved16, r.saved33, r.overhead, r.net]
            for r in result.rows]
    return ("Figure 6 — per-cycle power saved by operand gating "
            "(Table 4 device model)\n"
            + format_table(headers, rows, precision=1))


def jobs(scale: int = 1,
         config: MachineConfig = BASELINE) -> list[Job]:
    """The baseline suite (shared verbatim with Figure 7)."""
    return [Job(name, config, scale) for name in all_names()]


register(Experiment(
    name="fig6",
    description="Figure 6 — net per-cycle power saved by clock gating",
    jobs=jobs,
    render=lambda scale, result: report(run(scale=scale, result=result)),
))


if __name__ == "__main__":
    print(report(run()))
