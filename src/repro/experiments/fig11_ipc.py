"""Figure 11 — IPC: baseline vs packing vs an 8-issue/8-ALU machine.

"Figure 11 compares instructions per cycle (IPC) for three different
configurations, all with combining branch prediction and decode and
commit width of four.  The first is the baseline machine with issue
width of 4 and 4 integer ALUs.  The second is the baseline machine
augmented with our operation packing optimizations.  The third machine
is the baseline machine with an issue width of 8 and 8 integer ALUs.
Ijpeg and vortex, as well as many of the media benchmarks, come very
close to achieving the same IPC as the more costly 8-issue/8-ALU
implementation."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BASELINE, MachineConfig
from repro.exec.jobs import Job
from repro.experiments.base import all_names, format_table, run_workload
from repro.experiments.registry import Experiment, ResultFn, register


@dataclass
class Fig11Row:
    benchmark: str
    baseline_ipc: float
    packed_ipc: float
    wide_ipc: float      # 8-issue / 8-ALU machine

    @property
    def gap_closed_pct(self) -> float:
        """How much of the (baseline -> 8-issue) gap packing recovers."""
        gap = self.wide_ipc - self.baseline_ipc
        if gap <= 0:
            return 100.0
        return 100.0 * (self.packed_ipc - self.baseline_ipc) / gap


@dataclass
class Fig11Result:
    rows: list[Fig11Row]


def run(config: MachineConfig = BASELINE, scale: int = 1,
        replay: bool = False,
        result: ResultFn = run_workload) -> Fig11Result:
    packed_cfg = config.with_packing(replay=replay)
    wide_cfg = config.with_issue_width(8, 8)
    rows = []
    for name in all_names():
        rows.append(Fig11Row(
            benchmark=name,
            baseline_ipc=result(name, config, scale).ipc,
            packed_ipc=result(name, packed_cfg, scale).ipc,
            wide_ipc=result(name, wide_cfg, scale).ipc,
        ))
    return Fig11Result(rows=rows)


def report(result: Fig11Result) -> str:
    headers = ["benchmark", "base IPC", "packed IPC", "8-issue IPC",
               "gap closed %"]
    rows = [[r.benchmark, r.baseline_ipc, r.packed_ipc, r.wide_ipc,
             r.gap_closed_pct] for r in result.rows]
    return ("Figure 11 — IPC for baseline, packing, and 8-issue/8-ALU "
            "machines (combining predictor)\n"
            + format_table(headers, rows, precision=2))


def jobs(scale: int = 1, config: MachineConfig = BASELINE,
         replay: bool = False) -> list[Job]:
    """Three machines per benchmark: baseline, packed (shared with
    Figure 10's combining series), and 8-issue/8-ALU."""
    packed_cfg = config.with_packing(replay=replay)
    wide_cfg = config.with_issue_width(8, 8)
    out = []
    for name in all_names():
        out.append(Job(name, config, scale))
        out.append(Job(name, packed_cfg, scale))
        out.append(Job(name, wide_cfg, scale))
    return out


register(Experiment(
    name="fig11",
    description="Figure 11 — IPC: baseline vs packing vs 8-issue/8-ALU",
    jobs=jobs,
    render=lambda scale, result: report(run(scale=scale, result=result)),
))


if __name__ == "__main__":
    print(report(run()))
