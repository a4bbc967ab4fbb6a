"""``lint`` experiment — static width analysis vs dynamic measurement.

Not a paper figure: a repro-quality report.  For every benchmark the
static analyzer (:mod:`repro.analysis`) computes which results are
*provably* narrow and which operations could *ever* pack; the dynamic
side of each column comes from the same packed simulations Figure 10
renders, so ``repro-experiments fig10 lint`` runs each of them once,
and a warm disk cache serves them without simulating.

The static and dynamic columns weight differently — static counts each
instruction once, dynamic weights by execution frequency (and measures
operand *pairs*, Figure 1's metric) — so they compare qualitatively,
not as a per-column inequality.  The actual soundness relation (every
statically-proven-narrow result is dynamically tagged narrow; every
good-path packed issue is statically pack-eligible) is per-instance
and is enforced by the differential oracle in the test suite and in
``repro-lint --packing-report``.
"""

from __future__ import annotations

from repro.analysis.dataflow import analyze
from repro.analysis.linter import lint_program
from repro.core.config import BASELINE
from repro.exec.jobs import Job
from repro.experiments.base import all_names, format_table, run_workload
from repro.experiments.registry import Experiment, ResultFn, register
from repro.workloads.registry import get_workload

#: The packed, realistic-predictor configuration — byte-identical to
#: the Figure 10 combining-predictor packed job, so both experiments
#: resolve to one cached simulation per benchmark.
_PACKED = BASELINE.with_predictor("combining").with_packing(replay=False)


def jobs(scale: int = 1) -> list[Job]:
    return [Job(name, _PACKED, scale) for name in all_names()]


def report(scale: int = 1, result: ResultFn = run_workload) -> str:
    headers = ["benchmark", "insts", "stat n16%", "dyn n16%",
               "stat n33%", "dyn n33%", "stat pack%", "dyn pack%",
               "lint"]
    rows: list[list[object]] = []
    for name in all_names():
        program = get_workload(name).build(scale)
        analysis = analyze(program)
        diags = lint_program(program, analysis)
        summary = analysis.summary()
        results = summary["results"] or 1
        reachable = summary["reachable"] or 1

        dynamic = result(name, _PACKED, scale)
        issued = dynamic.stats.issued or 1
        rows.append([
            name,
            summary["instructions"],
            100.0 * summary["narrow16_results"] / results,
            dynamic.widths.cumulative_pct(16),
            100.0 * summary["narrow33_results"] / results,
            dynamic.widths.cumulative_pct(33),
            100.0 * (summary["full_pack_candidates"]
                     + summary["replay_pack_candidates"]) / reachable,
            100.0 * dynamic.stats.packed_ops / issued,
            len(diags),
        ])
    title = ("Static width analysis vs dynamic measurement "
             "(packed, combining predictor)")
    note = ("static%: unweighted share of static results proven narrow / "
            "static instructions that may pack;\n"
            "dyn%: execution-weighted share of dynamic operand pairs "
            "measured narrow (Figure 1) / issues packed.\n"
            "The per-instance soundness bound (static ⊆ dynamic) is "
            "checked by `repro-lint --packing-report`.")
    return title + "\n" + format_table(headers, rows, precision=1) \
        + "\n" + note


register(Experiment(
    name="lint",
    description="Static width-dataflow analysis vs dynamic widths "
                "and packing",
    jobs=jobs,
    render=report,
))


if __name__ == "__main__":
    print(report())
