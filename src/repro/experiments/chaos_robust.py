"""``chaos`` experiment — fault-injection verdict matrix.

Not a paper figure: a robustness report.  Runs the chaos harness
(:mod:`repro.robust.chaos`) over a representative workload slice —
every injector in the catalog at a fixed seed — and renders the
verdict matrix plus the masked-or-detected bottom line.  The full
14-workload matrix (and the disk-cache corruption scenario) lives in
the dedicated ``repro-chaos`` CLI; this experiment is the suite-level
smoke check that rides ``repro-experiments all``.

Chaos trials perturb live machine state, so their runs can never be
served from (or stored to) the result cache — the experiment declares
no engine jobs and simulates inside its renderer, on a reduced window
to keep ``all`` fast.
"""

from __future__ import annotations

from repro.exec.jobs import Job
from repro.experiments.base import format_table
from repro.experiments.registry import Experiment, register
from repro.robust.chaos import ALL_INJECTORS, chaos_suite, summarize

#: One SPEC + one MediaBench workload: perl actually replay-traps in
#: this window, so every injector in the catalog — including
#: replay-drop — arms at least once.
_WORKLOADS = ["perl", "g721-encode"]
_SEED = 0
_WINDOW = 10_000


def jobs(scale: int = 1) -> list[Job]:
    return []   # chaos runs are deliberately uncacheable


def report(scale: int = 1) -> str:
    outcomes = chaos_suite(_WORKLOADS, ALL_INJECTORS,
                           seed=_SEED, scale=scale, window=_WINDOW)
    headers = ["workload", "injector", "expect", "verdict",
               "injections", "violations"]
    from repro.robust.inject import INJECTOR_TYPES
    rows: list[list[object]] = []
    for o in outcomes:
        expect = INJECTOR_TYPES[o.injector].expect
        rows.append([o.workload, o.injector, expect, o.verdict,
                     o.injections, o.violations])
    counts = summarize(outcomes)
    lines = [
        "Chaos: injected faults vs invariant guards "
        f"(seed {_SEED}, window {_WINDOW})",
        "",
        format_table(headers, rows),
        "",
        f"{counts['silent']} silent corruptions, "
        f"{counts['false-positive']} false positives "
        f"({len(outcomes)} trials)",
    ]
    if counts["silent"] or counts["false-positive"]:
        raise AssertionError("\n".join(lines))
    return "\n".join(lines)


register(Experiment(
    name="chaos",
    description="fault injection: every fault masked or detected",
    jobs=jobs,
    render=lambda scale, result: report(scale),
))
