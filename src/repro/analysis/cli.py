"""``repro-lint``: static analysis and soundness checks for workloads.

Modes, combinable::

    repro-lint all                      # lint every registered workload
    repro-lint go ijpeg --summary       # lint + static width summary
    repro-lint all --packing-report     # verify static/dynamic soundness

The default mode runs the program linter and prints ``file:line``
diagnostics; the exit code is non-zero when any *error*-severity
finding is present (``--strict`` also fails on warnings), so CI can
gate on it.

``--packing-report`` attaches the differential oracle to a short
instrumented simulation of each workload (packing + replay enabled)
and reports the **static ⊆ dynamic** verdict: value/tag/edge/pack
violations (must be zero) and the static upper bound on packed
operations against the observed count (bound must hold).  This is the
executable form of the analyzer's soundness claim.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.dataflow import analyze
from repro.analysis.linter import lint_program, max_severity
from repro.analysis.oracle import DifferentialOracle
from repro.core.config import BASELINE
from repro.core.machine import Machine
from repro.workloads.registry import all_workloads, get_workload, resolve_warmup


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static width-dataflow analysis, program lint, and "
                    "static/dynamic soundness checks.")
    parser.add_argument("workloads", nargs="*",
                        help="registered workload names, or 'all' "
                             "(see --list)")
    parser.add_argument("--list", action="store_true", dest="list_workloads",
                        help="list registered workloads and exit")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument("--summary", action="store_true",
                        help="print the per-workload static width summary")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings, not just errors")
    parser.add_argument("--packing-report", action="store_true",
                        help="run the differential oracle on an "
                             "instrumented simulation and report the "
                             "static packing upper bound vs observed")
    parser.add_argument("--max-insts", type=int, default=6000,
                        help="committed-instruction cap for the "
                             "--packing-report simulation (default 6000)")
    return parser


def _select(names: list[str], parser: argparse.ArgumentParser) -> list[str]:
    registered = [w.name for w in all_workloads()]
    if not names or names == ["all"]:
        return registered
    unknown = [n for n in names if n not in registered]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)} "
                     f"(use --list to enumerate)")
    return names


def _lint_one(name: str, scale: int, summary: bool) -> str | None:
    """Lint one workload; returns the worst severity found."""
    program = get_workload(name).build(scale)
    analysis = analyze(program)
    # One width fixpoint serves the lint rules and the summary alike.
    diagnostics = lint_program(program, analysis)
    stats = analysis.summary()
    if summary:
        results = stats["results"] or 1
        print(f"{name}: {stats['instructions']} insts, "
              f"{stats['reachable']} reachable, "
              f"{stats['narrow16_results']}/{results} results "
              f"provably narrow16, "
              f"{stats['narrow33_results']}/{results} narrow33, "
              f"{stats['full_pack_candidates']} full + "
              f"{stats['replay_pack_candidates']} replay pack candidates")
    if diagnostics:
        print(f"{name}:")
        for diag in diagnostics:
            print(f"  {diag}")
    elif not summary:
        print(f"{name}: clean")
    return max_severity(diagnostics)


def _packing_report(names: list[str], scale: int, max_insts: int) -> int:
    """Oracle-instrumented runs; returns the number of failing workloads."""
    config = BASELINE.with_packing(replay=True)
    header = (f"{'benchmark':14s} {'checked':>8s} {'violations':>10s} "
              f"{'static bound':>12s} {'observed':>8s}  verdict")
    print(header)
    print("-" * len(header))
    failures = 0
    for name in names:
        workload = get_workload(name)
        machine = Machine(workload.build(scale), config)
        oracle = DifferentialOracle(machine)
        machine.fast_forward(resolve_warmup(workload, scale))
        machine.run(max_insts=max_insts)
        rep = oracle.report()
        bound_holds = rep["static_pack_bound"] >= rep["observed_packed"]
        ok = oracle.clean and bound_holds
        verdict = "ok" if ok else "FAIL"
        print(f"{name:14s} {rep['checked']:8d} {rep['violations']:10d} "
              f"{rep['static_pack_bound']:12d} {rep['observed_packed']:8d}"
              f"  {verdict}")
        if not oracle.clean:
            for violation in oracle.violations[:10]:
                print(f"    {violation}")
        if not bound_holds:
            print("    static pack bound below observed packing — "
                  "the upper-bound claim is broken")
        failures += not ok
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.scale < 1:
        parser.error("--scale must be >= 1")
    if args.max_insts < 1:
        parser.error("--max-insts must be >= 1")

    if args.list_workloads:
        for workload in all_workloads():
            print(f"{workload.name:14s} {workload.suite:12s} "
                  f"{workload.description}")
        return 0

    names = _select(args.workloads, parser)

    if args.packing_report:
        failures = _packing_report(names, args.scale, args.max_insts)
        if failures:
            print(f"\n{failures} workload(s) FAILED the soundness check")
            return 1
        print(f"\nall {len(names)} workload(s) sound: zero violations, "
              f"static bound >= observed packing")
        return 0

    worst = None
    order = {None: -1, "info": 0, "warning": 1, "error": 2}
    for name in names:
        severity = _lint_one(name, args.scale, args.summary)
        if order[severity] > order[worst]:
            worst = severity
    if worst == "error" or (args.strict and worst == "warning"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
