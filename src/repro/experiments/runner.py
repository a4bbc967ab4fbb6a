"""Command-line runner: regenerate every table and figure.

``repro-experiments`` (or ``python -m repro.experiments.runner``) prints
the paper's tables and figures one after another.  Individual
experiments can be selected by name::

    repro-experiments fig7 fig10
    repro-experiments --scale 2 all
    repro-experiments --jobs 4 --cache-dir ~/.cache/repro all

Execution goes through the run engine (:mod:`repro.exec`): the union of
every selected experiment's declared job set is deduplicated (figures
share runs — 6/7 the baseline suite, 10/11 the packed runs), fanned out
across ``--jobs`` worker processes, and backed by the persistent result
cache under ``--cache-dir``, after which each report renders from the
warm in-process memo.  A warm-cache rerun of the full suite performs
zero fresh simulations.

Stream contract: **stdout carries only the rendered tables and
figures** (machine-parseable, diffable against committed goldens);
every human-facing progress line — banners, per-experiment wall-clock,
the engine summary — goes to stderr.  ``--trace-out`` records the
engine span tree and writes it as Chrome trace JSON (open in
``chrome://tracing`` or Perfetto), then cross-checks the span counts
against the engine's own job/attempt accounting — a mismatch is a
tracer bug and fails the run.  ``--metrics-out`` writes the unified
process-wide metrics snapshot.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.exec import GLOBAL_STATS, RunEngine
from repro.exec.cli import (
    add_engine_arguments,
    context_from_args,
    validate_engine_args,
)
from repro.perf.metrics import get_registry
from repro.robust.faults import parse_token
from repro.experiments.registry import (
    Experiment,
    all_experiments,
    experiment_names,
)

#: Back-compat view of the registry (the old module-level lambda table;
#: :class:`Experiment` is callable with a scale, like the lambdas were).
EXPERIMENTS: dict[str, Experiment] = all_experiments()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*", default=["all"],
                        help="experiment names (default: all); any of: "
                             + ", ".join(experiment_names()))
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    add_engine_arguments(parser)
    parser.add_argument("--obs-out", default=None, metavar="DIR",
                        help="write an observability run manifest "
                             "(sampler windows + stall attribution) for "
                             "every simulation into DIR")
    parser.add_argument("--inject-fault", action="append", default=[],
                        metavar="WORKLOAD=TOKEN",
                        help="chaos harness: make the worker simulating "
                             "WORKLOAD apply fault TOKEN (crash | hang "
                             "| die, optionally :sentinel_path for "
                             "fire-once); repeatable")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="record the engine span tree and write it "
                             "as Chrome trace JSON (chrome://tracing / "
                             "Perfetto); span counts are verified "
                             "against the engine's job accounting")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the unified metrics snapshot "
                             "(engine, simulation, guards) as JSON")
    return parser


def _check_trace_accounting(tracer, report) -> list[str]:
    """Spans versus the engine's own books; returns mismatch messages.

    Exactness is the contract: one ``execute`` span per charged
    attempt (plus one per success), one ``cache.hit`` span per
    cache-tier outcome.
    """
    acc = tracer.accounting()
    problems = []
    attempts = sum(o.attempts for o in report.outcomes)
    if acc.get("execute", 0) != attempts:
        problems.append(f"execute spans {acc.get('execute', 0)} != "
                        f"total attempts {attempts}")
    served = sum(1 for o in report.outcomes if o.ok and o.attempts == 0)
    if acc.get("cache.hit", 0) != served:
        problems.append(f"cache.hit spans {acc.get('cache.hit', 0)} != "
                        f"cache-tier outcomes {served}")
    return problems


def _parse_faults(specs: list[str],
                  parser: argparse.ArgumentParser) -> tuple:
    faults = []
    for spec in specs:
        workload, sep, token = spec.partition("=")
        if not sep or not workload or not token:
            parser.error(f"--inject-fault expects WORKLOAD=TOKEN, "
                         f"got {spec!r}")
        try:
            parse_token(token)
        except ValueError as err:
            parser.error(f"--inject-fault {spec!r}: {err}")
        faults.append((workload, token))
    return tuple(faults)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    validate_engine_args(parser, args)
    if args.scale < 1:
        parser.error("--scale must be >= 1")

    valid = experiment_names()
    names = list(args.experiments)
    if "all" in names:
        names = list(valid)
    unknown = [n for n in names if n not in valid]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)} "
                     f"(valid: {', '.join(valid)}, all)")

    registry = all_experiments()
    selected = [registry[name] for name in names]
    ctx = context_from_args(
        args, obs_dir=args.obs_out,
        faults=_parse_faults(args.inject_fault, parser))
    tracer = None
    if args.trace_out:
        from repro.perf.trace import SpanTracer
        tracer = SpanTracer()
    engine = RunEngine(ctx, tracer=tracer)

    suite_start = time.time()
    # Phase 1: execute the union of every selected experiment's job set
    # (deduplicated, parallel, cached).  Renderers then hit the memo.
    jobs = [job for exp in selected for job in exp.jobs(args.scale)]
    _, report = engine.run_jobs_report(jobs)
    banner = report.banner()
    if banner is not None:
        print(banner + "\n", file=sys.stderr)

    # Phase 2: render, in the order the experiments were requested.
    # A renderer whose jobs failed degrades to a note, never a crash.
    render_failures = 0
    for exp in selected:
        start = time.time()
        try:
            print(exp.render(args.scale))
        except Exception as err:  # noqa: BLE001 — degrade, don't crash
            render_failures += 1
            print(f"[{exp.name} NOT rendered: "
                  f"{type(err).__name__}: {err}]\n", file=sys.stderr)
            continue
        print(f"[{exp.name} done in {time.time() - start:.1f}s]",
              file=sys.stderr)

    print(f"[{len(selected)} experiment(s) in "
          f"{time.time() - suite_start:.1f}s total; "
          f"engine: {GLOBAL_STATS.summary()}]", file=sys.stderr)
    if args.obs_out:
        print(f"[obs manifests in {args.obs_out}]", file=sys.stderr)

    trace_problems: list[str] = []
    if tracer is not None:
        from repro.perf.trace import write_chrome_trace
        path = write_chrome_trace(
            args.trace_out, tracer,
            metadata={"tool": "repro-experiments",
                      "experiments": names, "scale": args.scale,
                      "jobs": args.jobs})
        trace_problems = _check_trace_accounting(tracer, report)
        print(f"[trace: {len(tracer)} spans -> {path}]", file=sys.stderr)
    if args.metrics_out:
        path = get_registry().write(args.metrics_out)
        print(f"[metrics -> {path}]", file=sys.stderr)

    if not report.ok:
        print(f"\n{banner}", file=sys.stderr)
        print(report.summary_table(), file=sys.stderr)
        return 1
    if render_failures:
        print(f"\n{render_failures} experiment(s) failed to render",
              file=sys.stderr)
        return 1
    if trace_problems:
        print("\ntrace accounting mismatch (tracer bug):",
              file=sys.stderr)
        for problem in trace_problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
