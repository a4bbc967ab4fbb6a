"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sim-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # all three, all metrics

Workloads (see BENCHMARK.md for why each exists):

* ``sim-mix``       — seeded simulation jobs in a fresh interpreter
  (workloads, fastsim, core, obs);
* ``suite``         — ``repro-experiments`` cold then warm on a fresh
  cache (exec, experiments, analysis);
* ``service-mixed`` — two closed-loop clients sending cold, warm and
  coalesced sweeps to ``repro-serve`` (service, exec, CAS).

``--trace 0`` measures end to end with nothing patched; ``--trace 1``
runs the separate traced pass that installs the layer wrappers and
prints the per-layer ledger and the tracing overhead.  Every run checks
its outputs against ``expected_digests.json``; the last line of
standard output is the JSON result, whose timings are scaled to the
reference host by the host speed sampled during the run
(``hostspeed.py``).  Run artifacts (result documents,
Chrome traces) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import sys

import env
import gen

WORKLOADS = ("sim-mix", "suite", "service-mixed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED,
                        help=f"input seed (default {gen.DEFAULT_SEED}; "
                             f"{gen.CONFIRM_SEED} is held back for "
                             f"confirming claims)")
    parser.add_argument("--seconds", type=int, default=30,
                        help="measurement budget per workload; a run "
                             "always completes at least one unit of "
                             "work (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run: per-layer ledger")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        env.require_source()
    except env.MissingSource as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    env.compile_sources()
    import report
    import service
    import simmix
    import suite
    from hostspeed import Sampler
    from rules import DigestBook

    runners = {"sim-mix": simmix.run, "suite": suite.run,
               "service-mixed": service.run}
    book = DigestBook.load()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = []
    try:
        for name in names:
            env.reset_peak_rss()
            sampler = Sampler()
            try:
                outcome = runners[name](args.seed, args.seconds,
                                        bool(args.trace), book)
            finally:
                samples = sampler.stop()
            outcome.scale_to_reference(samples)
            outcomes.append(outcome)
            doc = report.write_document(
                env.OUT / "results" / f"{name}-seed{args.seed}"
                f"-trace{args.trace}.json", outcome, args.seconds)
            print("\n".join(report.lines(outcome)), flush=True)
            print(f"  result document: {doc}", flush=True)
    finally:
        env.remove_scratch()
    print(report.result_line(outcomes), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
