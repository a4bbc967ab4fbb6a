"""``repro-chaos``: the fault-injection harness CLI.

Runs the (workload x injector) chaos matrix and/or the cache-tier
corruption scenario, prints one verdict row per trial, and exits
nonzero if any trial was a silent corruption or a guard false
positive.

    repro-chaos --seed 0 --all-injectors              # full matrix
    repro-chaos -w ijpeg -i tag-flip --seed 7         # one trial
    repro-chaos --cache-chaos bitflip --seed 0        # disk tier
    repro-chaos --service-chaos --seed 0              # service tier
    repro-chaos --list                                # injector catalog
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.exec.cli import (
    add_engine_arguments,
    context_from_args,
    validate_engine_args,
)
from repro.robust.chaos import (
    ALL_INJECTORS,
    ChaosOutcome,
    FALSE_POSITIVE,
    SILENT,
    cache_chaos,
    chaos_suite,
    summarize,
)
from repro.robust.inject import INJECTOR_TYPES
from repro.workloads.registry import all_workloads


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Inject deterministic faults into the simulator and "
                    "the run engine; assert every fault is masked or "
                    "detected by an invariant guard.")
    parser.add_argument("--seed", type=int, default=0,
                        help="suite seed (per-trial seeds derive from it)")
    parser.add_argument("-w", "--workload", action="append", default=None,
                        choices=[w.name for w in all_workloads()],
                        metavar="NAME",
                        help="workload(s) to perturb (default: all)")
    parser.add_argument("-i", "--injector", action="append", default=None,
                        choices=sorted(INJECTOR_TYPES),
                        help="injector(s) to run")
    parser.add_argument("--all-injectors", action="store_true",
                        help="run the full injector catalog")
    parser.add_argument("--cache-chaos", choices=["bitflip", "truncate"],
                        help="also corrupt a disk-cache entry and demand "
                             "quarantine + bit-exact recovery (uses "
                             "the shared --cache-dir, or a fresh "
                             "temporary directory; --cache-layout cas "
                             "corrupts inside a CAS shard)")
    parser.add_argument("--service-chaos", action="store_true",
                        help="also run the service-tier scenario "
                             "matrix: worker death mid-sweep, journal "
                             "torn tail / bit flip, CAS shard "
                             "corruption under concurrent reads, "
                             "stalled stream subscribers, malformed "
                             "and oversized requests")
    parser.add_argument("--service-scenario", action="append",
                        default=None, metavar="NAME",
                        help="run only the named service scenario(s) "
                             "(implies --service-chaos; see --list)")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor")
    parser.add_argument("--window", type=int, default=None,
                        help="cap the detailed-simulation window "
                             "(committed instructions)")
    parser.add_argument("--list", action="store_true",
                        help="print the injector catalog and exit")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the unified metrics snapshot "
                             "(chaos verdict and guard counters) as "
                             "JSON after the matrix")
    add_engine_arguments(parser)
    return parser


def _print_catalog() -> None:
    from repro.robust.service_chaos import (
        SCENARIO_EXPECT,
        SERVICE_SCENARIOS,
    )

    print("injector catalog:")
    for name, cls in INJECTOR_TYPES.items():
        headline = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:22s} expect={cls.expect:8s} {headline}")
    print("  cache-bitflip          expect=detected "
          "XOR one bit of a stored cache entry (via --cache-chaos)")
    print("  cache-truncate         expect=detected "
          "cut a stored cache entry in half (via --cache-chaos)")
    print("service scenario catalog (via --service-chaos):")
    for name, fn in SERVICE_SCENARIOS.items():
        headline = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:22s} expect={SCENARIO_EXPECT[name]:8s} "
              f"{headline}")


def _print_outcomes(outcomes: list[ChaosOutcome]) -> None:
    header = (f"{'workload':16s} {'injector':22s} {'verdict':15s} "
              f"{'inj':>3s} {'viol':>4s}  detail")
    print(header)
    print("-" * len(header))
    for o in outcomes:
        detail = o.detail
        if len(detail) > 70:
            detail = detail[:67] + "..."
        print(f"{o.workload:16s} {o.injector:22s} {o.verdict:15s} "
              f"{o.injections:3d} {o.violations:4d}  {detail}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    validate_engine_args(parser, args)
    if args.scale < 1:
        parser.error("--scale must be >= 1")
    if args.window is not None and args.window < 1:
        parser.error("--window must be >= 1")
    if args.list:
        _print_catalog()
        return 0

    service_chaos_on = bool(args.service_chaos or args.service_scenario)
    injectors = args.injector or []
    if args.all_injectors:
        injectors = ALL_INJECTORS
    if not injectors and not args.cache_chaos and not service_chaos_on:
        injectors = ALL_INJECTORS

    workloads = args.workload or [w.name for w in all_workloads()]

    # Per-trial heartbeat on stderr: stdout keeps only the verdict
    # table + summary (what CI greps), so long matrices stay watchable
    # without breaking machine parsing.
    def progress(note: str) -> None:
        print(f"[chaos] {note}", file=sys.stderr, flush=True)

    outcomes: list[ChaosOutcome] = []
    if injectors:
        outcomes.extend(chaos_suite(
            workloads, injectors, seed=args.seed,
            scale=args.scale, window=args.window, progress=progress))

    if args.cache_chaos:
        # The shared engine flags travel into the scenario as one
        # typed context (cache layout, backend, retries, ...).
        ctx = context_from_args(args, obs_dir=None)
        if args.cache_dir is not None:
            cache_dir = Path(args.cache_dir)
            cache_dir.mkdir(parents=True, exist_ok=True)
            outcomes.append(cache_chaos(
                cache_dir, mode=args.cache_chaos, seed=args.seed,
                ctx=ctx))
        else:
            with tempfile.TemporaryDirectory() as tmp:
                outcomes.append(cache_chaos(
                    Path(tmp), mode=args.cache_chaos, seed=args.seed,
                    ctx=ctx))

    if service_chaos_on:
        # Imported lazily: the service tier pulls asyncio + the whole
        # service package, which sim-only chaos runs never need.
        from repro.robust.service_chaos import service_chaos_suite
        try:
            outcomes.extend(service_chaos_suite(
                seed=args.seed, scenarios=args.service_scenario,
                progress=progress))
        except ValueError as err:
            parser.error(str(err))

    _print_outcomes(outcomes)
    counts = summarize(outcomes)
    print(f"\nchaos: {counts[SILENT]} silent corruptions, "
          f"{counts[FALSE_POSITIVE]} false positives, "
          f"{counts['detected']} detected, {counts['masked']} masked, "
          f"{counts['unarmed']} unarmed "
          f"({len(outcomes)} trials, seed {args.seed})")
    if args.metrics_out:
        from repro.perf.metrics import get_registry
        path = get_registry().write(args.metrics_out)
        print(f"[metrics -> {path}]", file=sys.stderr)
    failures = counts[SILENT] + counts[FALSE_POSITIVE]
    if failures:
        print(f"FAIL: {failures} trial(s) violated the "
              f"masked-or-detected contract", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
