"""``repro-obs``: run one workload with full observability attached.

Runs a registered benchmark under the paper's methodology (fast-forward
warmup, then detailed simulation), with the interval sampler, stall
attribution, and — optionally — the raw event trace enabled, and writes
the machine-readable artifacts to an output directory::

    repro-obs go --packing --out obs/go-packed
    repro-obs gsm-encode --window 500 --events --out obs/gsm

The console summary — headline counters, the top-down CPI breakdown
(with its slot-conservation proof), wall-clock — prints to **stderr**;
stdout carries only the machine-parseable artifact paths (and the
``--list`` / ``--list-experiments`` listings).  ``--profile`` attaches
the hot-loop phase profiler (:mod:`repro.perf.profiler`) and prints
the wall-clock-per-phase ranking after the run.

The CLI accepts the shared run-engine flag group
(:mod:`repro.exec.cli`).  With ``--cache-dir`` — and no flag that
needs a hand-instrumented machine (``--events``, ``--profile``,
``--window``, ``--max-events``, ``--max-insts``) — the run goes
through the run engine, so a warm cache serves the manifest without
simulating and a cold run stores its result for every other engine
consumer (the same artifacts are written either way).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.core.config import BASELINE
from repro.core.machine import Machine
from repro.exec.cli import (
    add_engine_arguments,
    context_from_args,
    validate_engine_args,
)
from repro.obs.events import EventRecorder
from repro.obs.export import (
    build_manifest,
    read_manifest,
    write_events_jsonl,
    write_jsonl,
    write_manifest,
    write_windows_jsonl,
)
from repro.obs.sampler import IntervalSampler
from repro.workloads.registry import all_workloads, get_workload, resolve_warmup


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Run one benchmark with observability attached and "
                    "export JSONL artifacts.")
    parser.add_argument("workload", nargs="?",
                        help="registered workload name (e.g. go, ijpeg, "
                             "gsm-encode); see --list")
    parser.add_argument("--list", action="store_true", dest="list_workloads",
                        help="list registered workloads and exit")
    parser.add_argument("--list-experiments", action="store_true",
                        help="list registered paper experiments (name, "
                             "description, simulation-job count) and exit")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument("--packing", action="store_true",
                        help="enable operation packing (paper Section 5)")
    parser.add_argument("--replay", action="store_true",
                        help="enable replay packing (implies --packing)")
    parser.add_argument("--predictor", default=None,
                        help="branch predictor kind (default: Table 1's "
                             "combining predictor)")
    parser.add_argument("--window", type=int, default=None,
                        help="sampler window in cycles (default: the "
                             "config's obs.sampler_window)")
    parser.add_argument("--events", action="store_true",
                        help="also record and export the raw event trace")
    parser.add_argument("--max-events", type=int, default=None,
                        help="cap on recorded events (default: the "
                             "config's obs.max_events)")
    parser.add_argument("--max-insts", type=int, default=None,
                        help="override the workload's detailed-simulation "
                             "window (committed instructions)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default: "
                             "obs-out/<workload>)")
    parser.add_argument("--profile", action="store_true",
                        help="attach the hot-loop phase profiler and "
                             "print the per-phase wall-clock ranking "
                             "(stderr) after the run")
    add_engine_arguments(parser)
    return parser


def _engine_eligible(args: argparse.Namespace) -> bool:
    """The engine path serves this invocation iff a cache directory is
    in play and nothing asks for a hand-instrumented machine."""
    return (args.cache_dir is not None and not args.no_cache
            and not (args.events or args.profile or args.window
                     or args.max_events or args.max_insts))


def _run_via_engine(args: argparse.Namespace, workload, config,
                    out_dir: str) -> int:
    """Run (or recall) the workload through the run engine: warm cache
    hits skip simulation yet rematerialize the identical manifest."""
    from repro.exec import Job, RunEngine

    job = Job(workload.name, config, args.scale)
    out = Path(out_dir)
    ctx = context_from_args(args, obs_dir=out)
    start = time.time()
    engine = RunEngine(ctx)
    results, report = engine.run_jobs_report([job])
    elapsed = time.time() - start
    if results.get(job.key) is None:
        outcome = report.outcome_of(job)
        print(f"FAIL: {workload.name}: {outcome.error or 'job failed'}",
              file=sys.stderr)
        return 1
    outcome = report.outcome_of(job)
    source = "cache" if outcome.attempts == 0 else "simulated"

    # Normalize the engine's <stem>.json/.jsonl artifact names to the
    # repro-obs directory layout, then derive windows.jsonl.
    src_json = out / f"{job.stem()}.json"
    manifest = read_manifest(src_json)
    json_path = out / "manifest.json"
    jsonl_path = out / "manifest.jsonl"
    src_json.replace(json_path)
    src_jsonl = src_json.with_suffix(".jsonl")
    if src_jsonl.exists():
        src_jsonl.replace(jsonl_path)
    windows = manifest.get("windows") or []
    windows_path = out / "windows.jsonl"
    write_jsonl(windows_path, windows)

    stats = manifest["stats"]
    ipc = (stats["committed"] / stats["cycles"]
           if stats["cycles"] else 0.0)
    err = sys.stderr
    print(f"{workload.name}: {stats['committed']} committed / "
          f"{stats['cycles']} cycles = {ipc:.3f} IPC "
          f"({elapsed:.1f}s wall, {source} via engine)", file=err)
    slots = manifest.get("attribution")
    if slots:
        print(f"slot conservation: {slots['slots_total']} slots "
              f"== {slots['issue_width']} wide x {slots['cycles']} "
              f"cycles", file=err)
        cpi = stats["cycles"] / stats["committed"] \
            if stats["committed"] else 0.0
        for kind in ("used", "frontend", "deps", "structural_alu",
                     "structural_mult", "recovery"):
            frac = (slots[kind] / slots["slots_total"]
                    if slots["slots_total"] else 0.0)
            print(f"  cpi[{kind:>15s}] = {frac * cpi:.4f}", file=err)
    print(f"windows: {len(windows)} windows", file=err)
    for path in (json_path, jsonl_path, windows_path):
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    validate_engine_args(parser, args)

    if args.list_workloads:
        for workload in sorted(all_workloads(), key=lambda w: w.name):
            print(f"{workload.name:16s} [{workload.suite}] "
                  f"{workload.description}")
        return 0

    if args.list_experiments:
        # Same declarative registry the repro-experiments runner and
        # the run engine consume.
        from repro.experiments.registry import all_experiments
        for exp in all_experiments().values():
            print(f"{exp.name:14s} [{len(exp.jobs(1)):3d} jobs] "
                  f"{exp.description}")
        return 0

    if args.workload is None:
        parser.error("workload is required (use --list to enumerate)")
    if args.scale < 1:
        parser.error("--scale must be >= 1")
    if args.window is not None and args.window < 1:
        parser.error("--window must be >= 1 cycle")
    if args.max_events is not None and args.max_events < 1:
        parser.error("--max-events must be >= 1")
    if args.max_insts is not None and args.max_insts < 1:
        parser.error("--max-insts must be >= 1")

    try:
        workload = get_workload(args.workload)
    except KeyError:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(use --list to enumerate)")

    config = BASELINE
    if args.packing or args.replay:
        config = config.with_packing(replay=args.replay)
    if args.predictor:
        config = config.with_predictor(args.predictor)
    window = (config.obs.sampler_window if args.window is None
              else args.window)
    max_events = (config.obs.max_events if args.max_events is None
                  else args.max_events)
    max_insts = (workload.window if args.max_insts is None
                 else args.max_insts)
    out_dir = args.out or f"obs-out/{workload.name}"

    if _engine_eligible(args):
        return _run_via_engine(args, workload, config, out_dir)
    if args.cache_dir is not None:
        print("note: --events/--profile/--window/--max-* need the "
              "hand-instrumented machine; running it directly (cache "
              "flags ignored)", file=sys.stderr)

    machine = Machine(workload.build(args.scale), config)
    sampler = IntervalSampler(window=window)
    machine.add_probe(sampler)
    attribution = machine.enable_stall_attribution()
    recorder = None
    if args.events:
        recorder = EventRecorder(limit=max_events)
        machine.subscribe(recorder)
    profiler = machine.enable_profiling() if args.profile else None

    start = time.time()
    machine.fast_forward(resolve_warmup(workload, args.scale))
    result = machine.run(max_insts=max_insts)
    elapsed = time.time() - start
    if profiler is not None:
        profiler.detach()
    sampler.finish(machine)

    extra: dict = {"wall_seconds": elapsed, "sampler_window": window}
    if profiler is not None:
        extra["profile"] = profiler.as_dict()
    manifest = build_manifest(
        result, attribution=attribution, sampler=sampler,
        workload=workload.name, scale=args.scale, extra=extra)
    paths = write_manifest(out_dir, manifest)
    written = [paths["json"], paths["jsonl"]]
    windows_path = paths["json"].parent / "windows.jsonl"
    write_windows_jsonl(windows_path, sampler.windows)
    written.append(windows_path)
    if recorder is not None:
        events_path = paths["json"].parent / "events.jsonl"
        write_events_jsonl(events_path, recorder.events)
        written.append(events_path)

    stats = result.stats
    err = sys.stderr
    print(f"{workload.name}: {stats.committed} committed / "
          f"{stats.cycles} cycles = {stats.ipc:.3f} IPC "
          f"({elapsed:.1f}s wall)", file=err)
    attribution.check()
    slots = attribution.as_dict()
    print(f"slot conservation: {slots['slots_total']} slots "
          f"== {slots['issue_width']} wide x {slots['cycles']} cycles",
          file=err)
    for kind, cpi in attribution.cpi_breakdown(stats.committed).items():
        print(f"  cpi[{kind:>15s}] = {cpi:.4f}", file=err)
    print(f"windows: {len(sampler.windows)} x {window} cycles", file=err)
    if recorder is not None:
        note = f" (+{recorder.dropped} dropped)" if recorder.dropped else ""
        print(f"events: {len(recorder.events)} recorded{note}", file=err)
    if profiler is not None:
        print(f"\nhot-loop profile ({workload.name}):", file=err)
        print(profiler.table(), file=err)
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
