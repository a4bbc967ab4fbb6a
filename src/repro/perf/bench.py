"""``repro-bench``: the pinned benchmark matrix and regression harness.

Measures, for a pinned set of workloads, the numbers the ROADMAP's
fast-backend work is judged by:

* **simulation speed** — cycles/sec and committed insts/sec per
  workload for **both backends** — the reference machine and the
  two-phase fast backend (:mod:`repro.fastsim`) — measured in the same
  run (best-of-N over interleaved repeats, same discipline as
  ``benchmarks/``: best-of defeats scheduler noise, interleaving
  defeats thermal drift), plus the in-run fast-over-reference speedup;
* **engine throughput** — wall-clock for the same job batch cold
  (fresh simulation + cache store) and warm (disk-cache recall), and
  the resulting speedup;
* **obs overhead** — the cost ratio of running fully observed
  (sampler + stall attribution) versus bare.

Results land in a schema-versioned ``BENCH_<timestamp>.json`` carrying
a host fingerprint (platform, python, cpu count) and the baseline
machine-config fingerprint, plus the process metrics snapshot.  A
committed baseline (``benchmarks/BENCH_baseline.json``) makes the
harness a regression gate::

    repro-bench --quick --against benchmarks/BENCH_baseline.json

``--against`` diffs cycles/sec per workload — for both backends — and
exits nonzero when any falls more than ``--threshold`` (default 0.25)
below the baseline.  ``--fast-floor`` additionally gates the in-run
fast-backend speedup: every workload's fast backend must beat the
reference by at least the floor, measured in *this* run (so the gate
cannot be satisfied by a stale baseline).  Host fingerprints rarely
match across machines — the diff *warns* on a mismatch (to stderr)
rather than failing, and the generous default threshold is what
absorbs cross-host variance.

This is the one :mod:`repro.perf` module allowed to import the wider
repo (engine, workloads): it is a leaf CLI, imported by nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

from repro.perf.clock import epoch_now, perf_now
from repro.perf.metrics import get_registry

#: Benchmark document schema.  ``/2`` added the fast-backend columns
#: (``fast_*``, ``fast_speedup``) to every workload row; ``/3`` added
#: a block-memoization hit-rate column, which ``/4`` dropped again
#: along with the memoizer.
SCHEMA = "repro-bench/4"

#: The pinned default matrix: one SPEC-style integer workload, one
#: compression kernel, one MediaBench kernel — small enough for CI,
#: diverse enough to catch a regression that hits only one pipeline mix.
DEFAULT_WORKLOADS = ("go", "compress", "g721-encode")

#: Regression threshold for --against (fraction of baseline
#: cycles/sec a workload may lose before the diff fails).
DEFAULT_THRESHOLD = 0.25

#: Minimum in-run fast-backend speedup (fast cycles/sec over reference
#: cycles/sec, same run) before ``--fast-floor`` fails.  Measured
#: serial full-window speedups on an idle development host are
#: 4.7-5.5x (compress the slowest, g721-encode the fastest).  3.0
#: leaves ~35% headroom under the slowest measured workload so shared
#: CI runners with noisy neighbours don't flake, while still catching
#: any change that erodes the fast path back toward interpreter speed.
DEFAULT_FAST_FLOOR = 3.0


def host_fingerprint() -> dict:
    """Where these numbers were measured (never *what* was measured —
    results must not depend on any of this)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


# ------------------------------------------------------------ measurement

def _sim_once(workload_name: str, scale: int, window: int | None,
              observed: bool, backend: str = "reference") -> dict:
    """One fresh simulation; returns cycles/committed/wall_seconds.

    ``backend`` picks the simulator (``"reference"`` or ``"fast"``);
    the timed region is identical for both — ``machine.run`` only, with
    construction and warmup outside, so the fast backend's phase-2
    replay is *inside* the measurement and the speedup is honest.
    """
    from repro.core.config import BASELINE
    from repro.core.machine import Machine
    from repro.obs.sampler import IntervalSampler
    from repro.workloads.registry import get_workload, resolve_warmup

    workload = get_workload(workload_name)
    if backend == "fast":
        from repro.fastsim.machine import FastMachine
        machine = FastMachine(workload.build(scale), BASELINE)
    else:
        machine = Machine(workload.build(scale), BASELINE)
    if observed:
        sampler = IntervalSampler(window=BASELINE.obs.sampler_window)
        machine.add_probe(sampler)
        machine.enable_stall_attribution()
    machine.fast_forward(resolve_warmup(workload, scale))
    t0 = perf_now()
    result = machine.run(
        max_insts=workload.window if window is None else window)
    wall = perf_now() - t0
    return {"cycles": result.stats.cycles,
            "committed": result.stats.committed,
            "wall_seconds": wall}


def bench_workloads(workloads: tuple[str, ...], scale: int,
                    window: int | None, repeats: int,
                    log=print) -> dict:
    """Best-of-``repeats`` simulation speed per workload, interleaved,
    for the reference machine and the fast backend in the same run."""
    walls: dict[str, list[float]] = {name: [] for name in workloads}
    fast_walls: dict[str, list[float]] = {name: [] for name in workloads}
    shape: dict[str, dict] = {}
    for rep in range(repeats):
        for name in workloads:
            log(f"[bench] sim {name} (repeat {rep + 1}/{repeats})")
            run = _sim_once(name, scale, window, observed=False)
            walls[name].append(run["wall_seconds"])
            shape[name] = run
            fast = _sim_once(name, scale, window, observed=False,
                             backend="fast")
            fast_walls[name].append(fast["wall_seconds"])
            if (fast["cycles"], fast["committed"]) != \
                    (run["cycles"], run["committed"]):
                # The equivalence matrix is the real gate; this is the
                # bench refusing to time two different simulations.
                raise RuntimeError(
                    f"{name}: fast backend shape diverges from "
                    f"reference (cycles {fast['cycles']} vs "
                    f"{run['cycles']}, committed {fast['committed']} "
                    f"vs {run['committed']})")
    out = {}
    for name in workloads:
        best = min(walls[name])
        fast_best = min(fast_walls[name])
        cycles = shape[name]["cycles"]
        committed = shape[name]["committed"]
        out[name] = {
            "cycles": cycles,
            "committed": committed,
            "wall_seconds": round(best, 4),
            "cycles_per_sec": round(cycles / best, 1),
            "insts_per_sec": round(committed / best, 1),
            "fast_wall_seconds": round(fast_best, 4),
            "fast_cycles_per_sec": round(cycles / fast_best, 1),
            "fast_insts_per_sec": round(committed / fast_best, 1),
            "fast_speedup": round(best / fast_best, 2),
        }
    return out


def bench_engine(workloads: tuple[str, ...], scale: int,
                 log=print) -> dict:
    """Cold-versus-warm engine throughput over one job batch.

    Uses a throwaway cache directory: cold pays fresh simulation plus
    serialization and cache store, warm pays only disk recall.
    """
    import tempfile

    from repro.core.config import BASELINE
    from repro.exec.context import RunContext
    from repro.exec.engine import RunEngine, clear_memo
    from repro.exec.jobs import Job

    jobs = [Job(workload=name, config=BASELINE, scale=scale)
            for name in workloads]
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        ctx = RunContext(cache_dir=Path(tmp) / "cache", jobs=1)
        clear_memo()
        log(f"[bench] engine cold ({len(jobs)} jobs)")
        t0 = perf_now()
        RunEngine(ctx).run_jobs(jobs)
        cold = perf_now() - t0
        clear_memo()   # force the disk tier, not the memo
        log("[bench] engine warm (disk recall)")
        t0 = perf_now()
        engine = RunEngine(ctx)
        engine.run_jobs(jobs)
        warm = perf_now() - t0
        assert engine.stats.fresh_runs == 0, "warm run was not warm"
    clear_memo()
    return {
        "jobs": len(jobs),
        "cold_seconds": round(cold, 4),
        "warm_seconds": round(warm, 4),
        "warm_speedup": round(cold / warm, 1) if warm > 0 else None,
    }


def bench_obs_overhead(workload: str, scale: int, window: int | None,
                       repeats: int, log=print) -> dict:
    """Observed-versus-bare cost ratio for one workload (interleaved
    best-of-``repeats``)."""
    bare: list[float] = []
    observed: list[float] = []
    for rep in range(repeats):
        log(f"[bench] obs overhead {workload} "
            f"(repeat {rep + 1}/{repeats})")
        bare.append(_sim_once(workload, scale, window,
                              observed=False)["wall_seconds"])
        observed.append(_sim_once(workload, scale, window,
                                  observed=True)["wall_seconds"])
    best_bare, best_obs = min(bare), min(observed)
    return {
        "workload": workload,
        "bare_seconds": round(best_bare, 4),
        "observed_seconds": round(best_obs, 4),
        "overhead": round(best_obs / best_bare - 1.0, 4),
    }


# ----------------------------------------------------------------- diffing

def diff_against(current: dict, baseline: dict,
                 threshold: float) -> tuple[list[str], list[str]]:
    """Compare cycles/sec per workload; returns (notes, regressions).

    A workload regresses when its cycles/sec falls more than
    ``threshold`` below the baseline's.  Schema mismatch is a
    regression (the numbers are not comparable); host-fingerprint
    mismatch is a note (expected across machines).
    """
    notes: list[str] = []
    regressions: list[str] = []
    if baseline.get("schema") != current.get("schema"):
        regressions.append(
            f"schema mismatch: baseline {baseline.get('schema')!r} vs "
            f"current {current.get('schema')!r}")
        return notes, regressions
    if baseline.get("host") != current.get("host"):
        notes.append("host fingerprint differs from baseline "
                     "(cross-host comparison; threshold absorbs this)")
    base_workloads = baseline.get("workloads", {})
    for name, row in sorted(current.get("workloads", {}).items()):
        base = base_workloads.get(name)
        if base is None:
            notes.append(f"{name}: not in baseline, skipped")
            continue
        for column, label in (("cycles_per_sec", "cycles/sec"),
                              ("fast_cycles_per_sec",
                               "fast cycles/sec")):
            old = base.get(column)
            new = row.get(column)
            if old is None or new is None:
                continue   # pre-fast-backend baselines lack fast_*
            ratio = new / old if old else 0.0
            line = (f"{name}: {old:,.0f} -> {new:,.0f} {label} "
                    f"({ratio - 1.0:+.1%})")
            if ratio < 1.0 - threshold:
                regressions.append(line
                                   + f"  [> {threshold:.0%} regression]")
            else:
                notes.append(line)
    missing = sorted(set(base_workloads) - set(current.get("workloads", {})))
    for name in missing:
        notes.append(f"{name}: in baseline but not measured this run")
    return notes, regressions


def check_fast_floor(doc: dict, floor: float) -> list[str]:
    """The in-run fast-backend speedup gate; returns failure lines.

    Unlike ``--against``, this compares the two backends *within the
    same run* — host speed cancels out, so the gate is meaningful on
    any machine without a baseline.  ``floor <= 0`` disables it.
    """
    failures: list[str] = []
    if floor <= 0:
        return failures
    for name, row in sorted(doc.get("workloads", {}).items()):
        speedup = row.get("fast_speedup")
        if speedup is None:
            failures.append(f"{name}: no fast-backend measurement in "
                            f"this document")
        elif speedup < floor:
            failures.append(f"{name}: fast backend only "
                            f"{speedup:.2f}x over reference "
                            f"(floor {floor:.2f}x)")
    return failures


# --------------------------------------------------------------------- CLI

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run the pinned benchmark matrix, write a "
                    "BENCH_<timestamp>.json baseline, and optionally "
                    "diff it against a committed baseline.")
    parser.add_argument("--workloads", nargs="+",
                        default=list(DEFAULT_WORKLOADS), metavar="NAME",
                        help="workload matrix (default: "
                             + " ".join(DEFAULT_WORKLOADS) + ")")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="interleaved repeats per measurement; the "
                             "best is kept (default 3)")
    parser.add_argument("--window", type=int, default=None,
                        metavar="INSTS",
                        help="cap the detailed-simulation window "
                             "(committed instructions; default: each "
                             "workload's own window)")
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: 2 repeats, 10000-instruction "
                             "window, skip the engine cold/warm pass")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        metavar="DIR",
                        help="where BENCH_<timestamp>.json is written "
                             "(default: current directory)")
    parser.add_argument("--against", type=Path, default=None,
                        metavar="BASELINE",
                        help="diff cycles/sec against this committed "
                             "BENCH_*.json; exit nonzero on regression")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD, metavar="FRAC",
                        help=f"allowed cycles/sec loss before --against "
                             f"fails (default {DEFAULT_THRESHOLD})")
    parser.add_argument("--fast-floor", type=float,
                        default=DEFAULT_FAST_FLOOR, metavar="X",
                        help=f"minimum in-run fast-backend speedup per "
                             f"workload before the run fails "
                             f"(0 disables; default "
                             f"{DEFAULT_FAST_FLOOR})")
    return parser


def run_matrix(workloads: tuple[str, ...], scale: int,
               window: int | None, repeats: int, quick: bool,
               log=print) -> dict:
    """Execute the full matrix; returns the benchmark document."""
    doc = {
        "schema": SCHEMA,
        "generated": datetime.fromtimestamp(
            epoch_now(), tz=timezone.utc).isoformat(timespec="seconds"),
        "host": host_fingerprint(),
        "quick": quick,
        "repeats": repeats,
        "scale": scale,
        "window": window,
        "workloads": bench_workloads(workloads, scale, window, repeats,
                                     log=log),
        "obs_overhead": bench_obs_overhead(workloads[0], scale, window,
                                           repeats, log=log),
        "engine": (None if quick
                   else bench_engine(workloads, scale, log=log)),
    }
    from repro.core.config import BASELINE
    doc["config_fingerprint"] = BASELINE.fingerprint()
    doc["metrics"] = get_registry().snapshot()
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.scale < 1:
        parser.error("--scale must be >= 1")
    if args.window is not None and args.window < 1:
        parser.error("--window must be >= 1")
    if not 0 < args.threshold < 1:
        parser.error("--threshold must be in (0, 1)")
    repeats = 2 if args.quick else args.repeats
    window = 10_000 if args.quick and args.window is None else args.window

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    doc = run_matrix(tuple(args.workloads), args.scale, window,
                     repeats, args.quick, log=log)

    stamp = datetime.fromtimestamp(epoch_now(), tz=timezone.utc)
    out = args.out_dir / f"BENCH_{stamp:%Y%m%dT%H%M%SZ}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")

    for name, row in sorted(doc["workloads"].items()):
        print(f"{name:16s} {row['cycles_per_sec']:>12,.0f} cycles/sec "
              f"{row['insts_per_sec']:>12,.0f} insts/sec "
              f"({row['wall_seconds']:.2f}s best of {repeats})")
        print(f"{'  fast backend':16s} "
              f"{row['fast_cycles_per_sec']:>12,.0f} cycles/sec "
              f"{row['fast_insts_per_sec']:>12,.0f} insts/sec "
              f"({row['fast_wall_seconds']:.2f}s, "
              f"{row['fast_speedup']:.1f}x)")
    overhead = doc["obs_overhead"]
    print(f"{'obs overhead':16s} {overhead['overhead']:+12.1%} "
          f"({overhead['workload']}: {overhead['bare_seconds']:.2f}s "
          f"bare, {overhead['observed_seconds']:.2f}s observed)")
    if doc["engine"] is not None:
        engine = doc["engine"]
        print(f"{'engine':16s} cold {engine['cold_seconds']:.2f}s, "
              f"warm {engine['warm_seconds']:.2f}s "
              f"({engine['warm_speedup']}x speedup, "
              f"{engine['jobs']} jobs)")
    print(f"wrote {out}")

    failures = 0
    floor_failures = check_fast_floor(doc, args.fast_floor)
    for failure in floor_failures:
        print(f"  FAST-FLOOR {failure}", file=sys.stderr)
    failures += len(floor_failures)

    if args.against is not None:
        baseline = json.loads(args.against.read_text(encoding="utf-8"))
        notes, regressions = diff_against(doc, baseline, args.threshold)
        print(f"\ndiff vs {args.against} "
              f"(threshold {args.threshold:.0%}):")
        for note in notes:
            # Host-fingerprint drift is diagnostic context, not a
            # result: keep it off stdout so tooling that parses the
            # diff never mistakes it for a measurement row.
            if "host fingerprint" in note:
                print(f"  {note}", file=sys.stderr)
            else:
                print(f"  {note}")
        for regression in regressions:
            print(f"  REGRESSION {regression}", file=sys.stderr)
        failures += len(regressions)
        if not regressions:
            print("  ok")
    if failures:
        print(f"FAIL: {failures} gate failure(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
