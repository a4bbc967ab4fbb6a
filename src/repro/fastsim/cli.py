"""``repro-equivalence``: the backend bit-exactness matrix.

Runs every workload (all 14 by default) through the reference machine
and the fast backend under the paper's methodology — identical warmup,
identical detailed window — and compares the *serialized* results
(:func:`repro.exec.serialize.result_to_dict`): every counter, the full
width histogram, the fluctuation tracker, and the power report must be
identical.  One divergent leaf anywhere fails the run.  This is the one
place the two backends are compared.

Output is a per-workload diff table (status, cycles, committed, the
divergent result paths if any) plus an optional JSON document
(``--out``) the ``backend-equivalence`` CI job uploads as an artifact.
Exit status is the contract: 0 only when every workload matches.

The cells come from one of two sources.  ``--configs`` sweeps the
shared named-configuration catalog
(:func:`repro.core.config.named_configs`) — e.g. ``packing`` (Section 5
full packing), ``packing-replay`` (speculative replay packing), and
``no-detect`` (gating without load zero-detect) exercise the packing
and gating decision paths that a baseline-only comparison would leave
cold.  ``--experiments`` instead takes the jobs registered experiments
declare (:mod:`repro.experiments.registry`), which reaches configs
outside the catalog, such as Figure 10's perfect-predictor packing runs
at 8-wide decode; such a config is labelled by its fingerprint.

``--jobs`` runs comparison cells in parallel worker processes and
``--timeout`` bounds each cell there.  Nothing is recalled from a
result cache: a proof simulates both backends fresh.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor, TimeoutError \
    as FutureTimeout
from pathlib import Path

from repro.core.config import MachineConfig, named_configs
from repro.core.machine import Machine
from repro.exec.engine import kill_pool
from repro.exec.jobs import dedupe
from repro.exec.serialize import dict_divergences, result_to_dict
from repro.experiments.registry import experiment_names, get_experiment
from repro.fastsim.machine import FastMachine
from repro.perf.clock import perf_now
from repro.workloads.registry import all_workloads, get_workload, \
    resolve_warmup

#: Document schema for the ``--out`` artifact.  ``/2`` dropped the
#: block-memoization fields from the document and its rows.
SCHEMA = "repro-equivalence/2"


def compare_one(workload_name: str, config: MachineConfig, scale: int,
                window: int | None) -> dict:
    """Run both backends on one (workload, config) cell; returns the
    comparison row (wall times are informational, never compared).
    ``window`` caps the detailed window (None: the workload's own)."""
    workload = get_workload(workload_name)
    warmup = resolve_warmup(workload, scale)
    insts = workload.window if window is None else window

    reference = Machine(workload.build(scale), config)
    reference.fast_forward(warmup)
    t0 = perf_now()
    ref_result = reference.run(max_insts=insts)
    ref_wall = perf_now() - t0

    fast = FastMachine(workload.build(scale), config)
    fast.fast_forward(warmup)
    t0 = perf_now()
    fast_result = fast.run(max_insts=insts)
    fast_wall = perf_now() - t0

    ref_dict = result_to_dict(ref_result)
    divergences = dict_divergences(ref_dict, result_to_dict(fast_result))
    return {
        "workload": workload_name,
        "match": not divergences,
        "divergences": divergences,
        "cycles": ref_result.stats.cycles,
        "committed": ref_result.stats.committed,
        "ref_wall_seconds": round(ref_wall, 4),
        "fast_wall_seconds": round(fast_wall, 4),
        "speedup": round(ref_wall / fast_wall, 2) if fast_wall else None,
    }


def render_table(rows: list[dict]) -> str:
    """The per-workload diff table (plain text, artifact-friendly)."""
    lines = [f"{'workload':16s} {'status':>8s} {'cycles':>10s} "
             f"{'committed':>10s} {'ref':>7s} {'fast':>7s} {'x':>6s}"
             f"  divergent paths"]
    for row in rows:
        status = "ok" if row["match"] else "DIVERGED"
        paths = ("-" if row["match"]
                 else ", ".join(row["divergences"][:6])
                 + (" ..." if len(row["divergences"]) > 6 else ""))
        speedup = (f"{row['speedup']:>5.1f}x"
                   if row["speedup"] is not None else f"{'-':>6s}")
        lines.append(
            f"{row['workload']:16s} {status:>8s} {row['cycles']:>10,d} "
            f"{row['committed']:>10,d} {row['ref_wall_seconds']:>6.2f}s "
            f"{row['fast_wall_seconds']:>6.2f}s {speedup}  {paths}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-equivalence",
        description="Prove the fast backend bit-exact against the "
                    "reference machine over the workload matrix.")
    parser.add_argument("--workloads", nargs="+", default=None,
                        choices=[w.name for w in all_workloads()],
                        metavar="NAME",
                        help="workloads to compare (default: all)")
    cells = parser.add_mutually_exclusive_group()
    cells.add_argument("--configs", nargs="+", default=["baseline"],
                       choices=sorted(named_configs()),
                       metavar="CONFIG",
                       help="named machine configurations to sweep "
                            "(default: baseline; choices: "
                            + ", ".join(sorted(named_configs())) + ")")
    cells.add_argument("--experiments", nargs="+", default=None,
                       choices=experiment_names(), metavar="NAME",
                       help="compare the jobs these experiments declare "
                            "instead (choices: "
                            + ", ".join(experiment_names()) + ")")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument("--window", type=int, default=None,
                        metavar="INSTS",
                        help="cap the detailed window (default: each "
                             "workload's own window)")
    parser.add_argument("--out", type=Path, default=None, metavar="FILE",
                        help="write the comparison document as JSON "
                             "(the CI artifact)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for fresh simulations "
                             "(default 1 = serial; results are "
                             "bit-exact either way)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock timeout (pooled mode "
                             "only; a hung worker is killed and the "
                             "job becomes a failed row)")
    return parser


def _sections(args: argparse.Namespace,
              ) -> list[tuple[str, MachineConfig, list[str]]]:
    """The cells to compare as ``(label, config, workloads)`` groups,
    in run order.  An experiment's config equal to a named one keeps
    its name; any other is labelled by its fingerprint."""
    if args.experiments is None:
        names = args.workloads or [w.name for w in all_workloads()]
        configs = named_configs()
        return [(name, configs[name], names) for name in args.configs]
    labels = {config: name for name, config in named_configs().items()}
    grouped: dict[MachineConfig, list[str]] = {}
    for job in dedupe([job for name in args.experiments
                       for job in get_experiment(name).jobs(args.scale)]):
        if args.workloads is None or job.workload in args.workloads:
            grouped.setdefault(job.config, []).append(job.workload)
    return [(labels.get(config, config.fingerprint()[:10]), config, names)
            for config, names in grouped.items()]


def _failed_row(name: str, error: str) -> dict:
    """The row of a cell that produced no comparison."""
    return {"workload": name, "match": False, "divergences": [error],
            "cycles": 0, "committed": 0, "ref_wall_seconds": 0.0,
            "fast_wall_seconds": 0.0, "speedup": None}


def _run_cells(cells: list[tuple],
               jobs: int, timeout: float | None,
               progress) -> list[dict]:
    """Run comparison cells — serially, or across ``jobs`` worker
    processes (results merge in submission order, so the table and the
    artifact are identical either way).  In a pool, a cell that raises,
    dies with its worker or outlives ``timeout`` becomes a failed row
    naming the error, and a pool with a timed-out cell is put down, not
    waited for."""
    if jobs <= 1:
        rows = []
        for name, config, scale, window in cells:
            progress(name)
            rows.append(compare_one(name, config, scale, window))
        return rows
    pool = ProcessPoolExecutor(max_workers=jobs)
    wedged = False
    try:
        futures = [pool.submit(compare_one, name, config, scale, window)
                   for name, config, scale, window in cells]
        rows = []
        for (name, *_rest), future in zip(cells, futures):
            progress(name)
            try:
                rows.append(future.result(timeout=timeout))
            except FutureTimeout:
                wedged = True
                rows.append(_failed_row(name,
                                        f"timed out after {timeout}s"))
            except Exception as err:  # noqa: BLE001 — worker boundary
                rows.append(_failed_row(name, f"{type(err).__name__}: "
                                              f"{err}"))
        return rows
    finally:
        if wedged:
            kill_pool(pool)
        else:
            pool.shutdown(wait=True)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    if args.scale < 1:
        parser.error("--scale must be >= 1")
    if args.window is not None and args.window < 1:
        parser.error("--window must be >= 1")
    sections = _sections(args)
    if not sections:
        parser.error(f"--experiments {' '.join(args.experiments)} "
                     f"leaves no cells to compare"
                     + (" on these workloads" if args.workloads else ""))

    compared: dict[str, tuple[MachineConfig, list[dict]]] = {}
    divergent = 0
    for label, config, names in sections:

        def progress(name: str, _label: str = label) -> None:
            print(f"[equivalence] {_label}/{name}",
                  file=sys.stderr, flush=True)

        cells = [(name, config, args.scale, args.window)
                 for name in names]
        rows = _run_cells(cells, args.jobs, args.timeout, progress)
        divergent += sum(1 for row in rows if not row["match"])
        compared[label] = (config, rows)
        print(f"\n== {label} "
              f"(config {config.fingerprint()[:10]}) ==")
        print(render_table(rows))

    total = sum(len(rows) for _config, rows in compared.values())
    verdict = (f"backend-equivalence: {total - divergent}/{total} "
               f"matched, {divergent} divergent")
    print(f"\n{verdict}")

    if args.out is not None:
        doc = {
            "schema": SCHEMA,
            "scale": args.scale,
            "window": args.window,
            "experiments": args.experiments,
            "divergent": divergent,
            "total": total,
            "configs": {
                label: {"config_fingerprint": config.fingerprint(),
                        "workloads": rows}
                for label, (config, rows) in compared.items()
            },
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
        print(f"wrote {args.out}")

    if divergent:
        print(f"FAIL: {verdict}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
