"""Shared experiment infrastructure.

Every figure/table module builds on :func:`run_workload`, which applies
the paper's methodology: assemble the benchmark, fast-forward through
its initialization (Section 3.2's warmup), then run the detailed
simulator to completion.  Execution is delegated to the run engine
(:mod:`repro.exec`), and, when a
:class:`~repro.exec.context.RunContext` carries a cache directory,
results persist on disk so later sessions skip the simulation entirely.

Each experiment's ``run()`` reads its runs through ``result(name,
config, scale)``, :func:`run_workload` by default; ``repro-experiments``
passes a lookup over the batch it ran, so rendering never simulates.
:func:`run_workload` memoizes per job and context, so direct ``run()``
callers still share runs (Figures 6 and 7 share their baseline suite).

Obs directory, cache policy, and parallelism travel explicitly on the
context — there is no module-global obs setter.  When the
context names an obs directory, every *fresh* simulation runs with the
interval sampler and stall attribution attached and leaves a JSON run
manifest there — so regenerating a figure doubles as producing a
machine-readable regression artifact.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import BASELINE, MachineConfig
from repro.core.machine import RunResult
from repro.exec import Job, RunContext, RunEngine
from repro.workloads.registry import (
    MEDIABENCH,
    SPECINT95,
    suite_workloads,
)

#: Benchmark display order, following the paper's figures.
SPEC_ORDER = ("ijpeg", "m88ksim", "go", "xlisp", "compress", "gcc",
              "vortex", "perl")
MEDIA_ORDER = ("gsm-encode", "gsm-decode", "mpeg2-encode", "mpeg2-decode",
               "g721-encode", "g721-decode")
ALL_ORDER = SPEC_ORDER + MEDIA_ORDER

#: :func:`run_workload`'s results, by ``(job key, context)``.
_RESULTS: dict[tuple, RunResult] = {}


def run_workload(name: str, config: MachineConfig = BASELINE,
                 scale: int = 1, use_cache: bool = True,
                 ctx: RunContext | None = None) -> RunResult:
    """Run one benchmark under ``config`` with the paper's warmup
    methodology, through the run engine (disk cache, then fresh
    simulation).

    ``ctx`` (default: reference backend, one process, no disk cache)
    controls obs output, cache directories, and parallelism.  Results
    are memoized per job and context, so another backend or obs
    directory never gets this one's result; ``use_cache=False``
    bypasses the memo and the disk cache for this call.
    """
    ctx = ctx or RunContext()
    if not use_cache:
        ctx = replace(ctx, use_cache=False)
    job = Job(name, config, scale)
    if not ctx.use_cache:
        return RunEngine(ctx).run(job)
    key = (job.key, ctx)
    result = _RESULTS.get(key)
    if result is None:
        result = _RESULTS[key] = RunEngine(ctx).run(job)
    return result


def spec_names() -> tuple[str, ...]:
    registered = {w.name for w in suite_workloads(SPECINT95)}
    return tuple(n for n in SPEC_ORDER if n in registered)


def media_names() -> tuple[str, ...]:
    registered = {w.name for w in suite_workloads(MEDIABENCH)}
    return tuple(n for n in MEDIA_ORDER if n in registered)


def all_names() -> tuple[str, ...]:
    return spec_names() + media_names()


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def format_table(headers: list[str], rows: list[list[object]],
                 precision: int = 2) -> str:
    """Render a simple aligned text table (the harness's output format)."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.{precision}f}"
        return str(cell)

    grid = [headers] + [[fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in grid) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(grid):
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
