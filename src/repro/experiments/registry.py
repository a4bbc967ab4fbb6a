"""Declarative experiment registry.

Every paper table/figure registers one :class:`Experiment` describing
itself: a name, a one-line description, the **job spec** — the exact
set of :class:`~repro.exec.jobs.Job` simulations the figure needs —
and the **render function** that turns finished results into the
printed report.

The registry is the single discovery point: the CLI runner
(``repro-experiments``), the run engine, and ``repro-obs
--list-experiments`` all enumerate it.  Splitting the job spec from
rendering is what enables the engine to deduplicate jobs *across*
figures (Figures 6 and 7 share their baseline suite; Figures 10 and 11
share the packed runs) and to fan the union out over a process pool
before any report is rendered — each renderer then reads its results
from that batch and performs zero fresh simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.config import MachineConfig
from repro.core.machine import RunResult
from repro.exec.jobs import Job

#: ``result(name, config, scale)``: where a renderer gets each run.
ResultFn = Callable[[str, MachineConfig, int], RunResult]


@dataclass(frozen=True)
class Experiment:
    """One registered table/figure experiment."""

    name: str
    description: str
    #: scale -> the simulation jobs this experiment's renderer will
    #: consume (empty for pure-configuration tables).
    jobs: Callable[[int], list[Job]]
    #: (scale, result) -> the finished report text; ``result`` serves
    #: every job in ``jobs(scale)``.
    render: Callable[[int, ResultFn], str]


_REGISTRY: dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Register an experiment (module import time); returns it."""
    if experiment.name in _REGISTRY:
        raise ValueError(f"duplicate experiment {experiment.name!r}")
    _REGISTRY[experiment.name] = experiment
    return experiment


def get_experiment(name: str) -> Experiment:
    _ensure_loaded()
    return _REGISTRY[name]


def experiment_names() -> tuple[str, ...]:
    """Registered experiment names, in registration (paper) order."""
    _ensure_loaded()
    return tuple(_REGISTRY)


def all_experiments() -> dict[str, Experiment]:
    """Name -> experiment, in registration order."""
    _ensure_loaded()
    return dict(_REGISTRY)


def _ensure_loaded() -> None:
    """Import the experiment modules, which register themselves (the
    same idiom as the workload registry).  Import order is the paper's
    presentation order — it defines what ``repro-experiments all``
    prints first."""
    from repro.experiments import (  # noqa: F401
        table1_config,
        table4_devices,
        fig1_cumulative_widths,
        fig2_width_fluctuation,
        fig4_narrow16_by_class,
        fig5_narrow33_by_class,
        fig6_power_saved,
        fig7_power_total,
        load_zero_detect,
        fig10_packing_speedup,
        fig11_ipc,
        lint_static,
        chaos_robust,
    )
