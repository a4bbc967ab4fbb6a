"""Performance observability: tracing, metrics, profiling.

This package is the *measurement substrate* of the host-side execution
stack (the simulated machine's own instruments live in
:mod:`repro.obs`).  Four layers:

* :mod:`repro.perf.clock` — the only place the harness reads the wall
  clock.  The lint-gated packages (``repro.core``, ``repro.exec``) call
  these shims instead of :mod:`time` so the nondeterminism lint
  (ND002) stays clean and the simulated *results* provably never
  depend on the clock — only the measurement metadata does.
* :mod:`repro.perf.trace` — a structured span tracer threaded through
  the :class:`~repro.exec.engine.RunEngine`, exporting Chrome
  trace-event JSON loadable in ``chrome://tracing`` / Perfetto.
* :mod:`repro.perf.metrics` — a process-safe metrics registry
  (counters / gauges / histograms with fixed bucket boundaries) that
  unifies the engine, cache, guard, and chaos counters into one
  exported snapshot per run; worker processes return snapshot deltas
  that merge into the parent's registry.
* :mod:`repro.perf.profiler` — an opt-in hot-loop phase profiler for
  :class:`~repro.core.machine.Machine`: per-pipeline-stage and
  per-subsystem wall-clock attribution whose report is the prioritized
  target list for the fast-backend work.  Detached machines run the
  exact pre-profiler code path.

Dependency rule: :mod:`repro.perf` imports nothing from
:mod:`repro.exec` or :mod:`repro.robust` (both import *us*).
"""

from repro.perf.clock import epoch_now, perf_now
from repro.perf.metrics import (
    MetricsRegistry,
    get_registry,
    reset_registry,
)
from repro.perf.profiler import PhaseProfiler
from repro.perf.trace import Span, SpanTracer, write_chrome_trace

__all__ = [
    "MetricsRegistry",
    "PhaseProfiler",
    "Span",
    "SpanTracer",
    "epoch_now",
    "get_registry",
    "perf_now",
    "reset_registry",
    "write_chrome_trace",
]
