"""What a run reports: metrics with units, the ledger, the result line.

Every workload returns an :class:`Outcome`.  ``run.py`` scales its
gated timings to the reference host (:mod:`hostspeed`), prints it as
human-readable lines, writes it as a result document (which records
the seed) under ``perfbench/out/results/``, and ends standard output
with the one-line JSON result the benchmark contract defines.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import Sample, Timed, Window, scaled_median, slowdown
from ledger import CONTRACT_PER_LAYER

#: The end-to-end metrics of ``BENCHMARK.json``: every workload reports
#: all four, each mapped onto that workload's own headline numbers (see
#: BENCHMARK.md).  The timings are scaled to the reference host.
#: (name, unit, better)
CONTRACT_END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("throughput", "1/s", "higher"),
    ("cold_s", "s", "lower"),
)


@dataclass
class Outcome:
    """One workload run's results."""

    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: contract metric -> value (units from the CONTRACT_* tables)
    contract: dict[str, float] = field(default_factory=dict)
    #: contract timing -> the ``perf_counter`` windows it was measured in
    windows: dict[str, list[Window]] = field(default_factory=dict)
    #: contract timing that is a median -> the durations it is the
    #: median of, one per window
    durations: dict[str, list[float]] = field(default_factory=dict)
    #: named end-to-end metric -> {"value", "unit", ...evidence}
    named: dict[str, dict] = field(default_factory=dict)
    #: per-layer metric -> value (traced runs)
    layers: dict[str, float] = field(default_factory=dict)
    #: free-form lines printed after the metrics (ledger tables)
    notes: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; record it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def name(self, metric: str, value: float, unit: str, **evidence) -> None:
        self.named[metric] = {"value": value, "unit": unit, **evidence}

    def gate(self, metric: str, value: float, windows: list[Window],
             durations: list[float] | None = None) -> None:
        """Set a contract timing measured in ``windows``; a timing that
        is the median of ``durations`` gives one per window."""
        self.contract[metric] = value
        self.windows[metric] = windows
        if durations is not None:
            self.durations[metric] = durations

    def set_shared(self, setup: list[Timed], rss_mb: float) -> None:
        """The metrics every workload shares; ``setup`` holds each
        set-up sample's (start, end) and its seconds."""
        durations = [seconds for _, seconds in setup]
        median = statistics.median(durations)
        self.gate("setup_s", median, [w for w, _ in setup], durations)
        self.contract["peak_rss_mb"] = rss_mb
        self.name("setup_s", median, "s", count=len(setup))
        self.name("peak_rss_mb", rss_mb, "MB")

    def scale_to_reference(self, samples: list[Sample]) -> None:
        """Turn every gated timing into its reference-host figure: a
        time is divided by the host's slowdown inside its windows, a
        rate multiplied by it, and a median is taken over its windows
        each scaled by its own slowdown.  The raw figures stay in the
        named metrics."""
        better = {name: b for name, _, b in CONTRACT_END_TO_END}
        scaled = {}
        for metric, windows in self.windows.items():
            raw = self.contract[metric]
            if metric in self.durations:
                value, count = scaled_median(samples, windows,
                                             self.durations[metric])
                factor = raw / value
            else:
                factor, count = slowdown(samples, windows)
                value = (raw / factor if better[metric] == "lower"
                         else raw * factor)
            self.contract[metric] = value
            scaled[metric] = {"raw": raw, "scaled": value,
                              "slowdown": factor, "samples": count}
            self.notes.append(f"  gated {metric:20s} {_fmt(value):>12s} "
                              f"(raw {_fmt(raw)}, host slowdown "
                              f"{factor:.3f} over {count} samples)")
        self.details["host_speed"] = scaled

    def finish(self) -> None:
        self.name("error_rate", self.error_rate, "ratio",
                  failed=self.failed, attempted=self.attempted)


def lines(outcome: Outcome) -> list[str]:
    """Human-readable report of one outcome."""
    out = [f"== {outcome.workload} (seed {outcome.seed}, "
           f"{'traced' if outcome.traced else 'untraced'}) =="]
    for metric, doc in outcome.named.items():
        evidence = ", ".join(f"{k}={v}" for k, v in doc.items()
                             if k not in ("value", "unit"))
        out.append(f"  {metric:28s} {_fmt(doc['value']):>14s} "
                   f"{doc['unit']:6s} {evidence}")
    if outcome.layers:
        out.append("  -- per-layer metrics --")
        for metric, value in sorted(outcome.layers.items()):
            out.append(f"  {metric:28s} {_fmt(value):>14s}")
    out.extend(outcome.notes)
    for failure in outcome.failures[:20]:
        out.append(f"  FAILED: {failure}")
    return out


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def contract_metrics(outcome: Outcome) -> dict[str, dict]:
    """The ``metrics`` object of the result line."""
    if outcome.traced:
        units = dict(CONTRACT_PER_LAYER)
        return {name: {"value": outcome.layers[name], "unit": unit}
                for name, unit in units.items() if name in outcome.layers}
    return {name: {"value": outcome.contract[name], "unit": unit}
            for name, unit, _ in CONTRACT_END_TO_END
            if name in outcome.contract}


def result_line(outcomes: list[Outcome]) -> str:
    """The final JSON line.  A single workload reports its contract
    metrics; ``all`` reports every named end-to-end metric instead."""
    expected = (len(CONTRACT_PER_LAYER) if outcomes[0].traced
                else len(CONTRACT_END_TO_END))
    if len(outcomes) == 1:
        metrics = contract_metrics(outcomes[0])
        complete = len(metrics) == expected
    else:
        metrics = {f"{o.workload}.{name}": {"value": doc["value"],
                                            "unit": doc["unit"]}
                   for o in outcomes for name, doc in o.named.items()}
        complete = all(len(contract_metrics(o)) == expected
                       for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return json.dumps({
        "correct": failed == 0 and complete,
        "attempted": max(1, sum(o.attempted for o in outcomes)),
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True)


def write_document(path: Path, outcome: Outcome, seconds: int) -> Path:
    """The result document of one run (records the seed)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"schema": "perfbench-result/1", "workload": outcome.workload,
           "seed": outcome.seed, "seconds": seconds,
           "traced": outcome.traced, "attempted": outcome.attempted,
           "failed": outcome.failed, "failures": outcome.failures,
           "contract": outcome.contract, "named": outcome.named,
           "layers": outcome.layers, "details": outcome.details}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
