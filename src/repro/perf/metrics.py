"""Unified metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` per process replaces the scattered ad-hoc
counts that grew across the execution stack — engine attempts /
timeouts (:class:`~repro.exec.engine.EngineStats` keeps its public
shape and now mirrors into ``engine.*`` counters), cache hits / misses
/ quarantines, guard violations (``guards.*``), and chaos verdict
classifications (``chaos.*``) — and exports them as **one snapshot per
run** (``--metrics-out``).

Process safety is by *snapshot merge*, not shared memory: a pool
worker records into its own process-local registry during one job and
ships the snapshot back inside the job payload; the parent engine
merges it (:meth:`MetricsRegistry.merge`).  Merge semantics are
deterministic — counters and histogram buckets add, gauges keep the
maximum — so the merged registry is independent of worker scheduling.

Histograms use **fixed bucket boundaries chosen at creation** (never
adapted to the data), so two runs of the same suite bucket identically
and snapshots diff cleanly across sessions.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from pathlib import Path

#: Default histogram boundaries for wall-clock seconds: sub-ms to
#: minutes, fixed forever so snapshots stay diffable.
TIME_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 60.0, 150.0, 600.0,
)

#: Snapshot schema identifier.
SCHEMA = "repro-metrics/1"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError("counters only go up")
        self.value += delta


class Gauge:
    """A point-in-time value; merges by maximum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-boundary histogram: cumulative-free bucket counts plus
    sum and count (the last bucket is the implicit +inf overflow)."""

    __slots__ = ("name", "boundaries", "counts", "sum", "count")

    def __init__(self, name: str,
                 boundaries: tuple[float, ...] = TIME_BUCKETS) -> None:
        if list(boundaries) != sorted(boundaries) or not boundaries:
            raise ValueError("boundaries must be non-empty and sorted")
        self.name = name
        self.boundaries = tuple(float(b) for b in boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1


class MetricsRegistry:
    """A named collection of metrics with snapshot/merge semantics."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ---------------------------------------------------------- creation

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str,
                  boundaries: tuple[float, ...] = TIME_BUCKETS,
                  ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, boundaries)
        elif metric.boundaries != tuple(float(b) for b in boundaries):
            raise ValueError(
                f"histogram {name!r} re-declared with different "
                f"boundaries (fixed at creation for determinism)")
        return metric

    # ---------------------------------------------------- snapshot/merge

    def snapshot(self) -> dict:
        """The registry as one JSON-safe document."""
        return {
            "schema": SCHEMA,
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: {
                    "boundaries": list(h.boundaries),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: dict | None) -> None:
        """Fold a snapshot (e.g. a pool worker's) into this registry.

        Counters and histogram buckets add; gauges keep the maximum;
        a histogram arriving with unknown boundaries is adopted as-is,
        one with mismatched boundaries is an error (fixed boundaries
        are the determinism contract).
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, float(value)))
        for name, data in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, tuple(data["boundaries"]))
            if len(hist.counts) != len(data["counts"]):
                raise ValueError(
                    f"histogram {name!r} snapshot has "
                    f"{len(data['counts'])} buckets, registry has "
                    f"{len(hist.counts)}")
            for i, count in enumerate(data["counts"]):
                hist.counts[i] += int(count)
            hist.sum += float(data["sum"])
            hist.count += int(data["count"])

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # ----------------------------------------------------------- export

    def write(self, path: str | Path, extra: dict | None = None) -> Path:
        """Write the snapshot (plus optional extra keys) as JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = self.snapshot()
        if extra:
            doc.update(extra)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path


#: The process-wide registry.  Pool workers get their own copy of this
#: module (fresh process) and ship per-job deltas back for merging, so
#: the parent's registry accumulates the whole suite.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (engine, guards, and chaos feed it)."""
    return _REGISTRY


def reset_registry() -> None:
    """Drop every metric in the process-wide registry (tests)."""
    _REGISTRY.clear()
