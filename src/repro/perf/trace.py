"""Structured span tracing with Chrome trace-event export.

A :class:`SpanTracer` records a tree of named, timed spans for one
engine batch: schedule, per-job queue-wait, worker execute (with its
warmup / run / serialize phases), cache store / hit / quarantine, and
retry / backoff / requeue rounds.  The result exports as Chrome
trace-event JSON (:func:`write_chrome_trace`) loadable in
``chrome://tracing`` or `Perfetto <https://ui.perfetto.dev>`_, and the
span IDs cross-link into the obs run manifests (a ``trace`` record in
the JSONL stream names the span that produced the run).

Two clock domains feed one timeline:

* the tracer's own spans use :func:`repro.perf.clock.perf_now`
  (monotonic, parent process only), rebased to the tracer's creation;
* pool workers stamp their phases with
  :func:`repro.perf.clock.epoch_now` (comparable across processes);
  :meth:`SpanTracer.add_epoch` rebases those onto the same timeline.

Span **identity is deterministic**: IDs are sequential in recording
order, and the engine records spans in job-submission order, so two
identical warm-cache runs produce *structurally identical* span trees
(:meth:`SpanTracer.structure` — names, categories, parentage, and
stable args, with timestamps and host pids masked out).  The
regression tests and the ``--trace-out`` accounting check
(:meth:`SpanTracer.accounting` versus the engine's
:class:`~repro.robust.report.RunReport`) both lean on this.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.perf.clock import epoch_now, perf_now

#: Trace document schema (the ``otherData.schema`` key of the export).
SCHEMA = "repro-trace/1"

#: Chrome trace-event lane for parent-process (engine) spans.
ENGINE_PID = 0


@dataclass
class Span:
    """One completed span on the tracer's timeline."""

    id: int
    name: str
    cat: str
    start: float            # seconds since tracer creation
    end: float
    parent: int | None = None
    pid: int = ENGINE_PID   # trace lane (0 = engine, worker pid otherwise)
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTracer:
    """Collects one span tree; cheap enough to always pass around.

    Engine code guards every recording site with ``if tracer is not
    None`` — an untraced run allocates nothing, mirroring the machine's
    event-bus contract.
    """

    def __init__(self) -> None:
        self._t0 = perf_now()
        self._epoch0 = epoch_now()
        self.spans: list[Span] = []
        self._next_id = 1
        self._open: dict[int, Span] = {}
        self._stack: list[int] = []

    # ------------------------------------------------------------ clocks

    def now(self) -> float:
        """Current time on the tracer's own timeline (seconds)."""
        return perf_now() - self._t0

    def rel_epoch(self, t: float) -> float:
        """Rebase a raw :func:`epoch_now` timestamp onto the timeline."""
        return t - self._epoch0

    # --------------------------------------------------------- recording

    def begin(self, name: str, cat: str = "engine",
              parent: int | None = None, **args) -> int:
        """Open a span; returns its id.  Opened spans nest: a span
        begun while another is open becomes its child unless ``parent``
        is given explicitly."""
        span = Span(id=self._next_id, name=name, cat=cat,
                    start=self.now(), end=0.0,
                    parent=(parent if parent is not None
                            else (self._stack[-1] if self._stack else None)),
                    args=dict(args))
        self._next_id += 1
        self._open[span.id] = span
        self._stack.append(span.id)
        return span.id

    def end(self, span_id: int, **args) -> Span:
        """Close an open span (extra args merge into the span's)."""
        span = self._open.pop(span_id)
        span.end = self.now()
        if args:
            span.args.update(args)
        if self._stack and self._stack[-1] == span_id:
            self._stack.pop()
        else:           # out-of-order close: drop it wherever it sits
            self._stack = [s for s in self._stack if s != span_id]
        self.spans.append(span)
        return span

    def span(self, name: str, cat: str = "engine", **args):
        """Context manager: ``with tracer.span("schedule"): ...``"""
        return _SpanContext(self, name, cat, args)

    def add_epoch(self, name: str, cat: str, start: float, end: float,
                  parent: int | None = None, pid: int = ENGINE_PID,
                  **args) -> int:
        """Record a completed span from raw :func:`epoch_now` stamps
        (the pool-worker clock domain)."""
        return self._add(name, cat, self.rel_epoch(start),
                         self.rel_epoch(end), parent, pid, args)

    def add_rel(self, name: str, cat: str, start: float, end: float,
                parent: int | None = None, pid: int = ENGINE_PID,
                **args) -> int:
        """Record a completed span from timeline-relative stamps
        (pairs of :meth:`now` values)."""
        return self._add(name, cat, start, end, parent, pid, args)

    def instant(self, name: str, cat: str = "engine",
                parent: int | None = None, **args) -> int:
        """Record a zero-duration marker span (e.g. a quarantine)."""
        now = self.now()
        return self._add(name, cat, now, now, parent, ENGINE_PID, args)

    def _add(self, name: str, cat: str, start: float, end: float,
             parent: int | None, pid: int, args: dict) -> int:
        parent = (parent if parent is not None
                  else (self._stack[-1] if self._stack else None))
        span = Span(id=self._next_id, name=name, cat=cat, start=start,
                    end=max(end, start), parent=parent, pid=pid,
                    args=dict(args))
        self._next_id += 1
        self.spans.append(span)
        return span.id

    # ----------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def of_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def accounting(self) -> dict[str, int]:
        """Span count per name — the engine's job/attempt accounting
        cross-check: ``execute`` spans must equal total attempts,
        ``cache.hit`` spans the cache-tier outcomes, and so on."""
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def structure(self) -> list[dict]:
        """The span tree with every volatile field masked: names,
        categories, parent links, and stable args only — what two
        identical warm-cache runs must agree on exactly."""
        ordered = sorted(self.spans, key=lambda s: s.id)
        return [{
            "name": s.name,
            "cat": s.cat,
            "parent": s.parent,
            "args": {k: v for k, v in sorted(s.args.items())
                     if k not in _VOLATILE_ARGS},
        } for s in ordered]


#: Span args that legitimately differ between identical runs (timings,
#: host identifiers) and are excluded from :meth:`SpanTracer.structure`.
_VOLATILE_ARGS = frozenset({"seconds", "wall_seconds", "pid", "delay"})


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_cat", "_args", "_id")

    def __init__(self, tracer: SpanTracer, name: str, cat: str,
                 args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> int:
        self._id = self._tracer.begin(self._name, self._cat, **self._args)
        return self._id

    def __exit__(self, *exc) -> None:
        self._tracer.end(self._id)


# ------------------------------------------------------------------ export

def chrome_trace_events(tracer: SpanTracer) -> list[dict]:
    """The tracer's spans as Chrome trace-event objects (``ph: "X"``
    complete events, microsecond timestamps), plus process-name
    metadata so Perfetto labels the engine and worker lanes."""
    events: list[dict] = []
    pids = sorted({s.pid for s in tracer.spans})
    for pid in pids:
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": ("engine" if pid == ENGINE_PID
                              else f"worker-{pid}")},
        })
    for span in sorted(tracer.spans, key=lambda s: (s.start, s.id)):
        args = dict(span.args)
        args["span_id"] = span.id
        if span.parent is not None:
            args["parent_id"] = span.parent
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.cat,
            "ts": round(span.start * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": span.pid,
            "tid": 0,
            "args": args,
        })
    return events


def write_chrome_trace(path: str | Path, tracer: SpanTracer,
                       metadata: dict | None = None) -> Path:
    """Write the span tree as a Chrome trace JSON file.

    Load the result in ``chrome://tracing`` or https://ui.perfetto.dev
    — no screenshots needed: every span carries its ``span_id`` /
    ``parent_id`` in its args for cross-referencing with the obs
    manifests.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"schema": SCHEMA, **(metadata or {})},
    }
    path.write_text(json.dumps(doc, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def read_chrome_trace(path: str | Path) -> dict:
    """Load a trace written by :func:`write_chrome_trace`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
