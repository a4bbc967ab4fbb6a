"""The traced run: timing wrappers around each layer's public calls.

:class:`Tracer` replaces a fixed list of public functions and methods
(:data:`TARGETS`) with wrappers that record one span per call — name,
start, end, the span that caused it, the process and thread — and puts
every original back on exit.  Nothing in ``src/`` changes: the spans
are recorded from the benchmark's side of each call.  The untraced run
never constructs a :class:`Tracer`, so it runs the program unpatched.

A module-level function is often imported by name into other modules
(``from repro.exec.serialize import result_to_dict``); installing a
wrapper therefore rebinds *every* module attribute that holds the
original, and uninstalling restores exactly those bindings.

Worker processes forked while the wrappers are installed (the
``repro-experiments`` process pool) inherit them; their spans are
appended to ``spans-<pid>.jsonl`` files in the tracer's spool directory
as they happen, and :meth:`Tracer.collect` merges them.

The spans are exported in the repository's Chrome-trace format
(:func:`repro.perf.trace.write_chrome_trace`), and summarized as a
per-span-name self-time table and as the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Marks wrapper functions, so tests can prove none survive uninstall.
WRAPPER_FLAG = "__perfbench_wrapper__"


def _run_counts(args, result) -> dict:
    stats = result.stats
    doc = {"committed": stats.committed, "cycles": stats.cycles,
           "fetched": stats.fetched}
    memo_stats = getattr(args[0], "memo_stats", None)
    if memo_stats is not None:
        doc["replayed"] = memo_stats()["replayed_insts"]
    return doc


def _core_counts(args, result) -> dict:
    return {"committed": result.stats.committed,
            "cycles": result.stats.cycles}


def _manifest_counts(args, result) -> dict:
    return {"windows": len(result.get("windows") or ())}


@dataclass(frozen=True)
class Target:
    """One wrapped call site: ``attr`` is ``"func"`` or
    ``"Class.method"`` inside ``module``; ``measure(args, result)``
    returns counts to attach to the span."""

    module: str
    attr: str
    span: str
    measure: Callable | None = None


TARGETS: tuple[Target, ...] = (
    Target("repro.workloads.registry", "Workload.build", "workloads.build"),
    Target("repro.workloads.registry", "resolve_warmup",
           "workloads.warmup_len"),
    Target("repro.fastsim.machine", "FastMachine.__init__", "fastsim.init"),
    Target("repro.fastsim.machine", "FastMachine.fast_forward",
           "fastsim.fast_forward"),
    Target("repro.fastsim.machine", "FastMachine.run", "fastsim.run",
           _run_counts),
    Target("repro.fastsim.replay", "build_result", "fastsim.replay"),
    Target("repro.core.machine", "Machine.__init__", "core.init"),
    Target("repro.core.machine", "Machine.fast_forward", "core.fast_forward"),
    Target("repro.core.machine", "Machine.run", "core.run", _core_counts),
    Target("repro.obs.export", "build_manifest", "obs.manifest",
           _manifest_counts),
    Target("repro.exec.engine", "RunEngine.run_jobs_report", "exec.engine"),
    Target("repro.exec.serialize", "result_to_dict", "exec.serialize"),
    Target("repro.exec.cache", "ResultCache.store", "exec.cache_store"),
    Target("repro.exec.cache", "ResultCache.load", "exec.cache_load"),
    Target("repro.exec.shards", "ShardedResultCache.store",
           "service.cas_store"),
    Target("repro.exec.shards", "ShardedResultCache.load_by_fingerprint",
           "service.cas_load"),
    Target("repro.analysis.dataflow", "analyze", "analysis.analyze"),
    Target("repro.analysis.linter", "lint_program", "analysis.lint"),
    Target("repro.service.journal", "SweepJournal.append",
           "service.journal_append"),
    Target("repro.service.service", "canonical_result_bytes",
           "service.canonical_bytes"),
)

#: Experiment renderers are per-instance callables, wrapped separately.
RENDER_SPAN = "experiments.render"

#: Modules imported before installing, because they bind targets by
#: name (the experiment modules load through the registry).
PRELOAD = ("repro.exec.engine", "repro.fastsim.machine",
           "repro.service.service", "repro.service.http",
           "repro.experiments.runner")


class Tracer:
    """Install the wrappers, record spans, restore the originals.

    Use as a context manager (``with Tracer() as tracer: ...``).
    ``spool_dir`` is where forked children append their spans.
    """

    def __init__(self, spool_dir: str | Path | None = None) -> None:
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.spans: list[dict] = []
        #: the process that created the tracer keeps its spans in memory
        self._owner = os.getpid()
        #: the process whose call stack ``_local`` currently tracks
        self._pid = self._owner
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: (owner, attribute name, original) for every rebinding made.
        self._undo: list[tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original)
        self._originals: dict[int, tuple[Callable, Callable]] = {}

    # ------------------------------------------------------- install/undo

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        # Import every module that binds a target by name first, so no
        # module imported later captures a wrapper the undo list misses.
        for module in PRELOAD:
            importlib.import_module(module)
        try:
            for target in TARGETS:
                self._install_target(target)
            self._install_renders()
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put back every original, newest rebinding first; then rebind
        any module attribute that still holds one of this tracer's
        wrappers (a module imported while the wrappers were live)."""
        while self._undo:
            owner, name, original = self._undo.pop()
            if isinstance(owner, type):
                setattr(owner, name, original)
            else:   # modules, and frozen Experiment instances
                object.__setattr__(owner, name, original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            for name, value in list((namespace or {}).items()):
                original = self._originals.get(id(value))
                if original is not None and original[0] is value:
                    setattr(module, name, original[1])
        self._originals.clear()

    def _install_target(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        if "." in target.attr:
            class_name, method = target.attr.split(".")
            cls = getattr(module, class_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(original, target))
            return
        original = getattr(module, target.attr)
        wrapper = self._wrap(original, target)
        # Every module that imported the function by name holds its own
        # binding; rebind them all (and only them).
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._undo.append((loaded, name, original))
                    setattr(loaded, name, wrapper)

    def _install_renders(self) -> None:
        from repro.experiments.registry import all_experiments
        target = Target("repro.experiments.registry", "Experiment.render",
                        RENDER_SPAN)
        for experiment in all_experiments().values():
            original = experiment.render
            self._undo.append((experiment, "render", original))
            object.__setattr__(experiment, "render",
                               self._wrap(original, target, name=
                                          experiment.name))

    def _wrap(self, fn: Callable, target: Target,
              name: str | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(target, fn, args, kwargs, name)

        setattr(traced, WRAPPER_FLAG, True)
        self._originals[id(traced)] = (traced, fn)
        return traced

    # ---------------------------------------------------------- recording

    def _call(self, target: Target, fn: Callable, args, kwargs,
              label: str | None):
        pid = os.getpid()
        if pid != self._pid:
            # First call in a forked child: the parent's open spans are
            # not this process's call stack.
            self._pid = pid
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = pid * 10_000_000 + next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        ok = False
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            span_args = {}
            if label is not None:
                span_args["experiment"] = label
            if ok and target.measure is not None:
                span_args.update(target.measure(args, result))
            if not ok:
                span_args["error"] = True
            self._record({"id": span_id, "name": target.span,
                          "start": start, "end": end, "parent": parent,
                          "pid": pid, "tid": threading.get_ident(),
                          "args": span_args})

    def _record(self, span: dict) -> None:
        if span["pid"] != self._owner and self.spool_dir is not None:
            path = self.spool_dir / f"spans-{span['pid']}.jsonl"
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(span) + "\n")
            return
        with self._lock:
            self.spans.append(span)

    # ------------------------------------------------------------ results

    def collect(self) -> list[dict]:
        """This process's spans plus every spooled child span."""
        spans = list(self.spans)
        if self.spool_dir is not None and self.spool_dir.is_dir():
            spans.extend(read_spool(self.spool_dir))
        return spans


def estimated_overhead(spans: list[dict], calls: int = 20_000) -> float:
    """Seconds the wrappers added to a traced run, estimated as the
    span count times one wrapper's cost on a no-op call (measured here).
    Steadier than traced-minus-untraced wall time on a noisy host."""
    def noop():
        return None

    tracer = Tracer(spool_dir=None)
    wrapped = tracer._wrap(noop, Target("", "", "noop"))
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    return len(spans) * max(0.0, traced - plain) / calls


def read_spool(directory: Path) -> list[dict]:
    spans = []
    for path in sorted(directory.glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                spans.append(json.loads(line))
    return spans


def wrappers_left() -> list[str]:
    """Every module or class attribute still bound to a wrapper
    (``[]`` after a clean uninstall)."""
    found = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for name, value in list(namespace.items()):
            if getattr(value, WRAPPER_FLAG, False):
                found.append(f"{module.__name__}.{name}")
            elif isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if getattr(member, WRAPPER_FLAG, False):
                        found.append(f"{module.__name__}.{name}.{attr}")
    try:
        from repro.experiments.registry import all_experiments
    except ImportError:
        return found
    for experiment in all_experiments().values():
        if getattr(experiment.render, WRAPPER_FLAG, False):
            found.append(f"experiment {experiment.name}.render")
    return found


# ------------------------------------------------------------- analysis

def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total (inclusive) seconds, and self seconds
    — the span's duration minus the part of it its child spans cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    table: dict[str, dict] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        covered = _covered(span, children.get(span["id"], ()))
        row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += max(0.0, duration - covered)
    return table


def _covered(parent: dict, kids) -> float:
    """Length of the union of the children's intervals, clipped to the
    parent's."""
    intervals = sorted((max(k["start"], parent["start"]),
                        min(k["end"], parent["end"])) for k in kids)
    covered = 0.0
    cursor = parent["start"]
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def format_self_times(table: dict[str, dict], wall_s: float) -> str:
    """The self-time table, largest self time first."""
    lines = [f"{'span':28s} {'calls':>7s} {'total s':>10s} "
             f"{'self s':>10s} {'self % of wall':>15s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(f"{name:28s} {row['calls']:7d} {row['total_s']:10.4f} "
                     f"{row['self_s']:10.4f} {share:14.1f}%")
    return "\n".join(lines)


def _sum(spans: list[dict], name: str, field: str | None = None) -> float:
    if field is None:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)
    return sum(s["args"].get(field, 0) for s in spans if s["name"] == name)


def _has(spans: list[dict], name: str) -> bool:
    return any(s["name"] == name for s in spans)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics the recorded spans support (a layer the
    run never entered is absent, not zero)."""
    metrics: dict[str, float] = {}
    simple = (("workloads.build", "workloads.build_s"),
              ("workloads.warmup_len", "workloads.warmup_len_s"),
              ("fastsim.init", "fastsim.init_s"),
              ("fastsim.fast_forward", "fastsim.fast_forward_s"),
              ("fastsim.replay", "fastsim.replay_s"),
              ("core.fast_forward", "core.fast_forward_s"),
              ("core.run", "core.run_s"),
              ("obs.manifest", "obs.manifest_s"),
              ("exec.serialize", "exec.serialize_s"),
              ("exec.cache_store", "exec.cache_store_s"),
              ("exec.cache_load", "exec.cache_load_s"),
              (RENDER_SPAN, "experiments.render_s"),
              ("service.journal_append", "service.journal_append_s"),
              ("service.cas_store", "service.cas_store_s"),
              ("service.cas_load", "service.cas_load_s"),
              ("service.canonical_bytes", "service.canonical_bytes_s"))
    for span_name, metric in simple:
        if _has(spans, span_name):
            metrics[metric] = _sum(spans, span_name)
    if _has(spans, "fastsim.run"):
        loop = _sum(spans, "fastsim.run") - _sum(spans, "fastsim.replay")
        committed = _sum(spans, "fastsim.run", "committed")
        fetched = _sum(spans, "fastsim.run", "fetched")
        metrics["fastsim.loop_s"] = loop
        metrics["fastsim.loop_insts_per_s"] = (committed / loop
                                               if loop > 0 else 0.0)
        metrics["fastsim.memo_hit_rate"] = (
            _sum(spans, "fastsim.run", "replayed") / fetched
            if fetched else 0.0)
        metrics["fastsim.committed"] = committed
        metrics["fastsim.cycles"] = _sum(spans, "fastsim.run", "cycles")
    if _has(spans, "core.run"):
        run_s = _sum(spans, "core.run")
        metrics["core.insts_per_s"] = (
            _sum(spans, "core.run", "committed") / run_s if run_s else 0.0)
    if _has(spans, "obs.manifest"):
        metrics["obs.sampler_windows"] = _sum(spans, "obs.manifest",
                                              "windows")
    if _has(spans, RENDER_SPAN):
        # The lint report's analysis; the fast backend's memo planning
        # also calls ``analyze`` (inside fastsim.init), which is not lint.
        metrics["analysis.lint_s"] = sum(
            s["end"] - s["start"] for s in _under(spans, RENDER_SPAN)
            if s["name"] in ("analysis.analyze", "analysis.lint"))
    return metrics


def _under(spans: list[dict], ancestor: str) -> list[dict]:
    """Spans with a span named ``ancestor`` somewhere above them."""
    by_id = {span["id"]: span for span in spans}
    found = []
    for span in spans:
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != ancestor:
            parent = by_id.get(parent["parent"])
        if parent is not None:
            found.append(span)
    return found


#: The per-layer metrics every workload's traced run reports (the
#: ``per_layer`` list of ``BENCHMARK.json``).  Layers only some
#: workloads reach (core, obs, cache, render, lint, service) are printed
#: in that workload's ledger and result document, and so are
#: ``fastsim.committed`` and ``fastsim.cycles``: simulated counts that
#: must repeat exactly, not figures an optimization should move.
CONTRACT_PER_LAYER: tuple[tuple[str, str], ...] = (
    ("workloads.build_s", "s"),
    ("workloads.warmup_len_s", "s"),
    ("fastsim.init_s", "s"),
    ("fastsim.fast_forward_s", "s"),
    ("fastsim.loop_s", "s"),
    ("fastsim.replay_s", "s"),
    ("fastsim.loop_insts_per_s", "1/s"),
    ("fastsim.memo_hit_rate", "ratio"),
    ("exec.serialize_s", "s"),
)


def write_trace(path: Path, spans: list[dict], metadata: dict) -> Path:
    """Export spans through :func:`repro.perf.trace.write_chrome_trace`
    (span ids renumbered in start order; lanes are host pids)."""
    from repro.perf.trace import Span, SpanTracer, write_chrome_trace

    ordered = sorted(spans, key=lambda s: (s["start"], s["id"]))
    t0 = ordered[0]["start"] if ordered else 0.0
    ids = {span["id"]: index for index, span in enumerate(ordered, 1)}
    tracer = SpanTracer()
    tracer.spans = [Span(id=ids[s["id"]], name=s["name"],
                         cat=s["name"].split(".")[0],
                         start=s["start"] - t0, end=s["end"] - t0,
                         parent=ids.get(s["parent"]), pid=s["pid"],
                         args=dict(s["args"]))
                    for s in ordered]
    return write_chrome_trace(path, tracer, metadata=metadata)
