"""Span tracer tests: recording semantics, Chrome export, and the two
contracts the engine leans on — deterministic trace *structure* across
identical warm-cache runs, and span counts that match the engine's own
job/attempt accounting exactly.
"""

from __future__ import annotations

import pytest

from repro.core.config import BASELINE
from repro.exec.context import RunContext
from repro.exec.engine import RunEngine
from repro.exec.jobs import Job
from repro.obs.export import read_jsonl
from repro.perf.clock import epoch_now
from repro.perf.trace import (
    ENGINE_PID,
    SCHEMA,
    SpanTracer,
    read_chrome_trace,
    write_chrome_trace,
)


def small_jobs() -> list[Job]:
    return [Job(workload="g721-encode", config=BASELINE, scale=1),
            Job(workload="compress", config=BASELINE, scale=1)]


class TestSpanRecording:
    def test_begin_end_nest_on_the_stack(self):
        tracer = SpanTracer()
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        tracer.end(inner)
        tracer.end(outer)
        spans = {s.name: s for s in tracer.spans}
        assert spans["inner"].parent == outer
        assert spans["outer"].parent is None
        assert spans["inner"].end >= spans["inner"].start

    def test_out_of_order_close_keeps_both_spans(self):
        tracer = SpanTracer()
        a = tracer.begin("a")
        b = tracer.begin("b")
        tracer.end(a)          # closes under b — tolerated, not fatal
        tracer.end(b)
        assert sorted(s.name for s in tracer.spans) == ["a", "b"]

    def test_ids_are_sequential_in_recording_order(self):
        tracer = SpanTracer()
        with tracer.span("one"):
            pass
        tracer.instant("two")
        tracer.add_rel("three", "cat", 0.0, 0.1)
        assert [s.id for s in sorted(tracer.spans,
                                     key=lambda s: s.id)] == [1, 2, 3]

    def test_add_epoch_rebases_worker_stamps(self):
        tracer = SpanTracer()
        t0 = epoch_now()
        tracer.add_epoch("w", "attempt", t0, t0 + 0.5, pid=1234)
        span = tracer.spans[0]
        assert span.duration == pytest.approx(0.5)
        assert span.pid == 1234
        assert span.start == pytest.approx(tracer.rel_epoch(t0))

    def test_end_before_start_is_clamped(self):
        tracer = SpanTracer()
        tracer.add_rel("clock-skew", "cat", 1.0, 0.9)
        assert tracer.spans[0].duration == 0.0

    def test_accounting_counts_by_name(self):
        tracer = SpanTracer()
        tracer.instant("x")
        tracer.instant("x")
        tracer.instant("y")
        assert tracer.accounting() == {"x": 2, "y": 1}

    def test_structure_masks_volatile_args(self):
        tracer = SpanTracer()
        tracer.instant("s", job="go", pid=77, seconds=1.23)
        (entry,) = tracer.structure()
        assert entry["args"] == {"job": "go"}


class TestChromeExport:
    def test_export_shape_and_roundtrip(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("parent", "engine"):
            tracer.add_epoch("child", "attempt", epoch_now(),
                             epoch_now(), pid=42)
        path = write_chrome_trace(tmp_path / "t.json", tracer,
                                  metadata={"tool": "test"})
        doc = read_chrome_trace(path)
        assert doc["otherData"]["schema"] == SCHEMA
        assert doc["otherData"]["tool"] == "test"
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(xs) == 2
        # One process_name lane per pid: engine + worker-42.
        names = {e["args"]["name"] for e in metas}
        assert names == {"engine", "worker-42"}
        for event in xs:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert "span_id" in event["args"]
        child = next(e for e in xs if e["name"] == "child")
        parent = next(e for e in xs if e["name"] == "parent")
        assert child["args"]["parent_id"] == parent["args"]["span_id"]
        assert child["pid"] == 42
        assert parent["pid"] == ENGINE_PID


class TestEngineTraceContracts:
    def test_execute_spans_equal_total_attempts(self, tmp_path):
        tracer = SpanTracer()
        engine = RunEngine(RunContext(cache_dir=tmp_path / "c", jobs=1),
                           tracer=tracer)
        _, report = engine.run_jobs_report(small_jobs())
        assert report.ok
        acc = tracer.accounting()
        assert acc["execute"] == sum(o.attempts for o in report.outcomes)
        assert acc["cache.store"] == 2
        assert acc["schedule"] == 1
        assert acc["suite.batch"] == 1
        # Every execute span carries its sim phase children.
        assert acc["sim.run"] == acc["execute"]
        assert acc["serialize"] == acc["execute"]

    def test_cache_hit_spans_equal_cache_tier_outcomes(self, tmp_path):
        jobs = small_jobs()
        ctx = RunContext(cache_dir=tmp_path / "c", jobs=1)
        RunEngine(ctx).run_jobs(jobs)          # populate the disk tier
        tracer = SpanTracer()
        _, report = RunEngine(ctx, tracer=tracer).run_jobs_report(jobs)
        acc = tracer.accounting()
        served = sum(1 for o in report.outcomes
                     if o.ok and o.attempts == 0)
        assert acc["cache.hit"] == served == 2
        assert "execute" not in acc

    def test_warm_runs_are_structurally_identical(self, tmp_path):
        """The determinism contract: two identical warm-cache runs
        produce the same span tree modulo timestamps."""
        jobs = small_jobs()
        ctx = RunContext(cache_dir=tmp_path / "c", jobs=1)
        RunEngine(ctx).run_jobs(jobs)
        structures = []
        for _ in range(2):
            tracer = SpanTracer()
            RunEngine(ctx, tracer=tracer).run_jobs_report(jobs)
            structures.append(tracer.structure())
        assert structures[0] == structures[1]
        assert structures[0]          # and they are not trivially empty

    def test_failed_attempts_each_record_an_execute_span(self, tmp_path):
        tracer = SpanTracer()
        ctx = RunContext(cache_dir=None, jobs=1, retries=1,
                         faults=(("g721-encode", "crash"),))
        engine = RunEngine(ctx, tracer=tracer)
        _, report = engine.run_jobs_report(
            [Job(workload="g721-encode", config=BASELINE, scale=1)])
        (outcome,) = report.outcomes
        assert not outcome.ok
        assert outcome.attempts == 2          # first try + 1 retry
        acc = tracer.accounting()
        assert acc["execute"] == 2
        outcomes = [s.args["outcome"] for s in tracer.of_name("execute")]
        assert outcomes == ["error", "error"]

    def test_manifest_cross_links_span_id(self, tmp_path):
        tracer = SpanTracer()
        ctx = RunContext(cache_dir=tmp_path / "c",
                         obs_dir=tmp_path / "obs", jobs=1)
        engine = RunEngine(ctx, tracer=tracer)
        job = Job(workload="g721-encode", config=BASELINE, scale=1)
        engine.run_jobs([job])
        (jsonl,) = (tmp_path / "obs").glob("*.jsonl")
        records = [r for r in read_jsonl(jsonl) if r["record"] == "trace"]
        assert len(records) == 1
        execute_ids = {s.id for s in tracer.of_name("execute")}
        assert records[0]["span_id"] in execute_ids

    def test_untraced_engine_records_nothing(self, tmp_path):
        engine = RunEngine(RunContext(cache_dir=tmp_path / "c", jobs=1))
        _, report = engine.run_jobs_report(small_jobs())
        assert report.ok
        assert engine.tracer is None
        for outcome in report.outcomes:
            assert outcome.wall_seconds is not None
            assert outcome.wall_seconds >= 0
