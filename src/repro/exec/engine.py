"""The run engine: schedule simulation jobs, merge results deterministically.

The engine owns the three result tiers and consults them in order:

1. the **in-process memo** (shared by every engine in the process, so
   figure renderers re-requesting a run after the engine pre-ran it pay
   nothing — the old ``experiments.base._CACHE`` behavior);
2. the **persistent on-disk cache** (:class:`~repro.exec.cache.ResultCache`),
   keyed by workload, scale, config fingerprint, and schema version, so
   a warm re-run of the full suite costs milliseconds;
3. **fresh simulation** — in-process when ``ctx.jobs == 1``, fanned out
   over a :class:`~concurrent.futures.ProcessPoolExecutor` otherwise.

Determinism: a pooled round harvests results in completion order, but
the results, cache writes and metrics merge in job-submission order
once the batch is done, and *every* fresh result — serial or pooled —
passes through the same serialize/deserialize round trip the cache
uses, so counters are bit-exact across all three tiers by construction,
whichever worker ran which job.

Placement: the job's program, length count, warmed state and compiled
runs are memoized per process and per ``(workload, scale)``, so a
pooled round keeps one job in flight per worker and hands each freed
worker (named by the pid in its payload) the oldest pending job of a
``(workload, scale)`` it has already simulated, else the oldest one no
other worker holds or is running, else the oldest
(:func:`pick_job`).  The initial fill, and a worker whose job raised,
use the last two rules.  Each dispatch by the first rule counts in
:attr:`EngineStats.jobs_affine`.

Fault tolerance (the robustness layer, :mod:`repro.robust`): each job
gets a per-attempt wall-clock timeout (pooled mode, running from the
job's own dispatch), bounded retries
with deterministic exponential backoff, and the pool is rebuilt — with
only the *lost* jobs requeued — when a child process dies
(``BrokenProcessPool``) or a hung job has to be killed.  Because a
dead child breaks **every** pending future, a pool break charges no
job an attempt; the next round instead runs each pending job in
**isolation** (its own single-worker pool), where any failure —
including killing the pool again — unambiguously belongs to that job.
This keeps retry accounting fair *and* guarantees termination: a job
that reliably kills its pool exhausts its own attempts, not its
neighbors'.  Per-job outcomes land in a
:class:`~repro.robust.report.RunReport`; :meth:`RunEngine.run_jobs`
raises a typed :class:`~repro.robust.report.SuiteFailure` when jobs
ultimately fail, while :meth:`RunEngine.run_jobs_report` returns the
survivors plus the report so callers can degrade gracefully.

Jobs that ultimately failed are remembered for the life of the
process (like the memo, cleared by :func:`clear_memo` or bypassed by
``refresh``): a figure renderer re-requesting a failed job gets an
immediate failed outcome instead of re-simulating — or worse,
crashing — during the render phase.

Observability (the performance layer, :mod:`repro.perf`): pass a
:class:`~repro.perf.trace.SpanTracer` and the engine records one span
tree per batch — schedule, per-job queue-wait, worker execute (with
warmup / run / serialize child phases), cache store / hit /
quarantine, and retry / backoff / requeue rounds — exportable as
Chrome trace JSON and cross-linked (by span id) into the obs run
manifests.  Span accounting is exact by construction: every charged
attempt and every success records exactly one ``execute`` span, every
cache-tier outcome exactly one ``cache.hit`` span.  Independently of
tracing, every worker returns a wall-clock phase breakdown and a
metrics snapshot (:mod:`repro.perf.metrics`) that merge into the
parent's process-wide registry, and :class:`EngineStats` deltas mirror
into ``engine.*`` counters there.  Timing metadata never enters the
result payloads or the disk cache: cached bytes stay a pure function
of (workload, config, scale).

:data:`GLOBAL_STATS` accumulates over every engine in the process; the
CLI's end-of-suite summary and the CI warm-cache check ("zero fresh
simulations") read it.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.machine import Machine, RunResult
from repro.exec.cache import ResultCache
from repro.exec.context import RunContext
from repro.exec.jobs import Job, dedupe
from repro.exec.serialize import result_from_dict, result_to_dict
from repro.obs.export import build_manifest, write_manifest
from repro.obs.sampler import IntervalSampler
from repro.perf.clock import epoch_now, mono_now, perf_now
from repro.perf.metrics import MetricsRegistry, get_registry
from repro.robust.faults import apply_fault
from repro.robust.report import (
    FAILED,
    OK,
    TIMED_OUT,
    JobOutcome,
    RunReport,
    SuiteFailure,
)
from repro.robust.retry import RetryPolicy
from repro.workloads.registry import get_workload, resolve_warmup

if TYPE_CHECKING:   # engine never imports the tracer at runtime
    from repro.perf.trace import SpanTracer

#: Process-wide result memo, shared by all engines (the figure modules'
#: ``run()`` functions hit it after the engine pre-ran their jobs).
_MEMO: dict[tuple, RunResult] = {}

#: Jobs that exhausted their retries this process: key -> (status,
#: error).  Render-phase re-requests short-circuit to a failed outcome
#: instead of re-simulating behind the suite's back.
_FAILED: dict[tuple, tuple[str, str]] = {}


def clear_memo() -> None:
    """Drop every memoized result and failure marker (tests; the disk
    cache is untouched)."""
    _MEMO.clear()
    _FAILED.clear()


@dataclass
class EngineStats:
    """Where results came from, for one engine or process-wide.

    Every delta recorded here also increments the matching
    ``engine.<field>`` counter in the process-wide metrics registry
    (:func:`repro.perf.metrics.get_registry`), so the exported metrics
    snapshot and this summary can never drift apart.
    """

    jobs_requested: int = 0    # jobs passed to run_jobs (pre-dedup)
    jobs_unique: int = 0       # after dedup
    memo_hits: int = 0         # served from the in-process memo
    cache_hits: int = 0        # rehydrated from the on-disk cache
    fresh_runs: int = 0        # actual simulations executed
    cache_stores: int = 0      # entries written to the on-disk cache
    cache_quarantined: int = 0  # corrupt entries moved to quarantine/
    job_retries: int = 0       # extra attempts beyond each job's first
    jobs_timed_out: int = 0    # jobs whose every attempt hit the timeout
    jobs_failed: int = 0       # jobs with no result after all attempts
    jobs_affine: int = 0       # pooled jobs sent to a worker that had
                               # already simulated their (workload, scale)

    _FIELDS = ("jobs_requested", "jobs_unique", "memo_hits", "cache_hits",
               "fresh_runs", "cache_stores", "cache_quarantined",
               "job_retries", "jobs_timed_out", "jobs_failed",
               "jobs_affine")

    def add(self, other: "EngineStats") -> None:
        for name in self._FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def summary(self) -> str:
        text = (f"{self.fresh_runs} fresh, {self.cache_hits} from disk "
                f"cache, {self.memo_hits} memoized "
                f"({self.jobs_unique} unique of "
                f"{self.jobs_requested} requested)")
        extras = []
        if self.cache_quarantined:
            extras.append(f"{self.cache_quarantined} cache "
                          f"entr{'y' if self.cache_quarantined == 1 else 'ies'}"
                          f" quarantined")
        if self.job_retries:
            extras.append(f"{self.job_retries} retries")
        if self.jobs_timed_out:
            extras.append(f"{self.jobs_timed_out} timed out")
        if self.jobs_failed:
            extras.append(f"{self.jobs_failed} failed")
        if self.jobs_affine:
            extras.append(f"{self.jobs_affine} affine dispatch"
                          f"{'' if self.jobs_affine == 1 else 'es'}")
        if extras:
            text += "; " + ", ".join(extras)
        return text


#: Accumulated over every engine in this process.
GLOBAL_STATS = EngineStats()


def _simulate(job: Job, obs: bool, fault: str | None = None,
              backend: str = "reference") -> dict:
    """Execute one job (worker-side): warmup, detailed run, serialize.

    Returns ``{"result": <dict>, "manifest": <dict | None>, "timing":
    <dict>, "metrics": <dict>}`` — plain JSON-safe data, equally happy
    to cross a process boundary or land in the cache.  Only ``result``
    and ``manifest`` are ever cached; ``timing`` (epoch stamps of the
    warmup / run / serialize phases) and ``metrics`` (this worker's
    registry snapshot) describe *this* execution and are consumed by
    the parent's tracer and metrics registry, then dropped.  ``fault``
    is a chaos-harness token (:func:`repro.robust.faults.apply_fault`)
    interpreted before the simulation starts.

    ``backend`` selects the simulator: ``"fast"`` runs the two-phase
    :class:`~repro.fastsim.machine.FastMachine` unless obs
    instrumentation was requested (probes only exist on the reference
    machine, so obs forces the reference path).  The two backends are
    compared by ``repro-equivalence`` (:mod:`repro.fastsim.cli`), not
    here.
    """
    t_start = epoch_now()
    apply_fault(fault)
    workload = get_workload(job.workload)
    warmup = resolve_warmup(workload, job.scale)
    machine_cls = Machine
    if backend == "fast" and not obs:
        from repro.fastsim.machine import FastMachine
        machine_cls = FastMachine
    machine = machine_cls(workload.build(job.scale), job.config)
    sampler = None
    if obs:
        sampler = IntervalSampler(window=job.config.obs.sampler_window)
        machine.add_probe(sampler)
        machine.enable_stall_attribution()
    machine.fast_forward(warmup)
    t_run = epoch_now()
    result = machine.run(max_insts=workload.window)
    t_serialize = epoch_now()
    manifest = None
    if sampler is not None:
        sampler.finish(machine)
        manifest = build_manifest(
            result, attribution=machine.attribution, sampler=sampler,
            workload=job.workload, scale=job.scale)
    payload_result = result_to_dict(result)
    t_end = epoch_now()

    registry = MetricsRegistry()
    registry.counter("sim.runs").inc()
    registry.counter("sim.cycles").inc(result.stats.cycles)
    registry.counter("sim.committed").inc(result.stats.committed)
    registry.histogram("sim.warmup_seconds").observe(t_run - t_start)
    registry.histogram("sim.run_seconds").observe(t_serialize - t_run)
    registry.histogram("sim.serialize_seconds").observe(t_end - t_serialize)
    return {
        "result": payload_result,
        "manifest": manifest,
        "timing": {"pid": os.getpid(), "start": t_start, "run": t_run,
                   "serialize": t_serialize, "end": t_end},
        "metrics": registry.snapshot(),
    }


def kill_pool(pool: ProcessPoolExecutor) -> None:
    """Put a pool down hard: terminate children (the only way to
    reclaim a wedged worker), then shut down without waiting."""
    processes = getattr(pool, "_processes", None)
    if processes:
        for process in list(processes.values()):
            process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def _affinity(job: Job) -> tuple[str, int]:
    """What a worker's per-process memos hold for a job: its program,
    length count, warmed state and compiled runs are all per
    ``(workload, scale)``."""
    return job.workload, job.scale


def pick_job(pending: Sequence[Job], holds: Mapping[int, set],
             running: Iterable[Job], pid: int | None) -> tuple[int, int]:
    """The fan-out dispatch rule: which pending job a freed worker gets.

    ``pending`` is oldest first; ``holds`` maps each worker pid seen
    this round to the ``(workload, scale)`` pairs it has simulated;
    ``running`` is the jobs in flight; ``pid`` is the freed worker, or
    ``None`` when it is unknown (the initial fill, or its job raised).
    Returns ``(index into pending, rule)``, by the first rule that
    matches:

    1. the oldest job whose ``(workload, scale)`` the worker holds, so
       its memos serve the job;
    2. the oldest job whose ``(workload, scale)`` no other worker holds
       and no running job shares, so the workloads spread over the
       workers;
    3. the oldest job.
    """
    mine = holds.get(pid, ())
    for index, job in enumerate(pending):
        if _affinity(job) in mine:
            return index, 1
    taken = {_affinity(job) for job in running}
    for other, held in holds.items():
        if other != pid:
            taken |= held
    for index, job in enumerate(pending):
        if _affinity(job) not in taken:
            return index, 2
    return 0, 3


class _Attempts:
    """Per-job attempt ledger for one batch of fresh jobs."""

    def __init__(self, jobs: list[Job], policy: RetryPolicy) -> None:
        self.policy = policy
        self.count: dict[tuple, int] = {job.key: 0 for job in jobs}
        self.wall: dict[tuple, float] = {job.key: 0.0 for job in jobs}
        self.last_error: dict[tuple, str] = {}
        self.last_status: dict[tuple, str] = {}

    def charge(self, job: Job, status: str, error: str,
               wall: float = 0.0) -> None:
        self.count[job.key] += 1
        self.wall[job.key] += wall
        self.last_status[job.key] = status
        self.last_error[job.key] = error

    def add_wall(self, job: Job, wall: float) -> None:
        self.wall[job.key] += wall

    def exhausted(self, job: Job) -> bool:
        return self.count[job.key] >= self.policy.max_attempts

    def outcome(self, job: Job, status: str | None = None) -> JobOutcome:
        """Terminal outcome for a job (success if ``status`` is OK)."""
        if status == OK:
            return JobOutcome(job, status=OK,
                              attempts=self.count[job.key] + 1,
                              wall_seconds=self.wall[job.key])
        return JobOutcome(job,
                          status=self.last_status.get(job.key, FAILED),
                          attempts=self.count[job.key],
                          error=self.last_error.get(job.key),
                          wall_seconds=self.wall[job.key])


class RunEngine:
    """Runs batches of jobs under one :class:`RunContext`.

    ``tracer`` (optional, a :class:`~repro.perf.trace.SpanTracer`)
    turns on span recording for every batch this engine runs; with
    ``None`` (the default) no recording site allocates anything.
    """

    def __init__(self, ctx: RunContext | None = None,
                 tracer: "SpanTracer | None" = None) -> None:
        self.ctx = ctx or RunContext()
        self.stats = EngineStats()
        self.tracer = tracer
        #: job key -> span id of the span that produced its result
        #: (execute or cache.hit), for manifest cross-linking.
        self._span_of: dict[tuple, int] = {}
        if self.ctx.cache_dir is None:
            self._cache = None
        elif self.ctx.cache_layout == "cas":
            from repro.exec.shards import ShardedResultCache
            self._cache = ShardedResultCache(
                self.ctx.cache_dir, on_quarantine=self._on_quarantine)
        else:
            self._cache = ResultCache(self.ctx.cache_dir,
                                      on_quarantine=self._on_quarantine)

    def _on_quarantine(self, path, reason: str) -> None:
        self._bump(cache_quarantined=1)
        if self.tracer is not None:
            self.tracer.instant("cache.quarantine", "cache",
                                entry=path.name, reason=reason)

    # ------------------------------------------------------------------ API

    def run_jobs(self, jobs: list[Job]) -> dict[tuple, RunResult]:
        """Run (or recall) every job; returns results keyed by
        :attr:`Job.key`.  Duplicate jobs are executed once.

        Raises :class:`~repro.robust.report.SuiteFailure` (carrying the
        full :class:`~repro.robust.report.RunReport`) if any job is
        still failing after retries; callers that can render partial
        results should use :meth:`run_jobs_report` instead.
        """
        results, report = self.run_jobs_report(jobs)
        if not report.ok:
            raise SuiteFailure(report)
        return results

    def run_jobs_report(
            self, jobs: list[Job],
    ) -> tuple[dict[tuple, RunResult], RunReport]:
        """Like :meth:`run_jobs`, but degrade instead of raising:
        returns the surviving results plus the per-job report."""
        unique = dedupe(jobs)
        self._bump(jobs_requested=len(jobs), jobs_unique=len(unique))
        tracer = self.tracer
        batch = (tracer.begin("suite.batch", "engine",
                              jobs_requested=len(jobs),
                              jobs_unique=len(unique))
                 if tracer is not None else None)

        report = RunReport()
        results: dict[tuple, RunResult] = {}
        fresh: list[Job] = []
        schedule = (tracer.begin("schedule", "engine")
                    if tracer is not None else None)
        for job in unique:
            if job.key in _FAILED and not self.ctx.refresh:
                status, error = _FAILED[job.key]
                report.add(JobOutcome(job, status=status, attempts=0,
                                      error=f"(failed earlier this "
                                            f"process) {error}"))
                continue
            t0 = perf_now()
            result, source = self._recall(job)
            if result is not None:
                results[job.key] = result
                report.add(JobOutcome(job, status=OK, attempts=0,
                                      source=source,
                                      wall_seconds=perf_now() - t0))
            else:
                fresh.append(job)
        if schedule is not None:
            tracer.end(schedule, fresh=len(fresh))

        payloads = self._execute(fresh, report)
        for job in fresh:
            payload = payloads.get(job.key)
            if payload is not None:
                results[job.key] = self._absorb(job, payload)
        if batch is not None:
            tracer.end(batch)
        return results, report

    def run(self, job: Job) -> RunResult:
        """Convenience single-job entry point."""
        return self.run_jobs([job])[job.key]

    # ------------------------------------------------------------- recall

    def _recall(self, job: Job) -> tuple[RunResult | None, str]:
        """Serve a job from the memo or the disk cache, if allowed;
        returns ``(result, tier)``."""
        ctx = self.ctx
        tracer = self.tracer
        if not ctx.use_cache or ctx.refresh:
            return None, "fresh"
        result = _MEMO.get(job.key)
        if result is not None:
            self._bump(memo_hits=1)
            if tracer is not None:
                self._span_of[job.key] = tracer.instant(
                    "cache.hit", "cache", job=job.stem(), tier="memo")
            return result, "memo"
        if self._cache is None:
            return None, "fresh"
        t0 = tracer.now() if tracer is not None else 0.0
        entry = self._cache.load(job)
        if entry is None:
            return None, "fresh"
        if ctx.wants_obs and entry.get("manifest") is None:
            # Obs artifacts were requested but this entry was produced
            # without instrumentation: only a fresh run can supply them.
            return None, "fresh"
        result = result_from_dict(entry["result"], config=job.config)
        self._bump(cache_hits=1)
        _MEMO[job.key] = result
        span = None
        if tracer is not None:
            span = tracer.add_rel("cache.hit", "cache", t0, tracer.now(),
                                  job=job.stem(), tier="disk")
            self._span_of[job.key] = span
        if ctx.wants_obs:
            manifest = entry["manifest"]
            if span is not None:
                manifest = {**manifest, "trace": {"span_id": span}}
            write_manifest(ctx.obs_dir, manifest, stem=job.stem())
        return result, "cache"

    # ------------------------------------------------------------ execute

    def _execute(self, fresh: list[Job],
                 report: RunReport) -> dict[tuple, dict]:
        """Simulate every job in ``fresh`` with retries; returns the
        payloads of the survivors and records every outcome."""
        if not fresh:
            return {}
        policy = RetryPolicy(retries=self.ctx.retries,
                             backoff=self.ctx.backoff)
        attempts = _Attempts(fresh, policy)
        if self.ctx.jobs == 1:
            payloads = self._execute_serial(fresh, attempts, report)
        else:
            payloads = self._execute_pooled(fresh, attempts, report)
        for job in fresh:
            outcome = report.outcome_of(job)
            if outcome is not None and not outcome.ok:
                _FAILED[job.key] = (outcome.status, outcome.error or "")
                if outcome.status == TIMED_OUT:
                    self._bump(jobs_timed_out=1)
                else:
                    self._bump(jobs_failed=1)
        return payloads

    def _execute_serial(self, fresh: list[Job], attempts: _Attempts,
                        report: RunReport) -> dict[tuple, dict]:
        """In-process execution with retries.  Timeouts cannot be
        enforced here — a hung simulation hangs the process — so
        ``ctx.timeout`` applies only in pooled mode."""
        payloads: dict[tuple, dict] = {}
        for job in fresh:
            while True:
                t0 = epoch_now()
                try:
                    payload = _simulate(job, self.ctx.wants_obs,
                                        self.ctx.fault_for(job.workload),
                                        self.ctx.backend)
                except Exception as err:  # noqa: BLE001 — worker boundary
                    attempts.charge(job, FAILED, f"{type(err).__name__}: "
                                                 f"{err}",
                                    wall=epoch_now() - t0)
                    self._trace_attempt(job, attempts.count[job.key],
                                        "error", submit_epoch=t0)
                    if attempts.exhausted(job):
                        report.add(attempts.outcome(job))
                        break
                    self._backoff(attempts.policy.delay(
                        job.stem(), attempts.count[job.key]))
                    continue
                payloads[job.key] = payload
                self._finish_success(job, payload, attempts, report,
                                     submit_epoch=t0)
                break
        return payloads

    def _execute_pooled(self, fresh: list[Job], attempts: _Attempts,
                        report: RunReport) -> dict[tuple, dict]:
        """Fan-out execution with pool-break recovery.

        Round structure: a **fan-out** round runs the pending jobs on
        one shared pool, placed by :func:`pick_job`; a job is charged
        an attempt only for its *own* worker exception or its own
        expired timeout.  A pool
        break (dead child, or a hung job the engine had to kill the
        pool over) charges nobody for the collateral — the unfinished
        jobs requeue, and the next round runs in **isolation**: each
        pending job alone in a single-worker pool, where every failure
        mode unambiguously belongs to it.  After an isolation round
        the engine returns to fan-out.
        """
        tracer = self.tracer
        payloads: dict[tuple, dict] = {}
        pending = list(fresh)
        isolate_next = False
        round_no = 0
        while pending:
            self._sleep_backoff(pending, attempts)
            round_no += 1
            kind = "round.isolation" if isolate_next else "round.fanout"
            span = (tracer.begin(kind, "engine", round=round_no,
                                 pending=len(pending))
                    if tracer is not None else None)
            if isolate_next:
                pending = self._isolation_round(pending, attempts,
                                                report, payloads)
                isolate_next = False
            else:
                pending, broke = self._fanout_round(pending, attempts,
                                                    report, payloads)
                isolate_next = broke
            if span is not None:
                tracer.end(span, requeued=len(pending))
        return payloads

    def _fanout_round(self, pending: list[Job], attempts: _Attempts,
                      report: RunReport, payloads: dict[tuple, dict],
                      ) -> tuple[list[Job], bool]:
        """One shared-pool round; returns (still pending, pool broke).

        One job is in flight per worker, so the one idle worker takes
        each submission.  Jobs are harvested as they complete, and each
        freed worker, named by the pid its payload carries, gets the
        job :func:`pick_job` chooses.  Each job's timeout runs from its
        own dispatch.
        """
        ctx = self.ctx
        workers = min(ctx.jobs, len(pending))
        pool = ProcessPoolExecutor(max_workers=workers)
        round_start = epoch_now()
        queue = list(pending)
        holds: dict[int, set[tuple[str, int]]] = {}
        # future -> (job, dispatch epoch, dispatch monotonic time)
        running: dict[Future, tuple[Job, float, float]] = {}
        requeue: list[Job] = []
        freed: list[int | None] = [None] * workers
        broke = False
        while not broke:
            for pid in freed:
                if not queue:
                    break
                index, rule = pick_job(
                    queue, holds, [job for job, _, _ in running.values()],
                    pid)
                job = queue[index]
                try:
                    future = pool.submit(_simulate, job, ctx.wants_obs,
                                         ctx.fault_for(job.workload),
                                         ctx.backend)
                except BrokenExecutor:
                    # A child died since the last harvest; its future
                    # will report the break.
                    broke = True
                    break
                del queue[index]
                if rule == 1:
                    self._bump(jobs_affine=1)
                running[future] = (job, epoch_now(), mono_now())
            if broke or not running:
                break
            timeout = None
            if ctx.timeout is not None:
                earliest = min(started for _, _, started in running.values())
                timeout = max(0.0, earliest + ctx.timeout - mono_now())
            wait(running, timeout=timeout, return_when=FIRST_COMPLETED)
            freed = []
            for future in [f for f in running if f.done()]:
                job, dispatched, _ = running.pop(future)
                try:
                    pid = self._harvest(job, future, dispatched,
                                        round_start, attempts, report,
                                        payloads, requeue)
                except (BrokenExecutor, CancelledError) as err:
                    # A child died.  Every unfinished future fails with
                    # this, so the victim cannot be attributed: charge
                    # nobody, requeue everything unfinished, isolate
                    # next round.
                    requeue.append(job)
                    attempts.last_error.setdefault(
                        job.key, f"pool broke: {type(err).__name__}: {err}")
                    broke = True
                    continue
                if pid is not None:
                    holds.setdefault(pid, set()).add(_affinity(job))
                freed.append(pid)
            if broke or ctx.timeout is None:
                continue
            now = mono_now()
            for future, (job, dispatched, started) in list(running.items()):
                if now - started >= ctx.timeout and not future.done():
                    # This job's own deadline expired: charged.  The
                    # only way to reclaim the wedged worker is to put
                    # the whole pool down; the collateral jobs requeue
                    # uncharged.
                    del running[future]
                    attempts.charge(job, TIMED_OUT,
                                    f"no result within {ctx.timeout}s",
                                    wall=ctx.timeout)
                    self._trace_attempt(job, attempts.count[job.key],
                                        "timeout", submit_epoch=dispatched)
                    self._finish_or_requeue(job, attempts, report, requeue)
                    broke = True
        if broke:
            kill_pool(pool)
            # Harvest what finished before the pool went down; requeue
            # the rest without charging anyone.
            for future, (job, dispatched, _) in running.items():
                if not future.done():
                    requeue.append(job)
                    continue
                try:
                    self._harvest(job, future, dispatched, round_start,
                                  attempts, report, payloads, requeue)
                except (BrokenExecutor, CancelledError):
                    requeue.append(job)
            requeue.extend(queue)
        else:
            pool.shutdown(wait=True)
        # Back in submission order, so "oldest" keeps its meaning.
        requeued = {job.key for job in requeue}
        return [job for job in pending if job.key in requeued], broke

    def _isolation_round(self, pending: list[Job], attempts: _Attempts,
                         report: RunReport,
                         payloads: dict[tuple, dict]) -> list[Job]:
        """Run each pending job alone in a fresh single-worker pool.

        With no pool-mates, *every* failure — exception, timeout, even
        killing the pool — belongs to the job and is charged, which is
        what guarantees a reliably pool-killing job terminates instead
        of recycling forever."""
        ctx = self.ctx
        requeue: list[Job] = []
        for job in pending:
            pool = ProcessPoolExecutor(max_workers=1)
            submit_epoch = epoch_now()
            future = pool.submit(_simulate, job, ctx.wants_obs,
                                 ctx.fault_for(job.workload),
                                 ctx.backend)
            try:
                payload = future.result(timeout=ctx.timeout)
            except FutureTimeout:
                attempts.charge(job, TIMED_OUT,
                                f"no result within {ctx.timeout}s "
                                f"(isolated)",
                                wall=ctx.timeout or 0.0)
                self._trace_attempt(job, attempts.count[job.key],
                                    "timeout", submit_epoch=submit_epoch)
                self._finish_or_requeue(job, attempts, report, requeue)
                kill_pool(pool)
                continue
            except Exception as err:  # noqa: BLE001 — worker boundary
                attempts.charge(job, FAILED,
                                f"{type(err).__name__}: {err}",
                                wall=epoch_now() - submit_epoch)
                self._trace_attempt(job, attempts.count[job.key],
                                    "error", submit_epoch=submit_epoch)
                self._finish_or_requeue(job, attempts, report, requeue)
                kill_pool(pool)
                continue
            payloads[job.key] = payload
            self._finish_success(job, payload, attempts, report,
                                 submit_epoch=submit_epoch)
            pool.shutdown(wait=True)
        return requeue

    # ------------------------------------------------- execute plumbing

    def _harvest(self, job: Job, future: Future, dispatched: float,
                 round_start: float, attempts: _Attempts,
                 report: RunReport, payloads: dict[tuple, dict],
                 requeue: list[Job]) -> int | None:
        """Book one finished fan-out future.  Returns the worker's pid
        on success and ``None`` when the job raised (the pid is then
        unknown); a broken pool's ``BrokenExecutor`` or
        ``CancelledError`` propagates to the caller, which charges
        nobody for it."""
        try:
            payload = future.result(timeout=0)
        except (BrokenExecutor, CancelledError):
            raise
        except Exception as err:  # noqa: BLE001 — worker boundary
            attempts.charge(job, FAILED, f"{type(err).__name__}: {err}",
                            wall=epoch_now() - dispatched)
            self._trace_attempt(job, attempts.count[job.key], "error",
                                submit_epoch=dispatched)
            self._finish_or_requeue(job, attempts, report, requeue)
            return None
        payloads[job.key] = payload
        self._finish_success(job, payload, attempts, report,
                             submit_epoch=round_start)
        return payload["timing"]["pid"]

    def _finish_success(self, job: Job, payload: dict,
                        attempts: _Attempts, report: RunReport,
                        submit_epoch: float | None = None) -> None:
        """Book a successful attempt: wall-clock, retries, span, outcome."""
        timing = payload.get("timing")
        if timing is not None:
            attempts.add_wall(job, timing["end"] - timing["start"])
        retries = attempts.count[job.key]
        if retries:
            self._bump(job_retries=retries)
        self._trace_attempt(job, attempts.count[job.key] + 1, "ok",
                            timing=timing, submit_epoch=submit_epoch)
        report.add(attempts.outcome(job, status=OK))

    def _trace_attempt(self, job: Job, attempt: int, outcome: str,
                       timing: dict | None = None,
                       submit_epoch: float | None = None) -> None:
        """Record exactly one ``execute`` span per charged attempt or
        success — the invariant behind
        :meth:`~repro.perf.trace.SpanTracer.accounting` matching the
        :class:`~repro.robust.report.RunReport` exactly.  Successful
        attempts use the worker's own phase stamps (plus a
        ``queue.wait`` span from ``submit_epoch`` to worker start: a
        fan-out round passes its own start); failures span from
        ``submit_epoch``, their dispatch, to the engine noticing."""
        tracer = self.tracer
        if tracer is None:
            return
        stem = job.stem()
        if timing is not None:
            if (submit_epoch is not None
                    and timing["start"] >= submit_epoch):
                tracer.add_epoch("queue.wait", "engine", submit_epoch,
                                 timing["start"], job=stem)
            span = tracer.add_epoch(
                "execute", "attempt", timing["start"], timing["end"],
                pid=timing["pid"], job=stem, workload=job.workload,
                attempt=attempt, outcome=outcome)
            tracer.add_epoch("sim.warmup", "sim", timing["start"],
                             timing["run"], parent=span,
                             pid=timing["pid"], job=stem)
            tracer.add_epoch("sim.run", "sim", timing["run"],
                             timing["serialize"], parent=span,
                             pid=timing["pid"], job=stem)
            tracer.add_epoch("serialize", "sim", timing["serialize"],
                             timing["end"], parent=span,
                             pid=timing["pid"], job=stem)
        else:
            start = submit_epoch if submit_epoch is not None else epoch_now()
            span = tracer.add_epoch(
                "execute", "attempt", start, epoch_now(), job=stem,
                workload=job.workload, attempt=attempt, outcome=outcome)
        self._span_of[job.key] = span

    def _finish_or_requeue(self, job: Job, attempts: _Attempts,
                           report: RunReport, requeue: list[Job]) -> None:
        if attempts.exhausted(job):
            report.add(attempts.outcome(job))
        else:
            requeue.append(job)

    def _sleep_backoff(self, pending: list[Job],
                       attempts: _Attempts) -> None:
        """One backoff sleep per retry round: the longest delay owed by
        any already-charged pending job (deterministic; zero on the
        first round)."""
        delay = 0.0
        for job in pending:
            charged = attempts.count[job.key]
            if charged:
                delay = max(delay, attempts.policy.delay(job.stem(),
                                                         charged))
        self._backoff(delay)

    def _backoff(self, policy_delay: float) -> None:
        if policy_delay > 0:
            if self.tracer is not None:
                with self.tracer.span("retry.backoff", "engine",
                                      delay=policy_delay):
                    time.sleep(policy_delay)
            else:
                time.sleep(policy_delay)

    def _absorb(self, job: Job, payload: dict) -> RunResult:
        """Rehydrate one fresh payload and feed every result tier.

        The worker's metrics snapshot merges into the process-wide
        registry here; its timing stamps were consumed by the tracer
        at harvest.  Neither ever reaches the disk cache.
        """
        ctx = self.ctx
        tracer = self.tracer
        get_registry().merge(payload.get("metrics"))
        result = result_from_dict(payload["result"], config=job.config)
        self._bump(fresh_runs=1)
        _FAILED.pop(job.key, None)
        if ctx.use_cache:
            _MEMO[job.key] = result
            if self._cache is not None:
                t0 = tracer.now() if tracer is not None else 0.0
                self._cache.store(job, payload["result"],
                                  manifest=payload["manifest"])
                self._bump(cache_stores=1)
                if tracer is not None:
                    tracer.add_rel("cache.store", "cache", t0,
                                   tracer.now(), job=job.stem())
        if ctx.wants_obs and payload["manifest"] is not None:
            manifest = payload["manifest"]
            span = self._span_of.get(job.key)
            if tracer is not None and span is not None:
                manifest = {**manifest, "trace": {"span_id": span}}
            write_manifest(ctx.obs_dir, manifest, stem=job.stem())
        return result

    # -------------------------------------------------------------- stats

    def _bump(self, **deltas: int) -> None:
        registry = get_registry()
        for name, delta in deltas.items():
            setattr(self.stats, name, getattr(self.stats, name) + delta)
            setattr(GLOBAL_STATS, name,
                    getattr(GLOBAL_STATS, name) + delta)
            if delta:
                registry.counter(f"engine.{name}").inc(delta)
