"""The experiment service core: admission, coalescing, execution.

:class:`ExperimentService` is the transport-free heart of the service —
the asyncio HTTP layer (:mod:`repro.service.http`) and the tests drive
the same object.  It owns six pieces of machinery:

* a **bounded admission queue**: a submission whose *new* jobs would
  push the queue past ``queue_limit`` is rejected atomically with the
  typed :class:`~repro.service.api.Backpressure` (queue depth, limit,
  retry-after estimate) — no partial admission, and rejection is
  immediate, never a hang;
* **request coalescing**: unique jobs are keyed by their content
  fingerprint; a submission naming a fingerprint that is already
  queued or running *attaches* to the in-flight entry instead of
  enqueueing a duplicate, so N concurrent identical sweeps cost one
  simulation (``service.coalesced`` counts the attachments);
* a pool of **runner threads**, each executing one admitted job at a
  time through a :class:`~repro.exec.engine.RunEngine` under the
  service's :class:`~repro.exec.context.RunContext` — so a served job
  gets the cache tiers, retries, timeouts, spans, and metrics a local
  CLI run gets, and its result lands in the shared (sharded, when
  ``cache_layout="cas"``) content-addressed store;
* a **durable sweep journal** (:mod:`repro.service.journal`, enabled
  by ``journal_dir``): admission, dispatch, terminal outcomes, and
  parked work hit an fsync'd WAL before clients see them; on
  construction the service replays the journal, reconciles against
  the CAS (fingerprints that already landed are served from the
  store, never re-simulated), and re-enqueues only genuinely-lost
  jobs — so ``kill -9`` mid-sweep costs zero acknowledged work;
* **per-job fault isolation**: a crash in a runner thread fails *that
  job* typed (``error_code="worker-crash"``) and the thread keeps
  draining the queue; a configurable **circuit breaker** trips after
  ``breaker_threshold`` consecutive infra crashes, rejecting new
  submissions with the typed 503
  :class:`~repro.service.api.ServiceUnavailable` until its cooldown
  lapses (one success closes it again);
* **deadline propagation + graceful drain**: a submission's
  ``deadline_seconds`` arms a monotonic deadline at admission; each
  dispatch decrements the remaining budget into the engine's per-job
  timeout, and a job whose budget is spent before it starts fails
  typed (``deadline-exceeded``) without running.  :meth:`drain` (the
  SIGTERM path) flips readiness false, journals queued jobs as
  parked, lets in-flight jobs finish, and returns — parked work
  resumes on the next start.

Results are served as **canonical bytes** —
``json.dumps(result_to_dict(result), sort_keys=True,
separators=(",", ":"))`` — the same serialize round trip every engine
tier uses, which is why a served payload is byte-identical to what
``repro-experiments`` computes locally for the same job, and why a
journal-resumed sweep serves bytes identical to an uninterrupted run.

* **progress events** per sweep, as JSONL-able records in the obs
  manifest wire format: job state transitions are ``{"record": "job",
  ...}`` lines, and when the context carries an obs directory the
  finished job's manifest records (run/config/stats/power/attribution/
  window) stream too.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.exec.context import RunContext
from repro.exec.engine import RunEngine
from repro.exec.jobs import Job
from repro.exec.serialize import result_to_dict
from repro.exec.shards import ShardedResultCache
from repro.obs.export import manifest_records, read_manifest
from repro.perf.clock import epoch_now, mono_now
from repro.perf.metrics import get_registry
from repro.service.api import (
    API_SCHEMA,
    DONE,
    ERR_DEADLINE,
    ERR_INVALID_ON_RESTART,
    ERR_JOB_FAILED,
    ERR_SHUTDOWN,
    ERR_WORKER_CRASH,
    FAILED,
    QUEUED,
    RUNNING,
    SOURCE_COALESCED,
    SOURCE_FRESH,
    SOURCE_STORE,
    Backpressure,
    JobSpec,
    JobStatus,
    NotFound,
    ServiceError,
    ServiceUnavailable,
    SubmitRequest,
    SweepStatus,
)
from repro.service.journal import (
    JOURNAL_NAME,
    REC_ADMITTED,
    REC_DISPATCHED,
    REC_DONE,
    REC_DRAIN,
    REC_FAILED,
    REC_PARKED,
    REC_START,
    REC_SWEEP_END,
    JournalReplay,
    SweepJournal,
    read_journal,
)


def canonical_result_bytes(result_dict: dict) -> bytes:
    """The service's one true result encoding: canonical JSON of the
    serialized result dict.  Both the serving path and the client-side
    ``verify`` command call this, so "byte-identical" is a single
    function, not a convention."""
    return (json.dumps(result_dict, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


@dataclass
class _Entry:
    """One unique admitted job (the coalescing unit)."""

    fingerprint: str
    spec: JobSpec
    job: Job | None
    backend: str
    state: str = QUEUED
    source: str | None = None
    error: str | None = None
    error_code: str | None = None
    result_bytes: bytes | None = None
    #: monotonic deadline; the remaining budget becomes the engine
    #: timeout at dispatch.  None = unbounded.
    deadline: float | None = None
    #: sweep ids attached to this entry (first = the admitter).
    sweeps: list[str] = field(default_factory=list)


@dataclass
class _Sweep:
    """One submission: ordered fingerprints plus its event feed."""

    sweep_id: str
    fingerprints: list[str]
    #: fingerprint -> source *as seen by this sweep* (an attached sweep
    #: sees "coalesced" where the admitting sweep sees "fresh").
    sources: dict[str, str] = field(default_factory=dict)
    #: fingerprint -> this sweep's *frozen* terminal view.  Written when
    #: a job reaches a terminal state, so a later sweep retrying a
    #: failed fingerprint cannot rewrite this sweep's history.
    frozen: dict[str, JobStatus] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)


class ExperimentService:
    """Multi-tenant front end over the run engine (transport-free)."""

    def __init__(self, ctx: RunContext | None = None, *,
                 queue_limit: int = 64, workers: int = 2,
                 journal_dir: str | Path | None = None,
                 breaker_threshold: int = 5,
                 breaker_cooldown: float = 30.0) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        self.ctx = ctx or RunContext()
        self.queue_limit = queue_limit
        self.workers = workers
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._cond = threading.Condition()
        self._queue: deque[str] = deque()       # admitted fingerprints
        self._entries: dict[str, _Entry] = {}   # queued | running
        self._done: dict[str, _Entry] = {}      # terminal
        self._sweeps: dict[str, _Sweep] = {}
        self._seq = itertools.count(1)
        self._threads: list[threading.Thread] = []
        self._stopping = False
        self._draining = False
        self._breaker_failures = 0              # consecutive infra crashes
        self._breaker_open_until: float | None = None
        self._avg_wall = 2.0                    # EMA, seconds per job
        self._journal: SweepJournal | None = None
        self._store = (ShardedResultCache(self.ctx.cache_dir)
                       if (self.ctx.cache_dir is not None
                           and self.ctx.cache_layout == "cas")
                       else None)
        self._started_at = epoch_now()
        if journal_dir is not None:
            self._open_journal(Path(journal_dir) / JOURNAL_NAME)

    # ----------------------------------------------------------- lifecycle

    def start(self) -> "ExperimentService":
        for index in range(self.workers):
            self._spawn_worker(index)
        return self

    def _spawn_worker(self, index: int) -> None:
        thread = threading.Thread(target=self._worker_main,
                                  args=(index,),
                                  name=f"repro-serve-worker-{index}",
                                  daemon=True)
        thread.start()
        self._threads.append(thread)

    def shutdown(self) -> None:
        """Hard stop: accept no more work and join the runner threads.

        Without a journal, whatever is still queued fails typed (so no
        stream waiter hangs).  With a journal, queued work is *parked*
        instead — durable, resumed by the next service over the same
        journal directory — because failing journaled work would turn
        a clean restart into data loss.
        """
        with self._cond:
            self._stopping = True
            self._park_or_fail_queued_locked()
            self._set_depth_locked()
            self._cond.notify_all()
        self._join_workers()
        with self._cond:
            if self._journal is not None:
                self._journal.close()

    def drain(self) -> dict:
        """Graceful drain (the SIGTERM path): readiness flips false,
        queued jobs are journaled as parked, in-flight jobs finish,
        and the journal closes cleanly.  Returns a summary dict."""
        with self._cond:
            already = self._draining or self._stopping
            self._draining = True
            parked = 0 if already else self._park_or_fail_queued_locked()
            self._set_depth_locked()
            self._cond.notify_all()
        self._join_workers()
        with self._cond:
            self._journal_locked(REC_DRAIN, parked=parked)
            if self._journal is not None:
                self._journal.close()
            self._stopping = True
            done = len(self._done)
        return {"drained": True, "parked": parked, "done": done}

    def _join_workers(self) -> None:
        for thread in list(self._threads):
            thread.join(timeout=600)
        self._threads.clear()

    def _park_or_fail_queued_locked(self) -> int:
        """Empty the queue: park (journal) or fail (no journal) each
        queued entry.  Parked entries stay non-terminal in memory —
        they belong to the *next* incarnation of the service."""
        registry = get_registry()
        parked = 0
        while self._queue:
            fingerprint = self._queue.popleft()
            entry = self._entries.get(fingerprint)
            if entry is None:
                continue
            if self._journal is not None:
                parked += 1
                registry.counter("service.drain.parked").inc()
                self._journal_locked(REC_PARKED, fingerprint=fingerprint)
            else:
                self._finish_locked(entry, FAILED,
                                    error="service shut down before "
                                          "this job ran",
                                    error_code=ERR_SHUTDOWN)
        return parked

    # ----------------------------------------------------- journal/recover

    def _open_journal(self, path: Path) -> None:
        """Replay + reconcile + compact + reopen, in that order.

        Called from ``__init__`` before any worker exists, so no lock
        is needed — but the ``_locked`` helpers it reaches are safe
        either way because the journal handle is still None while
        recovering (nothing is re-journaled during replay)."""
        registry = get_registry()
        replay = read_journal(path)
        if replay.bad_records:
            registry.counter("service.journal.bad_records").inc(
                replay.bad_records)
        if replay.torn_tail:
            registry.counter("service.journal.torn_tail").inc()
        live: list[str] = []
        if replay.sweeps:
            live = self._recover(replay)
        if path.exists():
            self._journal = SweepJournal.compact(
                path, self._reconciled_replay(replay, live), live)
        else:
            self._journal = SweepJournal(path)
        self._journal_locked(REC_START, workers=self.workers,
                             queue_limit=self.queue_limit,
                             recovered_sweeps=len(live),
                             replayed_records=replay.records,
                             bad_records=replay.bad_records,
                             torn_tail=replay.torn_tail)

    def _recover(self, replay: JournalReplay) -> list[str]:
        """Rebuild sweeps/entries from a journal replay, reconciling
        every non-terminal job against the CAS: landed fingerprints
        become store-served terminal entries (0 re-simulations);
        genuinely lost ones re-enter the queue.  Returns the ids of
        sweeps still live after reconciliation."""
        registry = get_registry()
        live: list[str] = []
        for sweep_id, rsweep in replay.sweeps.items():
            sweep = _Sweep(sweep_id, [])
            self._sweeps[sweep_id] = sweep
            registry.counter("service.restart.sweeps").inc()
            deadline = (mono_now() + rsweep.deadline_seconds
                        if rsweep.deadline_seconds else None)
            ordered: list[str] = []
            for job_doc in rsweep.jobs:
                fingerprint = job_doc.get("fingerprint")
                if not isinstance(fingerprint, str) or not fingerprint:
                    continue
                sweep.fingerprints.append(fingerprint)
                if fingerprint in sweep.sources:
                    continue            # duplicate within this sweep
                ordered.append(fingerprint)
                self._recover_job_locked(sweep, rsweep, job_doc,
                                         fingerprint, deadline,
                                         replay.job_states.get(fingerprint))
            sweep.events.append({"record": "sweep", "schema": API_SCHEMA,
                                 "sweep_id": sweep_id,
                                 "jobs": len(sweep.fingerprints),
                                 "resumed": True})
            for fingerprint in ordered:
                self._emit_job_locked(sweep, fingerprint)
            status = self._status_locked(sweep_id)
            if status.done:
                sweep.events.append(self._end_record(status))
            else:
                live.append(sweep_id)
        self._seq = itertools.count(replay.max_sweep_number + 1)
        self._set_depth_locked()
        return live

    def _recover_job_locked(self, sweep: _Sweep, rsweep, job_doc: dict,
                            fingerprint: str, deadline: float | None,
                            jstate: dict | None) -> None:
        registry = get_registry()
        inflight = self._entries.get(fingerprint)
        if inflight is not None:        # re-enqueued by an earlier sweep
            inflight.sweeps.append(sweep.sweep_id)
            sweep.sources[fingerprint] = rsweep.sources.get(
                fingerprint, SOURCE_COALESCED)
            if deadline is None:
                inflight.deadline = None
            elif inflight.deadline is not None:
                inflight.deadline = max(inflight.deadline, deadline)
            return
        done = self._done.get(fingerprint)
        if done is not None:            # already recovered terminal
            sweep.sources[fingerprint] = SOURCE_STORE
            sweep.frozen[fingerprint] = self._job_view_locked(sweep, done)
            return
        spec, job, bad_spec = self._resolve_replayed(job_doc)
        if jstate is not None and jstate.get("state") == "failed":
            # The journal already holds this job's terminal failure:
            # replay it verbatim rather than re-running a known loss.
            entry = _Entry(fingerprint, spec, job, rsweep.backend,
                           state=FAILED, error=jstate.get("error"),
                           error_code=jstate.get("error_code"),
                           sweeps=[sweep.sweep_id])
            self._done[fingerprint] = entry
            sweep.sources[fingerprint] = rsweep.sources.get(
                fingerprint, SOURCE_FRESH)
            sweep.frozen[fingerprint] = self._job_view_locked(sweep, entry)
            return
        stored = self._store_load(fingerprint)
        if stored is not None:
            # The CAS is the ground truth: this job landed before the
            # crash, so the reborn service serves the stored bytes and
            # never re-simulates.
            entry = _Entry(fingerprint, spec, job, rsweep.backend,
                           state=DONE, source=SOURCE_STORE,
                           result_bytes=canonical_result_bytes(
                               stored["result"]),
                           sweeps=[sweep.sweep_id])
            self._done[fingerprint] = entry
            sweep.sources[fingerprint] = SOURCE_STORE
            sweep.frozen[fingerprint] = self._job_view_locked(sweep, entry)
            registry.counter("service.restart.recovered_from_store").inc()
            return
        if bad_spec is not None:
            entry = _Entry(fingerprint, spec, job, rsweep.backend,
                           state=FAILED, error=bad_spec,
                           error_code=ERR_INVALID_ON_RESTART,
                           sweeps=[sweep.sweep_id])
            self._done[fingerprint] = entry
            sweep.sources[fingerprint] = rsweep.sources.get(
                fingerprint, SOURCE_FRESH)
            sweep.frozen[fingerprint] = self._job_view_locked(sweep, entry)
            return
        # Genuinely lost: back into the queue, full budget re-armed.
        entry = _Entry(fingerprint, spec, job, rsweep.backend,
                       deadline=deadline, sweeps=[sweep.sweep_id])
        self._entries[fingerprint] = entry
        self._queue.append(fingerprint)
        sweep.sources[fingerprint] = SOURCE_FRESH
        registry.counter("service.restart.resumed").inc()

    @staticmethod
    def _resolve_replayed(job_doc: dict):
        """(spec, job, error) for a journaled spec dict — a spec this
        build can no longer resolve yields a placeholder spec and the
        error string instead of raising mid-recovery."""
        raw = job_doc.get("spec")
        raw = raw if isinstance(raw, dict) else {}
        try:
            spec = JobSpec.from_dict(raw)
            return spec, spec.resolve(), None
        except ServiceError as err:
            spec = JobSpec(workload=str(raw.get("workload", "unknown")),
                           config=str(raw.get("config", "baseline")))
            return spec, None, f"journal replay: {err.message}"

    def _reconciled_replay(self, replay: JournalReplay,
                           live: list[str]) -> JournalReplay:
        """The replay rewritten to match *reconciled* in-memory state,
        so compaction journals what the service actually believes (a
        journaled ``done`` whose CAS entry vanished was re-enqueued —
        compacting the stale ``done`` record would resurrect it)."""
        out = JournalReplay()
        out.max_sweep_number = replay.max_sweep_number
        for sweep_id in live:
            rsweep = replay.sweeps.get(sweep_id)
            if rsweep is None:
                continue
            out.sweeps[sweep_id] = rsweep
            for job_doc in rsweep.jobs:
                fingerprint = job_doc.get("fingerprint")
                entry = self._done.get(fingerprint)
                if entry is None:
                    continue
                if entry.state == DONE:
                    out.job_states[fingerprint] = {
                        "state": "done", "source": entry.source}
                elif entry.state == FAILED:
                    out.job_states[fingerprint] = {
                        "state": "failed", "error": entry.error,
                        "error_code": entry.error_code}
        return out

    def _journal_locked(self, record_type: str, **fields) -> None:
        if self._journal is None:
            return
        self._journal.append(record_type, **fields)
        get_registry().counter("service.journal.records").inc()

    # ------------------------------------------------------------- submit

    def submit(self, request: SubmitRequest) -> SweepStatus:
        """Admit a sweep (all jobs or none); returns its initial status.

        Raises :class:`~repro.service.api.RequestInvalid` for unknown
        workloads/configs, :class:`~repro.service.api.Backpressure`
        when the admission queue cannot take the sweep's *new* jobs,
        and :class:`~repro.service.api.ServiceUnavailable` while the
        circuit breaker is open or the service is draining.
        """
        # Resolve outside the lock: validation is pure, and a typed
        # failure here must not cost a lock hold.
        resolved: list[tuple[JobSpec, Job, str]] = []
        for spec in request.jobs:
            job = spec.resolve()
            resolved.append((spec, job, job.fingerprint()))

        registry = get_registry()
        with self._cond:
            if self._stopping:
                raise Backpressure("service is shutting down",
                                   queue_depth=len(self._queue),
                                   queue_limit=self.queue_limit,
                                   retry_after=self._retry_after_locked())
            if self._draining:
                raise ServiceUnavailable(
                    "service is draining (graceful shutdown in "
                    "progress); resubmit after restart",
                    reason="draining",
                    retry_after=self._retry_after_locked())
            breaker_wait = self._breaker_open_locked()
            if breaker_wait is not None:
                registry.counter("service.breaker.rejected").inc()
                raise ServiceUnavailable(
                    f"circuit breaker open after "
                    f"{self._breaker_failures} consecutive worker "
                    f"crashes; cooling down",
                    reason="breaker-open",
                    retry_after=round(breaker_wait, 1),
                    consecutive_crashes=self._breaker_failures,
                    threshold=self.breaker_threshold)
            sweep_id = f"sweep-{next(self._seq):06d}"
            sweep = _Sweep(sweep_id, [])
            deadline = (mono_now() + request.deadline_seconds
                        if request.deadline_seconds is not None else None)
            # First pass: what would this sweep add to the queue?
            seen: set[str] = set()
            new_fingerprints = []
            for _spec, _job, fingerprint in resolved:
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                done = self._done.get(fingerprint)
                if (fingerprint not in self._entries
                        and (done is None or done.state == FAILED)
                        and not self._store_has(fingerprint)):
                    new_fingerprints.append(fingerprint)
            if len(self._queue) + len(new_fingerprints) > self.queue_limit:
                registry.counter("service.rejected").inc()
                depth = len(self._queue)
                raise Backpressure(
                    f"admission queue is full ({depth}/{self.queue_limit} "
                    f"queued, {len(new_fingerprints)} new jobs submitted)",
                    queue_depth=depth, queue_limit=self.queue_limit,
                    retry_after=self._retry_after_locked())

            # Second pass: mutate. All-or-nothing by construction now.
            seen.clear()
            for spec, job, fingerprint in resolved:
                sweep.fingerprints.append(fingerprint)
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                registry.counter("service.submitted_jobs").inc()
                done = self._done.get(fingerprint)
                if done is not None and done.state == DONE:
                    sweep.sources[fingerprint] = SOURCE_STORE
                    sweep.frozen[fingerprint] = self._job_view_locked(
                        sweep, done)
                    registry.counter("service.store_hits").inc()
                    continue
                if done is not None:
                    # A previously *failed* fingerprint does not pin:
                    # a new submission retries it fresh (the failed
                    # sweeps keep their frozen view of the old entry).
                    self._done.pop(fingerprint, None)
                    registry.counter("service.retried").inc()
                inflight = self._entries.get(fingerprint)
                if inflight is not None:
                    inflight.sweeps.append(sweep_id)
                    sweep.sources[fingerprint] = SOURCE_COALESCED
                    if deadline is None:
                        inflight.deadline = None
                    elif inflight.deadline is not None:
                        # Attaching may only *extend* the budget: the
                        # first submitter's deadline must not shrink.
                        inflight.deadline = max(inflight.deadline,
                                                deadline)
                    registry.counter("service.coalesced").inc()
                    continue
                stored = self._store_load(fingerprint)
                if stored is not None:
                    entry = _Entry(fingerprint, spec, job, request.backend,
                                   state=DONE, source=SOURCE_STORE,
                                   result_bytes=canonical_result_bytes(
                                       stored["result"]))
                    self._done[fingerprint] = entry
                    sweep.sources[fingerprint] = SOURCE_STORE
                    sweep.frozen[fingerprint] = self._job_view_locked(
                        sweep, entry)
                    registry.counter("service.store_hits").inc()
                    continue
                entry = _Entry(fingerprint, spec, job, request.backend,
                               deadline=deadline, sweeps=[sweep_id])
                self._entries[fingerprint] = entry
                self._queue.append(fingerprint)
                sweep.sources[fingerprint] = SOURCE_FRESH
            registry.counter("service.sweeps").inc()
            self._sweeps[sweep_id] = sweep
            self._set_depth_locked()
            status = self._status_locked(sweep_id)
            if not status.done:
                # WAL before acknowledgment: once the caller sees this
                # sweep id, a crash cannot lose the submission.
                self._journal_locked(
                    REC_ADMITTED, sweep_id=sweep_id,
                    backend=request.backend,
                    deadline_seconds=request.deadline_seconds,
                    jobs=[{"spec": spec.to_dict(),
                           "fingerprint": fingerprint}
                          for spec, _job, fingerprint in resolved],
                    sources=dict(sweep.sources))
            sweep.events.append({"record": "sweep", "schema": API_SCHEMA,
                                 "sweep_id": sweep_id,
                                 "jobs": len(sweep.fingerprints)})
            for _spec, _job, fingerprint in resolved:
                self._emit_job_locked(sweep, fingerprint)
            if status.done:
                sweep.events.append(self._end_record(status))
            self._cond.notify_all()
        return status

    # -------------------------------------------------------------- query

    def status(self, sweep_id: str) -> SweepStatus:
        with self._cond:
            if sweep_id not in self._sweeps:
                raise NotFound(f"no such sweep {sweep_id!r}")
            return self._status_locked(sweep_id)

    def result_bytes(self, fingerprint: str) -> bytes:
        """The canonical result payload for a finished fingerprint —
        from memory if this process ran it, else from the shared store."""
        with self._cond:
            entry = self._done.get(fingerprint)
            if entry is not None and entry.result_bytes is not None:
                return entry.result_bytes
        stored = self._store_load(fingerprint)
        if stored is not None:
            return canonical_result_bytes(stored["result"])
        raise NotFound(f"no result for fingerprint {fingerprint!r}")

    def events_since(self, sweep_id: str, cursor: int,
                     timeout: float = 10.0) -> tuple[list[dict], int, bool]:
        """Progress records after ``cursor`` (blocking up to
        ``timeout`` seconds for new ones); returns ``(records,
        next_cursor, sweep_done)``.  The JSONL streaming endpoint calls
        this repeatedly from an executor thread."""
        deadline = mono_now() + timeout
        with self._cond:
            sweep = self._sweeps.get(sweep_id)
            if sweep is None:
                raise NotFound(f"no such sweep {sweep_id!r}")
            while True:
                if len(sweep.events) > cursor:
                    records = list(sweep.events[cursor:])
                    done = (records[-1].get("record") == "sweep.end")
                    return records, len(sweep.events), done
                remaining = deadline - mono_now()
                if remaining <= 0:
                    return [], cursor, False
                self._cond.wait(remaining)

    def wait(self, sweep_id: str, timeout: float | None = None) -> SweepStatus:
        """Block until the sweep is terminal (tests and in-process use)."""
        deadline = (mono_now() + timeout
                    if timeout is not None else None)
        with self._cond:
            while True:
                status = self.status(sweep_id)
                if status.done:
                    return status
                remaining = (None if deadline is None
                             else deadline - mono_now())
                if remaining is not None and remaining <= 0:
                    return status
                self._cond.wait(remaining if remaining is not None else 1.0)

    # ------------------------------------------------------------- health

    def health(self) -> dict:
        with self._cond:
            running = sum(1 for e in self._entries.values()
                          if e.state == RUNNING)
            ready, reason = self._readiness_locked()
            return {
                "schema": API_SCHEMA,
                "status": "stopping" if self._stopping else
                          "draining" if self._draining else "ok",
                "live": True,
                "ready": ready,
                "ready_reason": reason,
                "queue_depth": len(self._queue),
                "queue_limit": self.queue_limit,
                "running": running,
                "workers": self.workers,
                "sweeps": len(self._sweeps),
                "done": len(self._done),
                "uptime_seconds": round(epoch_now() - self._started_at, 3),
                "backend": self.ctx.backend,
                "cache_layout": self.ctx.cache_layout,
                "breaker": self._breaker_doc_locked(),
                "journal": self._journal_doc_locked(),
            }

    def liveness(self) -> dict:
        """The process is up and can answer — nothing more.  Liveness
        stays true during drain/breaker-open so orchestrators don't
        kill a service that is shedding load on purpose."""
        return {"schema": API_SCHEMA, "live": True,
                "uptime_seconds": round(epoch_now() - self._started_at, 3)}

    def readiness(self) -> dict:
        """Whether the service should receive new traffic, with queue
        depth and journal lag in the body (the satellite contract)."""
        with self._cond:
            ready, reason = self._readiness_locked()
            return {
                "schema": API_SCHEMA,
                "ready": ready,
                "reason": reason,
                "queue_depth": len(self._queue),
                "queue_limit": self.queue_limit,
                "journal": self._journal_doc_locked(),
                "breaker": self._breaker_doc_locked(),
            }

    def _readiness_locked(self) -> tuple[bool, str]:
        if self._stopping:
            return False, "stopping"
        if self._draining:
            return False, "draining"
        if self._breaker_is_open_locked():
            return False, "breaker-open"
        return True, "ok"

    def _breaker_doc_locked(self) -> dict:
        open_now = self._breaker_is_open_locked()
        doc = {"open": open_now,
               "consecutive_crashes": self._breaker_failures,
               "threshold": self.breaker_threshold}
        if open_now and self._breaker_open_until is not None:
            doc["retry_after"] = round(
                max(0.0, self._breaker_open_until - mono_now()), 1)
        return doc

    def _journal_doc_locked(self) -> dict:
        if self._journal is None:
            return {"enabled": False}
        return {"enabled": True,
                "path": str(self._journal.path),
                "records": self._journal.records_written,
                # journaled-but-nonterminal jobs: what a restart right
                # now would have to reconcile.
                "lag": len(self._entries)}

    # ------------------------------------------------------------ breaker

    def _breaker_is_open_locked(self) -> bool:
        """Non-mutating view (health/readiness): open iff tripped and
        still inside the cooldown window."""
        return (self._breaker_open_until is not None
                and self._breaker_open_until - mono_now() > 0)

    def _breaker_open_locked(self) -> float | None:
        """Admission-path view: remaining cooldown if open, else None.
        A lapsed cooldown half-opens the breaker — traffic flows, but
        the crash counter sits one below threshold, so the next crash
        re-trips immediately while one success fully closes it."""
        if self._breaker_open_until is None:
            return None
        remaining = self._breaker_open_until - mono_now()
        if remaining > 0:
            return remaining
        self._breaker_open_until = None
        self._breaker_failures = max(0, self.breaker_threshold - 1)
        return None

    def _breaker_note_crash_locked(self) -> None:
        self._breaker_failures += 1
        if (self._breaker_open_until is None
                and self._breaker_failures >= self.breaker_threshold):
            self._breaker_open_until = mono_now() + self.breaker_cooldown
            get_registry().counter("service.breaker.opened").inc()

    def _breaker_note_ok_locked(self) -> None:
        self._breaker_failures = 0
        self._breaker_open_until = None

    # ------------------------------------------------------------ workers

    def _worker_main(self, index: int) -> None:
        try:
            self._worker_loop()
        except Exception:  # noqa: BLE001 — last-resort thread guard
            get_registry().counter("service.worker.deaths").inc()
            with self._cond:
                if not (self._stopping or self._draining):
                    self._spawn_worker(index)

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._quiescing_locked():
                    self._cond.wait()
                if self._quiescing_locked() and not self._queue:
                    return
                fingerprint = self._queue.popleft()
                entry = self._entries[fingerprint]
                entry.state = RUNNING
                self._journal_locked(REC_DISPATCHED,
                                     fingerprint=fingerprint)
                self._set_depth_locked()
                self._emit_entry_locked(entry)
                self._cond.notify_all()
            try:
                self._run_entry(entry)
            except Exception as err:  # noqa: BLE001 — fault isolation:
                # a crash anywhere in the runner fails *this job* typed
                # and the thread lives on to drain the queue.
                get_registry().counter("service.worker.crashes").inc()
                with self._cond:
                    self._breaker_note_crash_locked()
                    if entry.fingerprint in self._entries:
                        self._finish_locked(
                            entry, FAILED,
                            error=f"worker thread crashed: "
                                  f"{type(err).__name__}: {err}",
                            error_code=ERR_WORKER_CRASH)
                    self._cond.notify_all()

    def _quiescing_locked(self) -> bool:
        return self._stopping or self._draining

    def _run_entry(self, entry: _Entry) -> None:
        """Execute one admitted job through the engine (no lock held)."""
        registry = get_registry()
        ctx = self._run_ctx(entry.backend)
        if entry.deadline is not None:
            # Deadline propagation: what's left of the client's budget
            # becomes this job's engine timeout; a spent budget fails
            # typed without running at all.
            remaining = entry.deadline - mono_now()
            if remaining <= 0:
                registry.counter("service.deadline.expired").inc()
                registry.counter("service.failed").inc()
                with self._cond:
                    self._finish_locked(
                        entry, FAILED,
                        error=f"deadline exceeded "
                              f"{-remaining:.1f}s before dispatch",
                        error_code=ERR_DEADLINE)
                    self._cond.notify_all()
                return
            ctx = replace(ctx, timeout=(remaining if ctx.timeout is None
                                        else min(ctx.timeout, remaining)))
        self._before_execute(entry)
        t0 = mono_now()
        crashed = False
        try:
            engine = RunEngine(ctx)
            results, report = engine.run_jobs_report([entry.job])
            outcome = report.outcome_of(entry.job)
            result = results.get(entry.job.key)
        except Exception as err:  # noqa: BLE001 — service boundary
            result, outcome = None, None
            crashed = True
            error = f"{type(err).__name__}: {err}"
        else:
            error = (outcome.error or "job failed"
                     ) if result is None else None
        wall = mono_now() - t0
        payload = None
        source = SOURCE_FRESH
        if result is not None:
            payload = canonical_result_bytes(result_to_dict(result))
            if outcome is not None and outcome.attempts == 0:
                # The engine served it from a cache tier without
                # simulating (e.g. another process warmed the store).
                source = SOURCE_STORE
            registry.histogram("service.job_seconds").observe(wall)
        with self._cond:
            self._avg_wall = 0.7 * self._avg_wall + 0.3 * wall
            if payload is not None:
                entry.result_bytes = payload
                entry.source = source
                registry.counter("service.fresh"
                                 if source == SOURCE_FRESH
                                 else "service.store_hits").inc()
                self._finish_locked(entry, DONE)
                self._breaker_note_ok_locked()
            else:
                registry.counter("service.failed").inc()
                self._finish_locked(entry, FAILED, error=error,
                                    error_code=(ERR_WORKER_CRASH if crashed
                                                else ERR_JOB_FAILED))
                # An engine-level crash is infra; a job that failed
                # gracefully inside the engine is that job's problem
                # and must not trip the breaker.
                if crashed:
                    self._breaker_note_crash_locked()
                else:
                    self._breaker_note_ok_locked()
            self._cond.notify_all()

    def _run_ctx(self, backend: str) -> RunContext:
        if backend == self.ctx.backend:
            return self.ctx
        return replace(self.ctx, backend=backend)

    def _before_execute(self, entry: _Entry) -> None:
        """Hook between the RUNNING transition and the engine call.

        The coalescing tests override this to hold a job in flight
        until a second identical sweep has attached — determinism the
        wall clock cannot provide.  The chaos harness overrides it to
        crash the worker thread mid-sweep."""

    # ---------------------------------------------------- state plumbing

    def _finish_locked(self, entry: _Entry, state: str,
                       error: str | None = None,
                       error_code: str | None = None) -> None:
        entry.state = state
        entry.error = error
        entry.error_code = error_code
        self._entries.pop(entry.fingerprint, None)
        self._done[entry.fingerprint] = entry
        if state == DONE:
            self._journal_locked(REC_DONE, fingerprint=entry.fingerprint,
                                 source=entry.source)
        else:
            self._journal_locked(REC_FAILED,
                                 fingerprint=entry.fingerprint,
                                 error=error, error_code=error_code)
        self._emit_entry_locked(entry)
        # Attached sweeps freeze their view of this job (a later retry
        # of a failed fingerprint must not rewrite their history), and
        # those that just became terminal get their end record.
        for sweep_id in entry.sweeps:
            sweep = self._sweeps.get(sweep_id)
            if sweep is None:
                continue
            sweep.frozen[entry.fingerprint] = self._job_view_locked(
                sweep, entry)
            status = self._status_locked(sweep_id)
            if status.done:
                sweep.events.append(self._end_record(status))
                self._journal_locked(REC_SWEEP_END, sweep_id=sweep_id,
                                     ok=status.ok)

    def _job_view_locked(self, sweep: _Sweep, entry: _Entry) -> JobStatus:
        source = entry.source or sweep.sources.get(entry.fingerprint)
        if (entry.state == DONE
                and sweep.sources.get(entry.fingerprint) != SOURCE_FRESH):
            # An attached/late sweep reports its own view: it was
            # coalesced or store-served even though the entry itself
            # ran fresh for the admitting sweep.
            source = sweep.sources.get(entry.fingerprint, source)
        return JobStatus(spec=entry.spec, fingerprint=entry.fingerprint,
                         state=entry.state, source=source,
                         error=entry.error, error_code=entry.error_code)

    def _status_locked(self, sweep_id: str) -> SweepStatus:
        sweep = self._sweeps[sweep_id]
        statuses = []
        for fingerprint in sweep.fingerprints:
            frozen = sweep.frozen.get(fingerprint)
            if frozen is not None:
                statuses.append(frozen)
                continue
            entry = (self._entries.get(fingerprint)
                     or self._done.get(fingerprint))
            statuses.append(self._job_view_locked(sweep, entry))
        return SweepStatus(sweep_id=sweep_id, statuses=tuple(statuses))

    def _emit_job_locked(self, sweep: _Sweep, fingerprint: str) -> None:
        entry = (self._entries.get(fingerprint)
                 or self._done.get(fingerprint))
        sweep.events.append(self._job_record(entry, sweep))

    def _emit_entry_locked(self, entry: _Entry) -> None:
        for sweep_id in entry.sweeps:
            sweep = self._sweeps.get(sweep_id)
            if sweep is None:
                continue
            sweep.events.append(self._job_record(entry, sweep))
            if entry.state == DONE and self.ctx.wants_obs:
                for record in self._manifest_records(entry):
                    sweep.events.append(record)

    def _job_record(self, entry: _Entry, sweep: _Sweep) -> dict:
        view = self._job_view_locked(sweep, entry)
        return {"record": "job", "fingerprint": entry.fingerprint,
                "workload": entry.spec.workload,
                "scale": entry.spec.scale,
                "state": entry.state, "source": view.source,
                "error": entry.error, "error_code": entry.error_code}

    def _end_record(self, status: SweepStatus) -> dict:
        return {"record": "sweep.end", "sweep_id": status.sweep_id,
                "ok": status.ok,
                "jobs": len(status.statuses)}

    def _manifest_records(self, entry: _Entry) -> list[dict]:
        """The finished job's obs manifest, flattened to the JSONL wire
        records (the PR-1 format) and tagged with the fingerprint."""
        assert self.ctx.obs_dir is not None
        stem = entry.job.stem() if entry.job is not None else None
        if stem is None:
            return []
        path = self.ctx.obs_dir / f"{stem}.json"
        if not path.exists():
            return []
        try:
            manifest = read_manifest(path)
        except (OSError, ValueError):
            return []
        return [{**record, "fingerprint": entry.fingerprint}
                for record in manifest_records(manifest)]

    def _retry_after_locked(self) -> float:
        estimate = (len(self._queue) + 1) * self._avg_wall / self.workers
        return round(min(max(estimate, 1.0), 600.0), 1)

    def _set_depth_locked(self) -> None:
        get_registry().gauge("service.queue_depth").set(len(self._queue))

    def _store_has(self, fingerprint: str) -> bool:
        entry = self._done.get(fingerprint)
        if entry is not None and entry.state == DONE:
            return True
        return self._store_load(fingerprint) is not None

    def _store_load(self, fingerprint: str) -> dict | None:
        if self._store is None:
            return None
        if not self.ctx.use_cache or self.ctx.refresh:
            return None
        return self._store.load_by_fingerprint(fingerprint)

