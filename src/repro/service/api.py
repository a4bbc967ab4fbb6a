"""The experiment service's typed public submission API.

One set of frozen request/response dataclasses, shared **verbatim** by
the asyncio HTTP layer (:mod:`repro.service.http`), the ``repro-serve``
CLI (:mod:`repro.service.server`), and the blocking client
(:mod:`repro.service.client`): the CLI and the service are two skins
over this module.  Everything on the wire is the ``to_dict`` form of a
type defined here; everything read off the wire comes back through the
matching ``from_dict``, which *validates* — malformed input surfaces as
a typed :class:`RequestInvalid`, never a stack trace.

Schema: :data:`API_SCHEMA` stamps every document.  A request carrying a
different major schema is rejected up front; responses carry the
server's schema so clients can detect drift.

Failure surfaces are typed too: every error the service can hand a
client is a :class:`ServiceError` subclass carrying a stable ``code``
and an HTTP status, round-trippable through :func:`error_to_dict` /
:func:`error_from_dict` — the client raises the *same* exception type
the server did.  :class:`Backpressure` is the 429-equivalent: it names
the queue depth, the queue limit, and a retry-after estimate, so heavy
traffic degrades predictably instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import named_configs
from repro.exec.context import BACKENDS
from repro.exec.jobs import Job

#: Wire schema for every request/response document (bump on breaking
#: layout changes; the major part gates request admission).
API_SCHEMA = "repro-service/1"

#: Job states a :class:`JobStatus` can report.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)

#: Where a finished job's result came from, service-side.
SOURCE_FRESH = "fresh"          # this submission triggered a simulation
SOURCE_COALESCED = "coalesced"  # attached to an identical in-flight job
SOURCE_STORE = "store"          # served from the shared CAS

#: Hard ceiling on jobs per submission (a sweep bigger than this is
#: split client-side; protects the admission path from one giant POST).
MAX_JOBS_PER_SWEEP = 1024

#: Hard ceiling on a client-supplied sweep deadline (one day: anything
#: longer is indistinguishable from "no deadline" for this service).
MAX_DEADLINE_SECONDS = 86_400.0

#: Stable per-job error codes (the ``error_code`` field of a failed
#: :class:`JobStatus`).  These classify *why* a job failed so clients
#: can branch without parsing prose:
ERR_JOB_FAILED = "job-failed"            # the simulation itself failed
ERR_WORKER_CRASH = "worker-crash"        # infra crash in the runner
ERR_DEADLINE = "deadline-exceeded"       # budget spent before the run
ERR_SHUTDOWN = "service-shutdown"        # hard stop before the run
ERR_INVALID_ON_RESTART = "invalid-on-restart"  # journal replayed a spec
                                               # this build can't resolve
JOB_ERROR_CODES = (ERR_JOB_FAILED, ERR_WORKER_CRASH, ERR_DEADLINE,
                   ERR_SHUTDOWN, ERR_INVALID_ON_RESTART)


# ----------------------------------------------------------- typed errors

class ServiceError(Exception):
    """Base of every typed error the service surfaces to clients."""

    code = "service-error"
    http_status = 500

    def __init__(self, message: str, **details) -> None:
        super().__init__(message)
        self.message = message
        self.details = details


class RequestInvalid(ServiceError):
    """The submission failed validation (unknown workload/config/...)."""

    code = "invalid-request"
    http_status = 400


class NotFound(ServiceError):
    """No such sweep / result fingerprint."""

    code = "not-found"
    http_status = 404


class PayloadTooLarge(RequestInvalid):
    """The request body exceeds the service's byte cap.

    A :class:`RequestInvalid` subclass (``isinstance`` checks written
    against the 400 family keep working) with its own stable code and
    the HTTP-correct 413 status, so an oversized POST gets a typed
    JSON body instead of an abruptly closed connection.
    """

    code = "payload-too-large"
    http_status = 413


class ServiceUnavailable(ServiceError):
    """The service cannot take work right now: the typed 503.

    Raised while the circuit breaker is open (too many consecutive
    worker-thread crashes) and during graceful drain.  ``reason`` is a
    stable machine token (``"breaker-open"`` / ``"draining"``) and
    ``retry_after`` the seconds a client should wait before retrying.
    """

    code = "unavailable"
    http_status = 503

    def __init__(self, message: str, *, reason: str = "unavailable",
                 retry_after: float = 1.0, **details) -> None:
        super().__init__(message, reason=reason,
                         retry_after=retry_after, **details)
        self.reason = reason
        self.retry_after = retry_after


class Backpressure(ServiceError):
    """The admission queue is full: the typed 429-equivalent.

    Carries the observed ``queue_depth``, the configured
    ``queue_limit``, and ``retry_after`` (seconds, an estimate from the
    service's recent per-job wall clock) — enough for a client to back
    off predictably instead of retry-hammering.
    """

    code = "backpressure"
    http_status = 429

    def __init__(self, message: str, *, queue_depth: int,
                 queue_limit: int, retry_after: float) -> None:
        super().__init__(message, queue_depth=queue_depth,
                         queue_limit=queue_limit, retry_after=retry_after)
        self.queue_depth = queue_depth
        self.queue_limit = queue_limit
        self.retry_after = retry_after


#: code -> class, for client-side rehydration.
_ERROR_TYPES: dict[str, type[ServiceError]] = {
    cls.code: cls
    for cls in (ServiceError, RequestInvalid, NotFound, Backpressure,
                PayloadTooLarge, ServiceUnavailable)
}


def error_to_dict(err: ServiceError) -> dict:
    return {"schema": API_SCHEMA, "error": err.code,
            "message": err.message, "details": err.details}


def error_from_dict(data: dict) -> ServiceError:
    """Rebuild the typed error a server serialized (unknown codes
    degrade to the :class:`ServiceError` base, never a KeyError)."""
    code = data.get("error", "service-error")
    message = str(data.get("message", code))
    details = data.get("details") or {}
    cls = _ERROR_TYPES.get(code, ServiceError)
    if cls is Backpressure:
        return Backpressure(
            message,
            queue_depth=int(details.get("queue_depth", 0)),
            queue_limit=int(details.get("queue_limit", 0)),
            retry_after=float(details.get("retry_after", 1.0)))
    if cls is ServiceUnavailable:
        extra = {k: v for k, v in details.items()
                 if k not in ("reason", "retry_after")}
        return ServiceUnavailable(
            message,
            reason=str(details.get("reason", "unavailable")),
            retry_after=float(details.get("retry_after", 1.0)),
            **extra)
    err = cls(message, **details)
    return err


# ------------------------------------------------------------- job specs

def _require(cond: bool, message: str, **details) -> None:
    if not cond:
        raise RequestInvalid(message, **details)


@dataclass(frozen=True)
class JobSpec:
    """One requested simulation point: ``(workload, config, scale)``.

    ``config`` is a *named* configuration from
    :func:`repro.core.config.named_configs` — names, not raw field
    bags, are the wire contract, so a fingerprint computed server-side
    is bit-identical to one computed by any CLI using the same name.
    """

    workload: str
    config: str = "baseline"
    scale: int = 1

    def to_dict(self) -> dict:
        return {"workload": self.workload, "config": self.config,
                "scale": self.scale}

    @classmethod
    def from_dict(cls, data: object) -> "JobSpec":
        _require(isinstance(data, dict), "job spec must be an object")
        workload = data.get("workload")
        _require(isinstance(workload, str) and bool(workload),
                 "job spec needs a workload name")
        config = data.get("config", "baseline")
        _require(isinstance(config, str), "config must be a name string")
        scale = data.get("scale", 1)
        _require(isinstance(scale, int) and not isinstance(scale, bool)
                 and scale >= 1,
                 f"scale must be a positive integer, got {scale!r}")
        return cls(workload=workload, config=config, scale=scale)

    def resolve(self) -> Job:
        """The engine :class:`~repro.exec.jobs.Job` this spec names;
        raises :class:`RequestInvalid` on unknown workload/config."""
        from repro.workloads.registry import all_workloads
        known = {w.name for w in all_workloads()}
        _require(self.workload in known,
                 f"unknown workload {self.workload!r}",
                 known=sorted(known))
        configs = named_configs()
        _require(self.config in configs,
                 f"unknown config {self.config!r}",
                 known=sorted(configs))
        return Job(self.workload, configs[self.config], self.scale)

    def fingerprint(self) -> str:
        return self.resolve().fingerprint()


# ------------------------------------------------------- request/response

@dataclass(frozen=True)
class SubmitRequest:
    """A sweep submission: a batch of job specs plus execution hints.

    ``deadline_seconds`` is the client's total budget for the sweep:
    the service arms a monotonic deadline at admission and decrements
    the remaining budget into each job's engine timeout at dispatch; a
    job whose budget is spent before it starts fails typed with
    :data:`ERR_DEADLINE` instead of running anyway.
    """

    jobs: tuple[JobSpec, ...]
    backend: str = "reference"
    deadline_seconds: float | None = None
    schema: str = API_SCHEMA

    def to_dict(self) -> dict:
        doc = {"schema": self.schema, "backend": self.backend,
               "jobs": [spec.to_dict() for spec in self.jobs]}
        if self.deadline_seconds is not None:
            doc["deadline_seconds"] = self.deadline_seconds
        return doc

    @classmethod
    def from_dict(cls, data: object) -> "SubmitRequest":
        _require(isinstance(data, dict), "submission must be an object")
        schema = data.get("schema")
        _require(schema == API_SCHEMA,
                 f"unsupported schema {schema!r} "
                 f"(this service speaks {API_SCHEMA})")
        backend = data.get("backend", "reference")
        _require(backend in BACKENDS,
                 f"backend must be one of {BACKENDS}, "
                 f"got {backend!r}")
        deadline = data.get("deadline_seconds")
        if deadline is not None:
            _require(isinstance(deadline, (int, float))
                     and not isinstance(deadline, bool)
                     and 0 < deadline <= MAX_DEADLINE_SECONDS,
                     f"deadline_seconds must be in (0, "
                     f"{MAX_DEADLINE_SECONDS:.0f}], got {deadline!r}")
            deadline = float(deadline)
        raw_jobs = data.get("jobs")
        _require(isinstance(raw_jobs, list) and len(raw_jobs) >= 1,
                 "submission needs a non-empty jobs list")
        _require(len(raw_jobs) <= MAX_JOBS_PER_SWEEP,
                 f"sweep exceeds {MAX_JOBS_PER_SWEEP} jobs "
                 f"({len(raw_jobs)} submitted); split it client-side",
                 submitted=len(raw_jobs), limit=MAX_JOBS_PER_SWEEP)
        return cls(jobs=tuple(JobSpec.from_dict(j) for j in raw_jobs),
                   backend=backend, deadline_seconds=deadline,
                   schema=API_SCHEMA)


@dataclass(frozen=True)
class JobStatus:
    """One job's service-side state, as reported to clients."""

    spec: JobSpec
    fingerprint: str
    state: str = QUEUED
    source: str | None = None       # fresh | coalesced | store (terminal)
    error: str | None = None        # set when state == failed
    error_code: str | None = None   # stable code from JOB_ERROR_CODES

    def to_dict(self) -> dict:
        return {"spec": self.spec.to_dict(),
                "fingerprint": self.fingerprint, "state": self.state,
                "source": self.source, "error": self.error,
                "error_code": self.error_code}

    @classmethod
    def from_dict(cls, data: object) -> "JobStatus":
        _require(isinstance(data, dict), "job status must be an object")
        state = data.get("state")
        _require(state in JOB_STATES, f"unknown job state {state!r}")
        fingerprint = data.get("fingerprint")
        _require(isinstance(fingerprint, str) and bool(fingerprint),
                 "job status needs a fingerprint")
        return cls(spec=JobSpec.from_dict(data.get("spec")),
                   fingerprint=fingerprint, state=state,
                   source=data.get("source"), error=data.get("error"),
                   error_code=data.get("error_code"))

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED)


@dataclass(frozen=True)
class SweepStatus:
    """The whole sweep's state: id, per-job statuses, rollup flags."""

    sweep_id: str
    statuses: tuple[JobStatus, ...] = field(default_factory=tuple)
    schema: str = API_SCHEMA

    @property
    def done(self) -> bool:
        return all(s.terminal for s in self.statuses)

    @property
    def ok(self) -> bool:
        return all(s.state == DONE for s in self.statuses)

    def to_dict(self) -> dict:
        return {"schema": self.schema, "sweep_id": self.sweep_id,
                "done": self.done, "ok": self.ok,
                "jobs": [s.to_dict() for s in self.statuses]}

    @classmethod
    def from_dict(cls, data: object) -> "SweepStatus":
        _require(isinstance(data, dict), "sweep status must be an object")
        sweep_id = data.get("sweep_id")
        _require(isinstance(sweep_id, str) and bool(sweep_id),
                 "sweep status needs a sweep_id")
        raw = data.get("jobs")
        _require(isinstance(raw, list), "sweep status needs a jobs list")
        return cls(sweep_id=sweep_id,
                   statuses=tuple(JobStatus.from_dict(j) for j in raw),
                   schema=API_SCHEMA)


#: A submission acknowledgment is the sweep's initial status — one
#: type, not two that drift.
SubmitResponse = SweepStatus
