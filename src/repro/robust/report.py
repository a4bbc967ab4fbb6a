"""Run reports: per-job outcomes of a fault-tolerant engine batch.

The engine no longer has only two outcomes (every job succeeded /
exception mid-merge).  A :class:`RunReport` records, for every unique
job in a batch, whether it succeeded, how many attempts it took, and
— when it ultimately failed — why, so the experiment suite can degrade
gracefully: render everything that survived, banner what did not, and
exit nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:   # runtime-import-free: the engine imports us
    from repro.exec.jobs import Job

#: Job outcome statuses.
OK = "ok"               # result produced (possibly after retries)
FAILED = "failed"       # every attempt raised (worker exception / dead pool)
TIMED_OUT = "timeout"   # every attempt exceeded the per-job timeout


class SuiteFailure(RuntimeError):
    """Raised by :meth:`RunEngine.run_jobs` when jobs ultimately fail.

    Callers that can degrade gracefully use
    :meth:`RunEngine.run_jobs_report` instead and render what
    survived; everyone else gets this typed error carrying the full
    :class:`RunReport` rather than a raw mid-merge traceback.
    """

    def __init__(self, report: "RunReport") -> None:
        self.report = report
        failed = report.failed
        summary = ", ".join(
            f"{o.job.workload}[{o.status}]" for o in failed[:5])
        if len(failed) > 5:
            summary += f", +{len(failed) - 5} more"
        super().__init__(
            f"{len(failed)} job(s) failed after retries: {summary}")


@dataclass
class JobOutcome:
    """What happened to one unique job across all its attempts."""

    job: Job
    status: str = OK
    #: attempts actually made (1 = first try succeeded; 0 = served from
    #: the disk cache, no execution needed).
    attempts: int = 1
    #: where the result came from: "cache" | "fresh".
    source: str = "fresh"
    #: stringified terminal error for failed/timed-out jobs.
    error: str | None = None
    #: wall-clock spent on this job: cache-tier recall time for served
    #: jobs, summed attempt time (worker-side for successes) otherwise.
    wall_seconds: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def retried(self) -> bool:
        return self.ok and self.attempts > 1


@dataclass
class RunReport:
    """Per-job outcomes for one :meth:`RunEngine.run_jobs_report` batch."""

    outcomes: list[JobOutcome] = field(default_factory=list)

    def add(self, outcome: JobOutcome) -> JobOutcome:
        self.outcomes.append(outcome)
        return outcome

    # ------------------------------------------------------------ queries

    @property
    def ok(self) -> bool:
        """True when every job produced a result."""
        return all(o.ok for o in self.outcomes)

    @property
    def succeeded(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def retried(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.retried]

    @property
    def timed_out(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.status == TIMED_OUT]

    @property
    def failed(self) -> list[JobOutcome]:
        """Jobs with no result (worker failures and timeouts alike)."""
        return [o for o in self.outcomes if not o.ok]

    def outcome_of(self, job: Job) -> JobOutcome | None:
        for outcome in self.outcomes:
            if outcome.job.key == job.key:
                return outcome
        return None

    # ---------------------------------------------------------- rendering

    def banner(self) -> str | None:
        """One-line degradation banner, or None when everything ran."""
        if self.ok:
            return None
        n = len(self.failed)
        return (f"!!! {n} job(s) failed after retries — affected "
                f"figures render partially or not at all")

    def summary_table(self) -> str:
        """Failure summary for the CLI (one row per failed job)."""
        lines = [f"{'workload':14s} {'config':12s} {'status':8s} "
                 f"{'attempts':>8s} {'source':7s} {'wall':>8s}  error"]
        lines.append("-" * len(lines[0]))
        for o in self.failed:
            error = (o.error or "").splitlines()[-1] if o.error else ""
            if len(error) > 48:
                error = error[:45] + "..."
            wall = (f"{o.wall_seconds:7.2f}s"
                    if o.wall_seconds is not None else f"{'-':>8s}")
            lines.append(f"{o.job.workload:14s} "
                         f"{o.job.config.fingerprint()[:10]:12s} "
                         f"{o.status:8s} {o.attempts:8d} "
                         f"{o.source:7s} {wall}  {error}")
        return "\n".join(lines)

    def counts(self) -> dict[str, int]:
        """Summary counters (CLI summary line, tests)."""
        return {
            "jobs": len(self.outcomes),
            "succeeded": len(self.succeeded),
            "retried": len(self.retried),
            "timed_out": len(self.timed_out),
            "failed": len([o for o in self.outcomes
                           if o.status == FAILED]),
        }
