"""Simulation jobs: the unit of work the run engine schedules.

A :class:`Job` names one ``(workload, config, scale)`` simulation under
the paper's methodology (fast-forward warmup, then the detailed
window).  Jobs are hashable — a batch's results are keyed by
:attr:`Job.key` — and carry a stable content fingerprint
(:meth:`Job.fingerprint`) that keys the persistent on-disk cache and
the obs manifest filenames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import BASELINE, MachineConfig


@dataclass(frozen=True)
class Job:
    """One simulation to run (or fetch from a cache)."""

    workload: str
    config: MachineConfig = field(default_factory=lambda: BASELINE)
    scale: int = 1

    @property
    def key(self) -> tuple:
        """In-process result key (hash-based; not stable across runs)."""
        return (self.workload, self.config, self.scale)

    def fingerprint(self) -> str:
        """Stable content key: workload name, scale, and the config's
        canonical digest — identical across processes and sessions."""
        return f"{self.workload}-x{self.scale}-{self.config.fingerprint()}"

    def stem(self) -> str:
        """Filename stem for this job's artifacts (cache entry, obs
        manifest): short enough for directories, still collision-safe."""
        return f"{self.workload}-{self.config.fingerprint()[:10]}-x{self.scale}"


def dedupe(jobs: list[Job]) -> list[Job]:
    """Distinct jobs in first-seen order (figures share runs — e.g.
    Figures 6 and 7 request the same baseline suite)."""
    seen: set[tuple] = set()
    unique: list[Job] = []
    for job in jobs:
        if job.key not in seen:
            seen.add(job.key)
            unique.append(job)
    return unique
