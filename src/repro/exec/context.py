"""Run context: everything about *how* to run that is not the job.

The obs directory, cache policy, and parallelism travel explicitly as
a :class:`RunContext` through
:func:`repro.experiments.base.run_workload` and the
:class:`~repro.exec.engine.RunEngine` — never as module-global state.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


#: Valid simulation backends (see :attr:`RunContext.backend`).
BACKENDS = ("reference", "fast")

#: Valid on-disk cache layouts (see :attr:`RunContext.cache_layout`).
CACHE_LAYOUTS = ("flat", "cas")


@dataclass(frozen=True)
class RunContext:
    """Execution policy for a batch of simulation jobs."""

    #: directory for obs run manifests (None = no obs instrumentation).
    obs_dir: Path | None = None
    #: simulation backend: ``"reference"`` (the cycle-level
    #: :class:`~repro.core.machine.Machine`) or ``"fast"`` (the
    #: two-phase :class:`~repro.fastsim.machine.FastMachine`, bit-exact
    #: by contract; falls back to the reference when obs
    #: instrumentation is requested, since probes only exist there).
    #: ``repro-equivalence`` is what compares the two.
    backend: str = "reference"
    #: directory for the persistent result cache (None = memory only).
    cache_dir: Path | None = None
    #: on-disk layout under ``cache_dir``: ``"flat"`` (one directory of
    #: entries — the CLI default) or ``"cas"`` (the sharded
    #: content-addressed store, :class:`~repro.exec.shards.
    #: ShardedResultCache` — what ``repro-serve`` uses so concurrent
    #: tenants fan out across shards).  Entry bytes are identical in
    #: both layouts; only the directory structure differs.
    cache_layout: str = "flat"
    #: consult/populate the in-process memo and the on-disk cache.
    use_cache: bool = True
    #: ignore existing cache entries and overwrite them with fresh runs.
    refresh: bool = False
    #: worker processes for fresh simulations (1 = run in-process).
    jobs: int = 1
    #: per-job wall-clock timeout in seconds (None = wait forever).
    #: Enforced only in pooled mode (``jobs > 1``): an in-process run
    #: cannot be preempted.
    timeout: float | None = None
    #: re-attempts per job after the first failed try.
    retries: int = 2
    #: base backoff before the first retry, in seconds (grows
    #: exponentially with deterministic jitter; see
    #: :class:`repro.robust.retry.RetryPolicy`).
    backoff: float = 0.05
    #: fault tokens for the chaos harness, as ``(workload, token)``
    #: pairs — the matching worker applies the fault before simulating
    #: (:mod:`repro.robust.faults`).  Dicts are accepted and frozen.
    faults: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, "
                             f"got {self.backend!r}")
        if self.cache_layout not in CACHE_LAYOUTS:
            raise ValueError(f"cache_layout must be one of "
                             f"{CACHE_LAYOUTS}, got {self.cache_layout!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if isinstance(self.faults, dict):
            object.__setattr__(self, "faults",
                               tuple(sorted(self.faults.items())))
        else:
            object.__setattr__(self, "faults", tuple(
                (str(w), str(t)) for w, t in self.faults))
        # Accept plain strings for the directories.
        if self.obs_dir is not None and not isinstance(self.obs_dir, Path):
            object.__setattr__(self, "obs_dir", Path(self.obs_dir))
        if (self.cache_dir is not None
                and not isinstance(self.cache_dir, Path)):
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))

    @property
    def wants_obs(self) -> bool:
        return self.obs_dir is not None

    def fault_for(self, workload: str) -> str | None:
        """The injected-fault token for a workload, if any."""
        for name, token in self.faults:
            if name == workload:
                return token
        return None
