"""The chaos harness: prove every injected fault is masked or detected.

For one (workload, injector, seed) triple, :func:`chaos_run` executes
the workload twice under identical configuration:

1. a **reference** run carrying a collect-mode :class:`GuardSet`
   (which must stay clean — the no-false-positives half of the
   contract) and a :class:`CommitChecksum` over the committed
   instruction stream;
2. a **faulted** run with the injector installed innermost (so guards
   and checksum observe the perturbed state), the same guards, and the
   same checksum.

The committed-stream checksum — sha256 over ``(seq, index, result)``
of every retired instruction, hashed at *commit* time — is the
architected truth both runs are compared on.  It is timing-independent
(commit order is program order), so injectors that only change
*performance* (the lawful ``tag-conservative``) compare equal, while
any corruption that escapes the guards shows up as a checksum
mismatch: a **silent** corruption, the one verdict the suite treats as
failure.

Verdicts:

* ``detected`` — guards fired on an armed fault that owed detection;
* ``masked`` — armed, no guard fired, committed stream bit-identical
  to the reference (provably benign);
* ``unarmed`` — the injector found no eligible site in the window
  (reported so a silently-never-firing injector is visible);
* ``false-positive`` — guards fired on a fault that owed masking;
* ``silent`` — armed, undetected, committed stream differs.  Failure.

:func:`cache_chaos` covers the disk tier the same way: store a clean
entry, corrupt it on disk (truncate or deterministic bit-flip), re-run,
and demand the engine quarantines the entry and reproduces bit-exact
counters fresh.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.config import BASELINE, MachineConfig
from repro.core.feed import DynInst
from repro.core.machine import Machine
from repro.obs.events import CommitEvent, Event
from repro.perf.metrics import get_registry
from repro.robust.guards import GuardSet
from repro.robust.inject import (
    BaseInjector,
    INJECTOR_TYPES,
    corrupt_file,
    make_injector,
)
from repro.workloads.registry import get_workload, resolve_warmup

#: Verdicts (``SILENT`` and ``FALSE_POSITIVE`` are failures).
DETECTED = "detected"
MASKED = "masked"
UNARMED = "unarmed"
SILENT = "silent"
FALSE_POSITIVE = "false-positive"

#: The chaos configuration: packing + replay on, so the replay-trap
#: machinery the guards watch is actually exercised.
CHAOS_CONFIG = BASELINE.with_packing(replay=True)


class CommitChecksum:
    """sha256 over the committed instruction stream of one machine.

    Captures each :class:`DynInst` as the feed produces it and hashes
    ``(seq, index, result)`` when the instruction *commits* — so late
    mutations (a replay-drop fault rides the writeback stage) are
    seen, and wrong-path instructions never pollute the digest.
    """

    def __init__(self, machine: Machine) -> None:
        self._hash = hashlib.sha256()
        self.committed = 0
        self._by_seq: dict[int, DynInst] = {}
        feed = machine.feed
        original_next = feed.next

        def recording_next() -> DynInst | None:
            dyn = original_next()
            if dyn is not None and not feed.fast_mode:
                self._by_seq[dyn.seq] = dyn
            return dyn

        feed.next = recording_next  # type: ignore[method-assign]
        machine.subscribe(self._on_event)

    def _on_event(self, event: Event) -> None:
        if not isinstance(event, CommitEvent):
            return
        dyn = self._by_seq.pop(event.seq, None)
        if dyn is None:
            return
        result = -1 if dyn.result is None else dyn.result
        self._hash.update(f"{dyn.seq}:{dyn.index}:{result};".encode())
        self.committed += 1

    def digest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class ChaosOutcome:
    """One (workload, injector, seed) chaos verdict."""

    workload: str
    injector: str
    seed: int
    verdict: str
    injections: int = 0
    violations: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict not in (SILENT, FALSE_POSITIVE)


def _reference(workload_name: str, scale: int, window: int | None,
               config: MachineConfig) -> tuple[str, GuardSet]:
    """Clean run: returns (commit checksum, its guard set)."""
    workload = get_workload(workload_name)
    machine = Machine(workload.build(scale), config)
    checksum = CommitChecksum(machine)
    guards = GuardSet(machine, collect=True)
    machine.fast_forward(resolve_warmup(workload, scale))
    machine.run(max_insts=window if window is not None else workload.window)
    return checksum.digest(), guards


def chaos_run(workload_name: str, injector: BaseInjector, seed: int,
              scale: int = 1, window: int | None = None,
              config: MachineConfig = CHAOS_CONFIG,
              reference_digest: str | None = None) -> ChaosOutcome:
    """Execute one chaos trial and classify it.

    ``reference_digest`` lets a suite runner share one clean run across
    every injector for the workload; when omitted the reference run
    (and its guard-cleanliness check) happens here.
    """
    if reference_digest is None:
        reference_digest, ref_guards = _reference(
            workload_name, scale, window, config)
        if not ref_guards.clean:
            first = ref_guards.violations[0]
            get_registry().counter(f"chaos.{FALSE_POSITIVE}").inc()
            return ChaosOutcome(workload_name, injector.name, seed,
                                FALSE_POSITIVE,
                                detail=f"reference run not clean: {first}")

    workload = get_workload(workload_name)
    machine = Machine(workload.build(scale), config)
    # Innermost first: the injector perturbs each DynInst before the
    # checksum and the guards ever see it.
    injector.install(machine)
    checksum = CommitChecksum(machine)
    guards = GuardSet(machine, collect=True)
    machine.fast_forward(resolve_warmup(workload, scale))
    machine.run(max_insts=window if window is not None else workload.window)

    injections = len(injector.injections)
    violations = len(guards.violations)
    detail = ""
    if injections:
        detail = injector.injections[0].detail
    if violations:
        detail = str(guards.violations[0])

    if not injector.armed:
        verdict = UNARMED
    elif violations:
        verdict = (FALSE_POSITIVE if injector.expect == MASKED
                   else DETECTED)
    elif checksum.digest() == reference_digest:
        verdict = MASKED
    else:
        verdict = SILENT
        detail = (f"committed stream diverged with no guard firing "
                  f"({injections} injection(s): {detail})")
    get_registry().counter(f"chaos.{verdict}").inc()
    return ChaosOutcome(workload_name, injector.name, seed, verdict,
                        injections=injections, violations=violations,
                        detail=detail)


def chaos_suite(workloads: list[str], injector_names: list[str],
                seed: int, scale: int = 1,
                window: int | None = None,
                config: MachineConfig = CHAOS_CONFIG,
                progress=None) -> list[ChaosOutcome]:
    """Run the full (workload x injector) matrix at one seed.

    One reference run per workload, shared across its injectors.  The
    per-trial injector seed mixes the suite seed with the workload and
    injector names so trials stay independent but reproducible.
    ``progress`` (optional callable taking one short string) is called
    before each reference run and after each trial — the CLI points it
    at stderr so long matrices show a heartbeat without touching the
    machine-parseable stdout.
    """
    outcomes: list[ChaosOutcome] = []
    for workload_name in workloads:
        if progress is not None:
            progress(f"reference {workload_name}")
        digest, ref_guards = _reference(workload_name, scale, window, config)
        if not ref_guards.clean:
            first = ref_guards.violations[0]
            for name in injector_names:
                get_registry().counter(f"chaos.{FALSE_POSITIVE}").inc()
                outcomes.append(ChaosOutcome(
                    workload_name, name, seed, FALSE_POSITIVE,
                    detail=f"reference run not clean: {first}"))
            continue
        for name in injector_names:
            trial_seed = derive_seed(seed, workload_name, name)
            injector = make_injector(name, seed=trial_seed)
            outcome = chaos_run(
                workload_name, injector, seed, scale=scale, window=window,
                config=config, reference_digest=digest)
            outcomes.append(outcome)
            if progress is not None:
                progress(f"{workload_name} x {name}: {outcome.verdict}")
    return outcomes


def derive_seed(seed: int, workload: str, injector: str) -> int:
    """Stable per-trial seed from the suite seed and trial identity."""
    digest = hashlib.sha256(
        f"{seed}/{workload}/{injector}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def summarize(outcomes: list[ChaosOutcome]) -> dict[str, int]:
    counts = {DETECTED: 0, MASKED: 0, UNARMED: 0,
              SILENT: 0, FALSE_POSITIVE: 0}
    for outcome in outcomes:
        counts[outcome.verdict] += 1
    return counts


# --------------------------------------------------------------- cache tier


def cache_chaos(cache_dir, mode: str = "bitflip",
                seed: int = 0, workload: str = "g721-encode",
                scale: int = 1, ctx=None) -> ChaosOutcome:
    """Corrupt a stored cache entry and demand quarantine + bit-exact
    recovery.

    ``mode``: ``"bitflip"`` XORs one deterministically chosen bit of
    the entry file; ``"truncate"`` cuts the file in half.  ``ctx`` is
    an optional base :class:`~repro.exec.context.RunContext` (the CLI
    threads its shared engine flags through it) — its ``cache_dir`` and
    ``obs_dir`` are overridden, and a ``cas`` cache layout corrupts an
    entry inside its shard, proving per-shard quarantine.
    """
    from dataclasses import replace as _replace

    from repro.core.config import BASELINE as _BASELINE
    from repro.exec.context import RunContext
    from repro.exec.engine import RunEngine
    from repro.exec.jobs import Job

    job = Job(workload=workload, config=_BASELINE, scale=scale)
    if ctx is None:
        ctx = RunContext(cache_dir=cache_dir, obs_dir=None, jobs=1)
    else:
        ctx = _replace(ctx, cache_dir=cache_dir, obs_dir=None,
                       use_cache=True, refresh=False)

    clean = RunEngine(ctx).run_jobs([job])[job.key]
    if ctx.cache_layout == "cas":
        from repro.exec.shards import ShardedResultCache
        entry_paths = sorted(ShardedResultCache(cache_dir).entries())
    else:
        entry_paths = sorted(p for p in cache_dir.glob("*.json"))
    if not entry_paths:
        get_registry().counter(f"chaos.{UNARMED}").inc()
        return ChaosOutcome(workload, f"cache-{mode}", seed, UNARMED,
                            detail="no cache entry was stored")
    path = entry_paths[0]
    detail = corrupt_file(path, mode=mode, seed=seed)

    engine = RunEngine(ctx)
    recovered = engine.run_jobs([job])[job.key]

    quarantined = engine.stats.cache_quarantined
    bit_exact = (recovered.stats.as_dict() == clean.stats.as_dict()
                 and recovered.widths.as_dict() == clean.widths.as_dict())
    if quarantined and bit_exact:
        verdict = DETECTED
    elif bit_exact:
        # The corruption slipped past quarantine yet changed nothing
        # observable — only possible if the entry still decoded to the
        # identical payload, which a nonzero XOR cannot do.
        verdict = SILENT
        detail += " (entry not quarantined)"
    else:
        verdict = SILENT
        detail += " (recovered counters differ from clean run)"
    get_registry().counter(f"chaos.{verdict}").inc()
    return ChaosOutcome(workload, f"cache-{mode}", seed, verdict,
                        injections=1, violations=quarantined,
                        detail=detail)


#: Catalog re-export for the CLI.
ALL_INJECTORS = list(INJECTOR_TYPES)
