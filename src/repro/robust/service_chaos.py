"""Service-tier chaos: crash, corrupt, stall, and flood the service.

Each scenario arms one service-level fault — a worker thread dying
mid-sweep, a torn or bit-flipped journal record, a corrupted CAS shard
entry read concurrently, a progress-stream subscriber that never
reads, a malformed or oversized request — and classifies the outcome
with the same verdicts the simulator-tier harness uses
(:mod:`repro.robust.chaos`):

* **detected** — the fault surfaced typed: a ``worker-crash`` job
  failure, a 503 with ``reason="breaker-open"``, a counted torn tail /
  bad record, a quarantined entry, a typed 400/413 — *and* every
  result the service went on to serve was byte-identical to a local
  engine run (the architected truth);
* **masked** — the fault armed but provably changed nothing (a stalled
  subscriber that never slowed the sweep);
* **silent** — the fault was swallowed: wrong bytes served, an untyped
  failure, a crash that wedged the service.  Failure.
* **unarmed** — the scenario could not arm its fault (reported, never
  counted as success).

Every scenario is hermetic: it builds its own service (and, where the
fault lives in the transport, its own real HTTP front end on a private
event loop) inside a temporary directory, and compares served payloads
against :func:`_expected_bytes` — canonical result bytes computed by a
direct :class:`~repro.exec.engine.RunEngine` run with the process memo
disabled, so "byte-identical" is proven against a true re-simulation,
never against a shared in-memory object.
"""

from __future__ import annotations

import asyncio
import json
import socket
import tempfile
import threading
from pathlib import Path

from repro.exec.context import RunContext
from repro.exec.engine import RunEngine, clear_memo
from repro.exec.serialize import result_to_dict
from repro.exec.shards import ShardedResultCache
from repro.perf.metrics import get_registry
from repro.robust.chaos import (
    DETECTED,
    MASKED,
    SILENT,
    UNARMED,
    ChaosOutcome,
    derive_seed,
)
from repro.robust.inject import corrupt_file
from repro.service.api import (
    ERR_WORKER_CRASH,
    FAILED,
    JobSpec,
    NotFound,
    ServiceUnavailable,
    SubmitRequest,
)
from repro.service.http import HttpFrontend
from repro.service.journal import JOURNAL_NAME
from repro.service.service import ExperimentService, canonical_result_bytes

#: Workload every service scenario runs: the fastest in the registry,
#: so the whole suite costs a handful of seconds.
WORKLOAD = "go"

#: Seconds a scenario waits for one sweep to finish before declaring
#: the service wedged (a wedge is a silent failure, not a hang).
_WAIT = 120.0


def _service_ctx(root: Path) -> RunContext:
    """The scenario services run the CAS layout.  Callers pair this
    with :func:`~repro.exec.engine.clear_memo` — the process-wide
    result memo would otherwise serve jobs from memory and bypass the
    very disk/journal tiers the scenarios corrupt."""
    return RunContext(cache_dir=root / "cas", cache_layout="cas",
                      obs_dir=None, jobs=1)


def _expected_bytes(workload: str = WORKLOAD) -> bytes:
    """Canonical result bytes from a direct local engine run — the
    truth every scenario's served payload is compared against."""
    job = JobSpec(workload=workload).resolve()
    clear_memo()
    ctx = RunContext(cache_dir=None, obs_dir=None, jobs=1)
    result = RunEngine(ctx).run_jobs([job])[job.key]
    return canonical_result_bytes(result_to_dict(result))


def _go_sweep(**kwargs) -> SubmitRequest:
    return SubmitRequest(jobs=(JobSpec(workload=WORKLOAD),), **kwargs)


def _classify(name: str, seed: int, verdict: str, *, injections: int = 1,
              violations: int = 0, detail: str = "") -> ChaosOutcome:
    get_registry().counter(f"chaos.{verdict}").inc()
    return ChaosOutcome(WORKLOAD, name, seed, verdict,
                        injections=injections, violations=violations,
                        detail=detail)


# ------------------------------------------------------- worker faults


class _CrashingService(ExperimentService):
    """Worker thread raises inside the dispatch path for the first
    ``crashes`` jobs it picks up (then behaves)."""

    def __init__(self, *args, crashes: int = 1, **kwargs) -> None:
        self._crashes_left = crashes
        super().__init__(*args, **kwargs)

    def _before_execute(self, entry) -> None:
        if self._crashes_left > 0:
            self._crashes_left -= 1
            raise RuntimeError("chaos: worker thread killed mid-sweep")


def worker_death(root: Path, seed: int, expected: bytes) -> ChaosOutcome:
    """A worker thread dies mid-sweep: the job must fail *typed*
    (``worker-crash``), the thread must survive to serve the retry,
    and the retry must land byte-identical."""
    name = "svc-worker-death"
    clear_memo()
    service = _CrashingService(_service_ctx(root), workers=1,
                               breaker_threshold=100,
                               journal_dir=None, crashes=1).start()
    try:
        first = service.wait(service.submit(_go_sweep()).sweep_id,
                             timeout=_WAIT)
        job = first.statuses[0]
        if job.state != FAILED or job.error_code != ERR_WORKER_CRASH:
            return _classify(
                name, seed, SILENT,
                detail=f"crash not typed: state={job.state} "
                       f"error_code={job.error_code}")
        retry = service.wait(service.submit(_go_sweep()).sweep_id,
                             timeout=_WAIT)
        if not retry.ok:
            return _classify(name, seed, SILENT,
                             detail="retry after worker crash failed: "
                                    f"{retry.statuses[0].error}")
        payload = service.result_bytes(retry.statuses[0].fingerprint)
        if payload != expected:
            return _classify(name, seed, SILENT,
                             detail="retry served bytes differing from "
                                    "the local engine run")
        return _classify(name, seed, DETECTED, violations=1,
                         detail="job failed typed worker-crash; retry "
                                "on a surviving worker byte-identical")
    finally:
        service.shutdown()


class _AlwaysCrashingService(ExperimentService):
    """Every dispatch crashes the worker (breaker-trip scenario)."""

    def _before_execute(self, entry) -> None:
        raise RuntimeError("chaos: worker crash")


def breaker_trip(root: Path, seed: int, expected: bytes) -> ChaosOutcome:
    """N consecutive worker crashes must trip the circuit breaker:
    the next submission is a typed 503 with ``reason="breaker-open"``,
    never an accepted-then-lost sweep."""
    name = "svc-breaker-trip"
    service = _AlwaysCrashingService(
        _service_ctx(root), workers=1, breaker_threshold=2,
        breaker_cooldown=60.0, journal_dir=None).start()
    try:
        for scale in (1, 2):
            sweep = service.submit(SubmitRequest(
                jobs=(JobSpec(workload=WORKLOAD, scale=scale),)))
            service.wait(sweep.sweep_id, timeout=_WAIT)
        try:
            service.submit(SubmitRequest(
                jobs=(JobSpec(workload=WORKLOAD, scale=3),)))
        except ServiceUnavailable as err:
            if err.reason == "breaker-open" and err.http_status == 503:
                return _classify(
                    name, seed, DETECTED, injections=2, violations=1,
                    detail=f"breaker open after 2 crashes; typed 503, "
                           f"retry_after={err.retry_after}")
            return _classify(name, seed, SILENT, injections=2,
                             detail=f"503 carried reason={err.reason!r}, "
                                    f"expected breaker-open")
        return _classify(name, seed, SILENT, injections=2,
                         detail="breaker did not trip after 2 "
                                "consecutive worker crashes")
    finally:
        service.shutdown()


# ------------------------------------------------------ journal faults


def _journaled_submissions(root: Path) -> tuple[Path, str]:
    """Admit two sweeps of the same job into a journal without ever
    starting workers, then shut down (parking the queued job).  The
    journal lines are then: start, admit sweep-1, admit sweep-2 (it
    coalesces), park.  Returns (journal path, fingerprint)."""
    journal_dir = root / "journal"
    service = ExperimentService(_service_ctx(root), workers=1,
                                journal_dir=journal_dir)
    first = service.submit(_go_sweep())
    service.submit(_go_sweep())
    service.shutdown()
    return journal_dir / JOURNAL_NAME, first.statuses[0].fingerprint


def _resume_and_check(root: Path, sweep_ids: list[str],
                      expected: bytes) -> str | None:
    """Restart a service over the (damaged) journal, wait for the
    given sweeps, compare served bytes.  None on success, else the
    failure detail."""
    clear_memo()
    service = ExperimentService(_service_ctx(root), workers=1,
                                journal_dir=root / "journal").start()
    try:
        for sweep_id in sweep_ids:
            status = service.wait(sweep_id, timeout=_WAIT)
            if not status.done:
                return f"{sweep_id} never finished after resume"
            if not status.ok:
                return (f"{sweep_id} failed after resume: "
                        f"{status.statuses[0].error}")
            payload = service.result_bytes(
                status.statuses[0].fingerprint)
            if payload != expected:
                return (f"{sweep_id} served bytes differing from the "
                        f"local engine run")
        return None
    finally:
        service.shutdown()


def journal_torn_tail(root: Path, seed: int,
                      expected: bytes) -> ChaosOutcome:
    """kill -9 mid-append leaves a half-written final journal line:
    replay must count the torn tail, keep everything before it, and
    resume both sweeps to byte-identical results."""
    name = "svc-journal-torn"
    path, _ = _journaled_submissions(root)
    raw = path.read_bytes()
    if not raw.endswith(b"\n") or len(raw) < 16:
        return _classify(name, seed, UNARMED,
                         detail="journal too small to tear")
    path.write_bytes(raw[:-10])         # half-written final record
    torn_counter = get_registry().counter("service.journal.torn_tail")
    before = torn_counter.value
    detail = _resume_and_check(root, ["sweep-000001", "sweep-000002"],
                               expected)
    if detail is not None:
        return _classify(name, seed, SILENT, detail=detail)
    if torn_counter.value <= before:
        return _classify(name, seed, SILENT,
                         detail="torn tail resumed but never counted")
    return _classify(name, seed, DETECTED, violations=1,
                     detail="torn tail counted; both sweeps resumed "
                            "byte-identical")


def journal_bitflip(root: Path, seed: int,
                    expected: bytes) -> ChaosOutcome:
    """A flipped bit inside a mid-file journal record must fail that
    record's digest: the record is counted and skipped (its sweep is
    visibly lost, a 404), and the surviving sweep still resumes to
    byte-identical results — never replayed as wrong state."""
    name = "svc-journal-bitflip"
    path, _ = _journaled_submissions(root)
    lines = path.read_bytes().split(b"\n")
    if len(lines) < 3:
        return _classify(name, seed, UNARMED,
                         detail="journal too small to corrupt")
    # Flip the low bit of one byte inside sweep-1's admission record
    # (line index 1; line 0 is service.start).  The low bit keeps the
    # damage inside the line — no byte can become a newline — so this
    # is unambiguously a *mid-file* corruption, not a torn tail.
    target = bytearray(lines[1])
    at = derive_seed(seed, WORKLOAD, name) % len(target)
    target[at] ^= 0x01
    lines[1] = bytes(target)
    path.write_bytes(b"\n".join(lines))
    bad_counter = get_registry().counter("service.journal.bad_records")
    before = bad_counter.value
    clear_memo()
    service = ExperimentService(_service_ctx(root), workers=1,
                                journal_dir=root / "journal").start()
    try:
        try:
            service.status("sweep-000001")
            # The corrupted admission record must be *skipped*, so the
            # reborn service cannot know this sweep: reaching here
            # means damaged state was replayed as real.
            return _classify(name, seed, SILENT,
                             detail="corrupted admission record was "
                                    "replayed as state")
        except NotFound:
            pass
        status = service.wait("sweep-000002", timeout=_WAIT)
        if not status.ok:
            return _classify(name, seed, SILENT,
                             detail="surviving sweep failed after "
                                    "resume")
        payload = service.result_bytes(status.statuses[0].fingerprint)
    finally:
        service.shutdown()
    if payload != expected:
        return _classify(name, seed, SILENT,
                         detail="surviving sweep served bytes "
                                "differing from the local engine run")
    if bad_counter.value <= before:
        return _classify(name, seed, SILENT,
                         detail="corrupt record never counted")
    return _classify(name, seed, DETECTED, violations=1,
                     detail="bad record counted and skipped; corrupted "
                            "sweep visibly lost; survivor "
                            "byte-identical")


# ---------------------------------------------------------- CAS faults


def cas_shard_corrupt(root: Path, seed: int,
                      expected: bytes) -> ChaosOutcome:
    """A corrupted entry inside a CAS shard, read concurrently: every
    reader must see a miss (exactly one quarantine, no crash), and a
    resubmission must re-simulate to byte-identical results."""
    name = "svc-cas-corrupt"
    clear_memo()
    ctx = _service_ctx(root)
    service = ExperimentService(ctx, workers=1, journal_dir=None).start()
    try:
        status = service.wait(service.submit(_go_sweep()).sweep_id,
                              timeout=_WAIT)
    finally:
        service.shutdown()
    if not status.ok:
        return _classify(name, seed, UNARMED,
                         detail="clean run failed; nothing stored")
    fingerprint = status.statuses[0].fingerprint
    store = ShardedResultCache(ctx.cache_dir)
    entries = store.entries()
    if not entries:
        return _classify(name, seed, UNARMED,
                         detail="no CAS entry was stored")
    detail = corrupt_file(entries[0], mode="bitflip",
                          seed=derive_seed(seed, WORKLOAD, name))

    served: list = []
    errors: list[BaseException] = []

    def read() -> None:
        try:
            served.append(store.load_by_fingerprint(fingerprint))
        except BaseException as err:  # noqa: BLE001 — the proof target
            errors.append(err)

    readers = [threading.Thread(target=read) for _ in range(4)]
    for thread in readers:
        thread.start()
    for thread in readers:
        thread.join(timeout=60)
    if errors:
        return _classify(name, seed, SILENT,
                         detail=f"concurrent read crashed: "
                                f"{type(errors[0]).__name__}: {errors[0]}")
    if any(entry is not None for entry in served):
        return _classify(name, seed, SILENT,
                         detail=f"{detail}; corrupt entry was served")
    quarantined = store.quarantined()
    if not quarantined:
        return _classify(name, seed, SILENT,
                         detail=f"{detail}; entry was not quarantined")
    clear_memo()                        # the reborn run must simulate
    reborn = ExperimentService(_service_ctx(root), workers=1,
                               journal_dir=None).start()
    try:
        again = reborn.wait(reborn.submit(_go_sweep()).sweep_id,
                            timeout=_WAIT)
        if not again.ok:
            return _classify(name, seed, SILENT,
                             detail="re-simulation after quarantine "
                                    "failed")
        payload = reborn.result_bytes(again.statuses[0].fingerprint)
    finally:
        reborn.shutdown()
    if payload != expected:
        return _classify(name, seed, SILENT,
                         detail="re-simulation served bytes differing "
                                "from the local engine run")
    return _classify(name, seed, DETECTED,
                     violations=len(quarantined),
                     detail=f"{detail}; quarantined under concurrent "
                            f"reads, re-simulated byte-identical")


# ------------------------------------------------------ transport faults


class _HttpHarness:
    """A real :class:`HttpFrontend` on a private event-loop thread,
    so transport scenarios exercise actual sockets."""

    def __init__(self, service: ExperimentService) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        name="chaos-http", daemon=True)
        self._thread.start()
        self.frontend = HttpFrontend(service, "127.0.0.1", 0)
        future = asyncio.run_coroutine_threadsafe(
            self.frontend.start(), self._loop)
        self.host, self.port = future.result(timeout=30)

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.frontend.close(), self._loop).result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()


def _raw_request(host: str, port: int, request: bytes,
                 timeout: float = 60.0) -> tuple[int, bytes]:
    """One raw HTTP exchange; returns (status code, body bytes)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    head, _, body = response.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    return int(status_line[1]), body


def stalled_stream(root: Path, seed: int,
                   expected: bytes) -> ChaosOutcome:
    """A progress-stream subscriber that never reads: the sweep must
    finish unimpeded, a healthy subscriber must still get the full
    stream, and the served bytes must stay identical — the stall is
    provably *masked*."""
    name = "svc-stalled-stream"
    clear_memo()
    service = ExperimentService(_service_ctx(root), workers=1,
                                journal_dir=None).start()
    harness = _HttpHarness(service)
    stalled = None
    try:
        sweep = service.submit(_go_sweep())
        stalled = socket.create_connection((harness.host, harness.port),
                                           timeout=60)
        stalled.sendall(f"GET /v1/sweeps/{sweep.sweep_id}/events "
                        f"HTTP/1.1\r\nHost: chaos\r\n\r\n".encode())
        # Never read: the response sits unconsumed in the socket while
        # the sweep runs.
        status = service.wait(sweep.sweep_id, timeout=_WAIT)
        if not status.ok:
            return _classify(name, seed, SILENT,
                             detail="sweep failed under a stalled "
                                    "subscriber")
        code, body = _raw_request(
            harness.host, harness.port,
            f"GET /v1/sweeps/{sweep.sweep_id}/events HTTP/1.1\r\n"
            f"Host: chaos\r\n\r\n".encode())
        if code != 200 or b'"sweep.end"' not in body:
            return _classify(name, seed, SILENT,
                             detail="healthy subscriber's stream was "
                                    "incomplete")
        payload = service.result_bytes(status.statuses[0].fingerprint)
        if payload != expected:
            return _classify(name, seed, SILENT,
                             detail="served bytes differ from the "
                                    "local engine run")
        return _classify(name, seed, MASKED,
                         detail="stalled subscriber never slowed the "
                                "sweep; healthy stream complete")
    finally:
        if stalled is not None:
            stalled.close()
        harness.close()
        service.shutdown()


def malformed_request(root: Path, seed: int,
                      expected: bytes) -> ChaosOutcome:
    """A non-JSON POST body must come back as the typed 400, never a
    dropped connection or a 500."""
    name = "svc-malformed-request"
    service = ExperimentService(_service_ctx(root), workers=1,
                                journal_dir=None).start()
    harness = _HttpHarness(service)
    try:
        body = b"{this is not json"
        code, payload = _raw_request(
            harness.host, harness.port,
            b"POST /v1/sweeps HTTP/1.1\r\nHost: chaos\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        document = json.loads(payload.decode("utf-8"))
        if code == 400 and document.get("error") == "invalid-request":
            return _classify(name, seed, DETECTED, violations=1,
                             detail="typed 400 invalid-request")
        return _classify(name, seed, SILENT,
                         detail=f"got {code} error="
                                f"{document.get('error')!r}")
    finally:
        harness.close()
        service.shutdown()


def oversized_request(root: Path, seed: int,
                      expected: bytes) -> ChaosOutcome:
    """A request claiming a body over the 8 MB cap must come back as
    the typed 413 with the limit in the body."""
    name = "svc-oversized-request"
    service = ExperimentService(_service_ctx(root), workers=1,
                                journal_dir=None).start()
    harness = _HttpHarness(service)
    try:
        code, payload = _raw_request(
            harness.host, harness.port,
            b"POST /v1/sweeps HTTP/1.1\r\nHost: chaos\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 9437184\r\n\r\n")
        document = json.loads(payload.decode("utf-8"))
        details = document.get("details") or {}
        if (code == 413 and document.get("error") == "payload-too-large"
                and details.get("limit")):
            return _classify(name, seed, DETECTED, violations=1,
                             detail=f"typed 413, limit="
                                    f"{details['limit']}")
        return _classify(name, seed, SILENT,
                         detail=f"got {code} error="
                                f"{document.get('error')!r}")
    finally:
        harness.close()
        service.shutdown()


# -------------------------------------------------------------- suite

#: Scenario catalog, in presentation order.
SERVICE_SCENARIOS = {
    "svc-worker-death": worker_death,
    "svc-breaker-trip": breaker_trip,
    "svc-journal-torn": journal_torn_tail,
    "svc-journal-bitflip": journal_bitflip,
    "svc-cas-corrupt": cas_shard_corrupt,
    "svc-stalled-stream": stalled_stream,
    "svc-malformed-request": malformed_request,
    "svc-oversized-request": oversized_request,
}

#: What each scenario owes ("detected" or "masked"), for the catalog.
SCENARIO_EXPECT = {
    name: (MASKED if name == "svc-stalled-stream" else DETECTED)
    for name in SERVICE_SCENARIOS
}


def service_chaos_suite(seed: int = 0,
                        scenarios: list[str] | None = None,
                        progress=None) -> list[ChaosOutcome]:
    """Run the service scenario matrix; one :class:`ChaosOutcome` per
    scenario.  A scenario that *itself* crashes is a silent failure —
    a broken proof is not a passing one."""
    names = list(SERVICE_SCENARIOS) if scenarios is None else list(
        scenarios)
    unknown = [n for n in names if n not in SERVICE_SCENARIOS]
    if unknown:
        raise ValueError(f"unknown service scenario(s) "
                         f"{', '.join(unknown)} "
                         f"(known: {', '.join(SERVICE_SCENARIOS)})")
    if progress is not None:
        progress("service reference run (local engine)")
    expected = _expected_bytes()
    outcomes: list[ChaosOutcome] = []
    for name in names:
        trial_seed = derive_seed(seed, WORKLOAD, name)
        try:
            with tempfile.TemporaryDirectory(
                    prefix=f"chaos-{name}-") as tmp:
                outcome = SERVICE_SCENARIOS[name](
                    Path(tmp), trial_seed, expected)
        except Exception as err:  # noqa: BLE001 — a crashed proof fails
            outcome = _classify(
                name, trial_seed, SILENT,
                detail=f"scenario crashed: "
                       f"{type(err).__name__}: {err}")
        outcomes.append(outcome)
        if progress is not None:
            progress(f"{name}: {outcome.verdict}")
    return outcomes
