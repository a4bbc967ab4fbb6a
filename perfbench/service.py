"""``service-mixed``: two closed-loop clients against ``repro-serve``.

The server runs as ``repro-serve --port 0 --workers 2 --jobs 1`` with
the journal on and fresh CAS and journal directories.  After one
priming sweep (the fingerprints warm sweeps will resubmit), two client
threads each work through their share of :func:`gen.service_schedule`,
sending the next sweep only when the previous one is verified:

* **cold** (client 0) — a never-seen ``(workload, config, scale)``:
  simulated, journaled, stored in the CAS;
* **warm** (client 1) — a resubmitted fingerprint, answered from the
  store while client 0's simulations run;
* **coalesced** — both clients meet at a barrier and submit the same
  fresh spec at once; the sample is the later of the two.

A sweep's latency runs from submit to every result's bytes fetched
(``GET /v1/results``) and matched against the committed digest.

The traced run replays a smaller schedule twice: against a server
subprocess (untraced) and against an in-process server with the layer
wrappers installed, which also times the journal, CAS and
canonical-bytes calls inside the service.
"""

from __future__ import annotations

import asyncio
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import env
import gen
from ledger import CONTRACT_PER_LAYER, Tracer, estimated_overhead, \
    format_self_times, layer_metrics, self_times, write_trace
from hostspeed import Timed, Window, keep_off_sampler
from report import Outcome
from rules import DigestBook, job_key, percentile

SETUP_PROBES = 6
BARRIER_TIMEOUT = 120.0
#: Think time after each warm sweep: spreads the warm client's reads
#: over the whole run, beside the cold client's simulations, instead
#: of bursting them at the start of each segment.
WARM_THINK_S = 0.02
#: The trace-mode schedule (no tail percentiles are read from it).
TRACE_MIX = {"cold": 20, "pairs": 4, "warm": 100}


# ---------------------------------------------------------------- servers

def spawn_server(workdir: Path, tag: str) -> tuple[subprocess.Popen, str,
                                                   Window]:
    """Start ``repro-serve`` with fresh store and journal directories;
    returns the process, its URL and the set-up window (spawn to the
    first 200 from ``/v1/readyz``)."""
    from repro.service.client import ServiceClient

    t0 = time.perf_counter()
    with open(workdir / f"{tag}.stderr", "wb") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.service.server", "--port", "0",
             "--workers", "2", "--jobs", "1", "--backend", "fast",
             "--cache-dir", str(workdir / f"{tag}-cas"),
             "--journal-dir", str(workdir / f"{tag}-journal")],
            stdout=subprocess.PIPE, stderr=stderr, env=env.child_env(),
            cwd=str(env.ROOT), text=True)
    # The server's threads share one interpreter lock, so one CPU is
    # all they can use at a time.
    keep_off_sampler(process.pid)
    try:
        url = process.stdout.readline().strip()
        if not url.startswith("http://"):
            raise RuntimeError(f"repro-serve did not print its URL "
                               f"(exit code {process.poll()})")
        client = ServiceClient(url, timeout=10)
        deadline = t0 + 60
        while True:
            try:
                if client.ready()[0]:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("repro-serve never became ready")
            time.sleep(0.005)
    except BaseException:
        env.stop(process)
        raise
    return process, url, (t0, time.perf_counter())


class InProcessServer:
    """The service and its HTTP front end in this process (traced run),
    serving on a background event-loop thread."""

    def __init__(self, workdir: Path) -> None:
        from repro.exec.context import RunContext
        from repro.service.http import HttpFrontend
        from repro.service.service import ExperimentService

        ctx = RunContext(backend="fast", cache_dir=workdir / "traced-cas",
                         cache_layout="cas", jobs=1)
        self.service = ExperimentService(
            ctx, workers=2, journal_dir=workdir / "traced-journal").start()
        self.loop = asyncio.new_event_loop()
        self.frontend = HttpFrontend(self.service, "127.0.0.1", 0)
        host, port = self.loop.run_until_complete(self.frontend.start())
        self.url = f"http://{host}:{port}"
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="perfbench-serve", daemon=True)
        self.thread.start()

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self.frontend.close(),
                                         self.loop).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.service.shutdown()
        self.loop.close()


# ---------------------------------------------------------------- clients

@dataclass
class Samples:
    """What the clients measured (merged over both threads)."""

    cold: list[float] = field(default_factory=list)
    #: (start, end) of each cold sweep
    cold_windows: list[Window] = field(default_factory=list)
    warm: list[float] = field(default_factory=list)
    pairs: dict[int, list[float]] = field(default_factory=dict)
    submit: list[float] = field(default_factory=list)
    fetch: list[float] = field(default_factory=list)
    queue_wait: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    rejected: int = 0
    #: (start, end) of the clients' run
    window: Window = (0.0, 0.0)

    def merge(self, other: "Samples") -> None:
        for name in ("cold", "cold_windows", "warm", "submit", "fetch",
                     "queue_wait", "failures"):
            getattr(self, name).extend(getattr(other, name))
        for index, values in other.pairs.items():
            self.pairs.setdefault(index, []).extend(values)
        self.attempted += other.attempted
        self.rejected += other.rejected

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def sweeps(self) -> int:
        return (len(self.cold) + len(self.warm)
                + sum(len(v) for v in self.pairs.values()))


class Client:
    """One closed-loop client: each sweep is verified before the next."""

    def __init__(self, url: str, book: DigestBook) -> None:
        from repro.service.client import ServiceClient
        self.api = ServiceClient(url, timeout=120)
        self.book = book
        self.samples = Samples()

    def sweep(self, specs: list[gen.Spec], kind: str) -> Window | None:
        """Submit, wait, fetch and verify one sweep; returns its (start,
        end) or None if it failed (the failure is recorded)."""
        from repro.service.api import (Backpressure, JobSpec,
                                       ServiceUnavailable, SubmitRequest)
        request = SubmitRequest(
            jobs=tuple(JobSpec(w, c, s) for w, c, s in specs),
            backend="fast")
        label = f"{kind} {' '.join(job_key(*s) for s in specs)}"
        self.samples.attempted += 1
        t0 = time.perf_counter()
        try:
            status = self.api.submit(request)
            submitted = time.perf_counter()
            self.samples.submit.append(submitted - t0)
            if not status.done:
                ok = self._await(status.sweep_id, submitted)
                if not ok:
                    raise RuntimeError("sweep ended not ok")
            for spec, job in zip(specs, status.statuses):
                f0 = time.perf_counter()
                data = self.api.result(job.fingerprint)
                self.samples.fetch.append(time.perf_counter() - f0)
                if not self.book.job_ok(job_key(*spec), data):
                    raise RuntimeError(f"served bytes of {job_key(*spec)} "
                                       f"do not match the digest")
        except (Backpressure, ServiceUnavailable) as err:
            self.samples.rejected += 1
            self.samples.failures.append(f"{label}: rejected: {err}")
            return None
        except Exception as err:  # noqa: BLE001 — counted as failed
            self.samples.failures.append(f"{label}: {type(err).__name__}: "
                                         f"{err}")
            return None
        return t0, time.perf_counter()

    def _await(self, sweep_id: str, submitted: float) -> bool:
        dispatched = False
        for record in self.api.stream(sweep_id):
            if (not dispatched and record.get("record") == "job"
                    and record.get("state") != "queued"):
                dispatched = True
                self.samples.queue_wait.append(time.perf_counter()
                                               - submitted)
            if record.get("record") == "sweep.end":
                return bool(record.get("ok"))
        return False

    def run(self, segments, coalesced, barrier: threading.Barrier) -> None:
        for index, segment in enumerate(segments):
            for kind, spec in segment:
                window = self.sweep([spec], kind)
                if window is not None:
                    getattr(self.samples, kind).append(window[1] - window[0])
                    if kind == "cold":
                        self.samples.cold_windows.append(window)
                if kind == "warm":
                    time.sleep(WARM_THINK_S)
            if index < len(coalesced):
                barrier.wait(BARRIER_TIMEOUT)
                window = self.sweep([coalesced[index]], "coalesced")
                if window is not None:
                    self.samples.pairs.setdefault(index, []).append(
                        window[1] - window[0])


def drive(url: str, schedule: gen.ServiceSchedule,
          book: DigestBook) -> Samples:
    """Prime, then run both clients to the end of the schedule."""
    primer = Client(url, book)
    primer.sweep(list(schedule.priming), "priming")
    clients = [Client(url, book) for _ in schedule.segments]
    barrier = threading.Barrier(len(clients))
    threads = [threading.Thread(target=_guarded, args=(c, s, schedule,
                                                       barrier),
                                name=f"perfbench-client-{i}", daemon=True)
               for i, (c, s) in enumerate(zip(clients, schedule.segments))]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    samples = Samples(window=(t0, time.perf_counter()))
    if any(thread.is_alive() for thread in threads):
        barrier.abort()
        samples.failures.append("a client did not finish in time")
    samples.merge(primer.samples)
    for client in clients:
        samples.merge(client.samples)
    return samples


def _guarded(client: Client, segments, schedule, barrier) -> None:
    try:
        client.run(segments, schedule.coalesced, barrier)
    except threading.BrokenBarrierError:
        client.samples.failures.append("client barrier broken")
        barrier.abort()
    except Exception as err:  # noqa: BLE001 — surfaced as a failure
        client.samples.failures.append(f"client crashed: {err!r}")
        barrier.abort()


def _fresh_ratio(url: str, schedule: gen.ServiceSchedule) -> tuple[float,
                                                                    dict]:
    """Fresh simulations ÷ unique fresh fingerprints (1.0 = every
    coalesced pair cost one simulation)."""
    from repro.service.client import ServiceClient
    counters = ServiceClient(url, timeout=30).metrics().get("counters", {})
    counts = schedule.counts()
    unique = (len(schedule.priming) + counts["cold"]
              + counts["coalesced_pairs"])
    return counters.get("service.fresh", 0) / unique, counters


# ----------------------------------------------------------------- runs

def run(seed: int, seconds: int, trace: bool, book: DigestBook) -> Outcome:
    outcome = Outcome("service-mixed", seed, trace)
    workdir = env.scratch_dir("service")
    # Half the set-up probes before the clients run and half after, so
    # a slow stretch of the host does not land on all of them.
    setups = [_setup_probe(workdir, index)
              for index in range(SETUP_PROBES // 2)]
    if trace:
        _run_traced(outcome, seed, workdir, book, setups)
    else:
        _run_untraced(outcome, seed, workdir, book, setups)
    setups += [_setup_probe(workdir, index)
               for index in range(SETUP_PROBES // 2, SETUP_PROBES)]
    outcome.set_shared(setups, env.peak_rss_mb())
    outcome.finish()
    return outcome


def _setup_probe(workdir: Path, index: int) -> Timed:
    """One more set-up sample: a server on fresh directories, stopped as
    soon as it is ready."""
    process, _url, setup = spawn_server(workdir, f"probe{index}")
    env.stop(process)
    return setup, setup[1] - setup[0]


def _account(outcome: Outcome, samples: Samples) -> None:
    outcome.attempted += samples.attempted
    outcome.failed += len(samples.failures)
    outcome.failures.extend(samples.failures)


def _serve(workdir: Path, tag: str, schedule, book,
           setups: list[Timed]) -> tuple[Samples, float, dict]:
    process, url, setup = spawn_server(workdir, tag)
    setups.append((setup, setup[1] - setup[0]))
    try:
        samples = drive(url, schedule, book)
        ratio, counters = _fresh_ratio(url, schedule)
    finally:
        env.stop(process)
    return samples, ratio, counters


def _run_untraced(outcome: Outcome, seed: int, workdir: Path,
                  book: DigestBook, setups: list[Timed]) -> None:
    schedule = gen.service_schedule(seed)
    samples, ratio, counters = _serve(workdir, "main", schedule, book,
                                      setups)
    _account(outcome, samples)
    pairs = [max(v) for v in samples.pairs.values() if len(v) == 2]
    cold50, cold90 = percentile(samples.cold, 50), percentile(samples.cold,
                                                              90)
    warm50, warm99 = percentile(samples.warm, 50), percentile(samples.warm,
                                                              99)
    pair50 = percentile(pairs, 50)
    rate = samples.sweeps / samples.wall_s
    # The gates rest on the cold sweeps alone.  The warm client's reads
    # wait for the interpreter lock behind the server's simulations in
    # one of two ways from run to run (see BENCHMARK.md), which moves
    # the whole run's sweeps per second by about 20%.
    cold_rate = len(samples.cold) / sum(samples.cold)
    outcome.gate("throughput", cold_rate, samples.cold_windows)
    outcome.gate("cold_s", cold50.value, samples.cold_windows,
                 samples.cold)
    for name, p, scale, unit in (
            ("sweep_cold_p50_s", cold50, 1, "s"),
            ("sweep_cold_p90_s", cold90, 1, "s"),
            ("sweep_warm_p50_ms", warm50, 1e3, "ms"),
            ("sweep_warm_p99_ms", warm99, 1e3, "ms"),
            ("sweep_coalesced_p50_s", pair50, 1, "s")):
        outcome.name(name, p.value * scale, unit, count=p.count,
                     beyond=p.beyond, kept=p.kept)
    outcome.name("sweeps_per_s", rate, "1/s", sweeps=samples.sweeps,
                 clients=len(schedule.segments))
    outcome.name("cold_sweeps_per_s", cold_rate, "1/s",
                 sweeps=len(samples.cold))
    outcome.name("coalesce_ratio", ratio, "ratio")
    outcome.details["schedule"] = schedule.counts()
    outcome.details["server_counters"] = counters


def _run_traced(outcome: Outcome, seed: int, workdir: Path,
                book: DigestBook, setups: list[Timed]) -> None:
    schedule = gen.service_schedule(seed, **TRACE_MIX)
    plain, _ratio, _counters = _serve(workdir, "untraced", schedule, book,
                                      setups)
    _account(outcome, plain)
    tracer = Tracer()
    with tracer:
        server = InProcessServer(workdir)
        try:
            traced = drive(server.url, schedule, book)
            ratio, counters = _fresh_ratio(server.url, schedule)
        finally:
            server.stop()
    _account(outcome, traced)
    spans = tracer.collect()
    layers = layer_metrics(spans)
    layers["service.submit_s"] = statistics.median(traced.submit)
    layers["service.result_fetch_s"] = statistics.median(traced.fetch)
    layers["service.queue_wait_s"] = statistics.median(traced.queue_wait)
    layers["service.coalesce_ratio"] = ratio
    layers["service.rejected"] = traced.rejected + counters.get(
        "service.rejected", 0)
    outcome.layers = layers
    missing = [name for name, _ in CONTRACT_PER_LAYER if name not in layers]
    outcome.check(not missing, f"traced run lacks {missing}")
    overhead = traced.wall_s - plain.wall_s
    outcome.name("untraced_clients_s", plain.wall_s, "s")
    outcome.name("traced_clients_s", traced.wall_s, "s")
    outcome.name("tracing_overhead_s", overhead, "s",
                 share=round(overhead / plain.wall_s, 4))
    outcome.name("tracing_overhead_est_s", estimated_overhead(spans), "s",
                 spans=len(spans))
    path = write_trace(env.OUT / "traces" / f"service-mixed-seed{seed}.json",
                       spans, {"tool": "perfbench",
                               "workload": "service-mixed", "seed": seed})
    outcome.notes.append(format_self_times(self_times(spans), traced.wall_s))
    outcome.notes.append("  (two runner threads share the interpreter "
                         "lock, so a span's time includes waiting for it)")
    outcome.notes.append(f"  chrome trace: {path}")
    outcome.details["schedule"] = schedule.counts()
