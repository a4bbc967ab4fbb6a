"""Crash-safety tests: journaled sweeps survive shutdown and kill -9.

Three escalating proofs:

* **park/resume** — queued work a shutdown parked in the journal is
  re-enqueued by the reborn service and completes with bytes identical
  to the local engine path;
* **CAS reconciliation** — a journaled job whose result already landed
  in the store is served from it at construction time, with zero fresh
  simulations;
* **kill -9** — a real server process SIGKILL'd mid-sweep, restarted
  over the same directories, finishes the sweep: landed jobs come back
  from the store, lost ones re-run, and every payload is byte-identical
  to an uninterrupted run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.exec import RunContext, RunEngine
from repro.exec.serialize import result_to_dict
from repro.perf.metrics import get_registry
from repro.service.api import JobSpec, SubmitRequest
from repro.service.client import ServiceClient
from repro.service.journal import JOURNAL_NAME
from repro.service.service import ExperimentService, canonical_result_bytes

GO = SubmitRequest(jobs=(JobSpec(workload="go"),))

REPO = Path(__file__).resolve().parents[1]


def _counter(name: str) -> int:
    return get_registry().snapshot()["counters"].get(name, 0)


def _expected_bytes(spec: JobSpec) -> bytes:
    result = RunEngine(RunContext(jobs=1)).run(spec.resolve())
    return canonical_result_bytes(result_to_dict(result))


class TestInProcessResume:
    def test_parked_work_resumes_and_matches_local_engine(self, tmp_path):
        ctx = RunContext(cache_dir=tmp_path / "cas", cache_layout="cas")
        journal_dir = tmp_path / "journal"

        # Incarnation A admits a sweep but is never started: shutdown
        # parks the queued job in the journal.
        first = ExperimentService(ctx, workers=1,
                                  journal_dir=journal_dir)
        sweep_id = first.submit(GO).sweep_id
        first.shutdown()
        journal = (journal_dir / JOURNAL_NAME).read_bytes()
        assert b'"job.parked"' in journal

        resumed_before = _counter("service.restart.resumed")
        fresh_before = _counter("engine.fresh_runs")
        second = ExperimentService(ctx, workers=1,
                                   journal_dir=journal_dir).start()
        try:
            final = second.wait(sweep_id, timeout=120)
            assert final.ok
            assert _counter("service.restart.resumed") - resumed_before == 1
            # The parked job was genuinely lost, so exactly one fresh
            # simulation ran — and produced the canonical bytes.
            assert _counter("engine.fresh_runs") - fresh_before == 1
            payload = second.result_bytes(final.statuses[0].fingerprint)
            assert payload == _expected_bytes(GO.jobs[0])
        finally:
            second.shutdown()

    def test_landed_result_served_from_store_without_resimulation(
            self, tmp_path):
        ctx = RunContext(cache_dir=tmp_path / "cas", cache_layout="cas")
        journal_dir = tmp_path / "journal"

        first = ExperimentService(ctx, workers=1,
                                  journal_dir=journal_dir)
        sweep_id = first.submit(GO).sweep_id
        first.shutdown()

        # The job's result lands in the CAS out of band — exactly the
        # state a crash between store and journal append leaves behind.
        RunEngine(ctx).run(GO.jobs[0].resolve())

        recovered_before = _counter("service.restart.recovered_from_store")
        fresh_before = _counter("engine.fresh_runs")
        second = ExperimentService(ctx, workers=1,
                                   journal_dir=journal_dir)
        try:
            # Terminal at construction: reconciliation found the bytes.
            final = second.status(sweep_id)
            assert final.done and final.ok
            assert final.statuses[0].source == "store"
            assert _counter("engine.fresh_runs") - fresh_before == 0
            assert (_counter("service.restart.recovered_from_store")
                    - recovered_before) == 1
            payload = second.result_bytes(final.statuses[0].fingerprint)
            assert payload == _expected_bytes(GO.jobs[0])
        finally:
            second.shutdown()


# ------------------------------------------------------------- kill -9


def _spawn_server(tmp_path: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service.server",
         "--port", "0", "--workers", "1",
         "--cache-dir", str(tmp_path / "cas"), "--cache-layout", "cas",
         "--journal-dir", str(tmp_path / "journal")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)


def _server_url(proc: subprocess.Popen, timeout: float = 60.0) -> str:
    got: dict = {}

    def reader() -> None:
        got["line"] = proc.stdout.readline()

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout)
    line = got.get("line", b"").decode("utf-8", "replace").strip()
    assert line.startswith("http://"), \
        f"server never printed its URL (got {line!r})"
    return line


class TestKillDashNine:
    def test_sigkill_midsweep_restart_serves_identical_bytes(
            self, tmp_path):
        request = SubmitRequest(jobs=(JobSpec(workload="go"),
                                      JobSpec(workload="gcc"),
                                      JobSpec(workload="perl")))
        journal_path = tmp_path / "journal" / JOURNAL_NAME

        proc = _spawn_server(tmp_path)
        try:
            client = ServiceClient(_server_url(proc), timeout=30.0)
            sweep_id = client.submit(request).sweep_id

            # Wait for the first job to land durably, then kill -9
            # while the rest of the sweep is still in flight.
            deadline = time.monotonic() + 120
            while b'"job.done"' not in journal_path.read_bytes():
                assert time.monotonic() < deadline, \
                    "no job landed before the kill window"
                time.sleep(0.05)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        reborn = _spawn_server(tmp_path)
        try:
            client = ServiceClient(_server_url(reborn), timeout=30.0)
            final = client.wait(sweep_id, timeout=180)
            assert final.ok, [s.to_dict() for s in final.statuses]

            # Byte-identical to an uninterrupted local run, per job.
            for spec, status in zip(request.jobs, final.statuses):
                assert client.result(status.fingerprint) == \
                    _expected_bytes(spec), spec.workload

            # The reborn service both recovered landed work from the
            # store and re-ran the genuinely lost remainder.
            counters = client.metrics()["counters"]
            assert counters.get(
                "service.restart.recovered_from_store", 0) >= 1
            assert counters.get("service.restart.resumed", 0) >= 1
        finally:
            reborn.send_signal(signal.SIGKILL)
            reborn.wait(timeout=30)
