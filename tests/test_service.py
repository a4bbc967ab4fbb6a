"""Tests for the experiment service core and its HTTP front end.

The two acceptance properties of the service live here:

* **coalescing** — two concurrent identical sweeps cost exactly one
  fresh simulation (proven by the engine's fresh-run ledger and the
  ``service.coalesced`` counter), and both submitters receive results
  byte-identical to the local engine path;
* **backpressure** — a submission the bounded queue cannot take is
  rejected *immediately* with the typed 429-equivalent carrying queue
  depth and retry-after; it never hangs, and admission stays
  all-or-nothing.

Timing never decides these tests: ``HoldingService`` overrides the
``_before_execute`` seam to hold a job in flight until the test has
attached its second sweep.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.exec import RunContext
from repro.perf.metrics import get_registry
from repro.service.api import (
    API_SCHEMA,
    Backpressure,
    ERR_DEADLINE,
    ERR_JOB_FAILED,
    ERR_WORKER_CRASH,
    JobSpec,
    NotFound,
    RequestInvalid,
    ServiceUnavailable,
    SubmitRequest,
)
from repro.service.client import ServiceClient
from repro.service.http import HttpFrontend
from repro.service.service import ExperimentService, canonical_result_bytes

GO = SubmitRequest(jobs=(JobSpec(workload="go"),))


class HoldingService(ExperimentService):
    """Service whose workers block before executing until released."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.executing = threading.Event()
        self.release = threading.Event()

    def _before_execute(self, entry):
        self.executing.set()
        assert self.release.wait(timeout=120), "test never released worker"


def _counter(name: str) -> int:
    return get_registry().snapshot()["counters"].get(name, 0)


class TestCoalescing:
    def test_concurrent_identical_sweeps_one_simulation(self, tmp_path):
        ctx = RunContext(cache_dir=tmp_path / "cas", cache_layout="cas")
        service = HoldingService(ctx, queue_limit=8, workers=1).start()
        try:
            fresh_before = _counter("engine.fresh_runs")
            coalesced_before = _counter("service.coalesced")

            first = service.submit(GO)
            assert service.executing.wait(timeout=60)
            # The job is in flight; an identical sweep must attach, not
            # enqueue.
            second = service.submit(GO)
            assert second.statuses[0].source == "coalesced"
            assert second.sweep_id != first.sweep_id

            service.release.set()
            final_first = service.wait(first.sweep_id, timeout=120)
            final_second = service.wait(second.sweep_id, timeout=120)
            assert final_first.ok and final_second.ok

            # Exactly one simulation ran for the two sweeps.
            assert _counter("engine.fresh_runs") - fresh_before == 1
            assert _counter("service.coalesced") - coalesced_before == 1

            # Both submitters read the same bytes, and those bytes are
            # what the local engine path serializes for the same job.
            fp1 = final_first.statuses[0].fingerprint
            fp2 = final_second.statuses[0].fingerprint
            assert fp1 == fp2
            payload = service.result_bytes(fp1)
            assert payload == service.result_bytes(fp2)

            from repro.exec import RunEngine
            from repro.exec.serialize import result_to_dict
            local = RunEngine(RunContext()).run(GO.jobs[0].resolve())
            assert payload == canonical_result_bytes(
                result_to_dict(local))
        finally:
            service.release.set()
            service.shutdown()

    def test_terminal_sweep_serves_from_store(self, tmp_path):
        ctx = RunContext(cache_dir=tmp_path / "cas", cache_layout="cas")
        service = ExperimentService(ctx, workers=1).start()
        try:
            first = service.wait(service.submit(GO).sweep_id,
                                 timeout=120)
            assert first.ok
            # A later identical sweep is terminal at submission.
            warm = service.submit(GO)
            assert warm.done
            assert warm.statuses[0].source == "store"
        finally:
            service.shutdown()

    def test_store_survives_service_restart(self, tmp_path):
        ctx = RunContext(cache_dir=tmp_path / "cas", cache_layout="cas")
        service = ExperimentService(ctx, workers=1).start()
        try:
            done = service.wait(service.submit(GO).sweep_id, timeout=120)
            fingerprint = done.statuses[0].fingerprint
            payload = service.result_bytes(fingerprint)
        finally:
            service.shutdown()

        reborn = ExperimentService(ctx, workers=1).start()
        try:
            status = reborn.submit(GO)
            assert status.done
            assert status.statuses[0].source == "store"
            assert reborn.result_bytes(fingerprint) == payload
        finally:
            reborn.shutdown()


class TestBackpressure:
    def test_over_bound_submission_rejected_typed(self):
        service = HoldingService(RunContext(), queue_limit=1,
                                 workers=1).start()
        try:
            service.submit(GO)
            assert service.executing.wait(timeout=60)
            # Worker busy, queue empty: one more new job fills the bound.
            service.submit(SubmitRequest(
                jobs=(JobSpec(workload="compress"),)))

            with pytest.raises(Backpressure) as exc:
                service.submit(SubmitRequest(
                    jobs=(JobSpec(workload="gsm-encode"),)))
            err = exc.value
            assert err.http_status == 429
            assert err.queue_depth == 1
            assert err.queue_limit == 1
            assert err.retry_after >= 1.0

            # Coalescing is free: an identical in-flight sweep is not
            # "new work" and must still be admitted at full queue.
            attached = service.submit(GO)
            assert attached.statuses[0].source == "coalesced"
        finally:
            service.release.set()
            service.shutdown()

    def test_all_or_nothing_admission(self):
        service = HoldingService(RunContext(), queue_limit=1,
                                 workers=1).start()
        try:
            service.submit(GO)
            assert service.executing.wait(timeout=60)
            sweeps_before = service.health()["sweeps"]
            # Two new jobs, one queue slot: the whole sweep bounces and
            # neither job is admitted behind the caller's back.
            with pytest.raises(Backpressure):
                service.submit(SubmitRequest(jobs=(
                    JobSpec(workload="compress"),
                    JobSpec(workload="gsm-encode"))))
            assert service.health()["sweeps"] == sweeps_before
            assert service.health()["queue_depth"] == 0
        finally:
            service.release.set()
            service.shutdown()

    def test_unknown_workload_rejected_before_admission(self):
        service = ExperimentService(RunContext(), workers=1).start()
        try:
            with pytest.raises(RequestInvalid):
                service.submit(SubmitRequest(
                    jobs=(JobSpec(workload="no-such-benchmark"),)))
            assert service.health()["sweeps"] == 0
        finally:
            service.shutdown()

    def test_unknown_lookups_typed(self):
        service = ExperimentService(RunContext(), workers=1).start()
        try:
            with pytest.raises(NotFound):
                service.status("sweep-999999")
            with pytest.raises(NotFound):
                service.result_bytes("no-such-fingerprint")
            with pytest.raises(NotFound):
                service.events_since("sweep-999999", 0, 0.0)
        finally:
            service.shutdown()


# ------------------------------------------------------------------ HTTP

class _HttpServer:
    """Run an HttpFrontend on a private event loop thread (port 0)."""

    def __init__(self, service: ExperimentService) -> None:
        self.frontend = HttpFrontend(service, port=0)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.url = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(timeout=10), "HTTP server never bound"

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        host, port = self.loop.run_until_complete(self.frontend.start())
        self.url = f"http://{host}:{port}"
        self._ready.set()
        try:
            self.loop.run_until_complete(self.frontend.serve_forever())
        except asyncio.CancelledError:
            pass
        finally:
            self.loop.run_until_complete(self.frontend.close())
            self.loop.close()

    def stop(self) -> None:
        def _cancel():
            for task in asyncio.all_tasks(self.loop):
                task.cancel()
        self.loop.call_soon_threadsafe(_cancel)
        self.thread.join(timeout=10)


class TestHttpEndToEnd:
    @pytest.fixture()
    def served(self, tmp_path):
        ctx = RunContext(cache_dir=tmp_path / "cas", cache_layout="cas")
        service = ExperimentService(ctx, queue_limit=8,
                                    workers=1).start()
        server = _HttpServer(service)
        try:
            yield ServiceClient(server.url), server, service
        finally:
            server.stop()
            service.shutdown()

    def test_submit_stream_fetch(self, served):
        client, _server, service = served
        status = client.submit(GO)
        assert status.sweep_id.startswith("sweep-")

        records = list(client.stream(status.sweep_id))
        kinds = [r.get("record") for r in records]
        assert kinds[0] == "sweep"
        assert "job" in kinds
        assert kinds[-1] == "sweep.end"
        assert records[-1]["ok"] is True

        final = client.status(status.sweep_id)
        assert final.ok
        fingerprint = final.statuses[0].fingerprint
        payload = client.result(fingerprint)
        # Served bytes == the service's canonical bytes == the store's.
        assert payload == service.result_bytes(fingerprint)
        assert json.loads(payload)["stats"]["committed"] > 0

        health = client.health()
        assert health["status"] == "ok"
        assert health["schema"] == API_SCHEMA

    def test_typed_errors_over_http(self, served):
        client, server, _service = served
        with pytest.raises(NotFound):
            client.status("sweep-424242")
        with pytest.raises(NotFound):
            client.result("no-such-fingerprint")
        with pytest.raises(NotFound):
            list(client.stream("sweep-424242"))
        with pytest.raises(RequestInvalid):
            client.submit(SubmitRequest(
                jobs=(JobSpec(workload="no-such-benchmark"),)))

        # A non-JSON body is a typed 400, not a 500.
        host, _, port = server.url.removeprefix("http://").partition(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.request("POST", "/v1/sweeps", body=b"{not json")
            response = conn.getresponse()
            assert response.status == 400
            document = json.loads(response.read())
            assert document["error"] == "invalid-request"
        finally:
            conn.close()

    def test_backpressure_over_http_with_retry_after(self, tmp_path):
        service = HoldingService(RunContext(), queue_limit=1,
                                 workers=1).start()
        server = _HttpServer(service)
        try:
            client = ServiceClient(server.url)
            client.submit(GO)
            assert service.executing.wait(timeout=60)
            client.submit(SubmitRequest(
                jobs=(JobSpec(workload="compress"),)))

            # Typed on the client...
            with pytest.raises(Backpressure) as exc:
                client.submit(SubmitRequest(
                    jobs=(JobSpec(workload="gsm-encode"),)))
            assert exc.value.queue_limit == 1
            assert exc.value.retry_after >= 1.0

            # ...and carrying the standard header for plain clients.
            host, _, port = \
                server.url.removeprefix("http://").partition(":")
            conn = http.client.HTTPConnection(host, int(port),
                                              timeout=30)
            try:
                body = json.dumps(SubmitRequest(jobs=(
                    JobSpec(workload="gsm-encode"),)).to_dict())
                conn.request("POST", "/v1/sweeps", body=body.encode())
                response = conn.getresponse()
                assert response.status == 429
                assert int(response.getheader("Retry-After")) >= 1
                response.read()
            finally:
                conn.close()
        finally:
            service.release.set()
            server.stop()
            service.shutdown()


# -------------------------------------------------- faults and lifecycle

class CrashingService(ExperimentService):
    """Service whose workers crash on the first ``crashes`` executions."""

    def __init__(self, *args, crashes=1, **kwargs):
        super().__init__(*args, **kwargs)
        self._crashes_left = crashes

    def _before_execute(self, entry):
        if self._crashes_left > 0:
            self._crashes_left -= 1
            raise RuntimeError("injected worker crash")


class TestFaultIsolation:
    def test_one_crash_fails_typed_and_the_sweep_continues(self, tmp_path):
        ctx = RunContext(cache_dir=tmp_path / "cas", cache_layout="cas")
        service = CrashingService(ctx, workers=1, crashes=1,
                                  breaker_threshold=100).start()
        try:
            crashes_before = _counter("service.worker.crashes")
            status = service.submit(SubmitRequest(jobs=(
                JobSpec(workload="go"), JobSpec(workload="xlisp"))))
            final = service.wait(status.sweep_id, timeout=240)

            # Partial results: the crashed job is a typed per-job
            # failure, the other one landed — fault isolation, not a
            # failed sweep call.
            assert final.done and not final.ok
            failed, landed = final.statuses
            assert failed.state == "failed"
            assert failed.error_code == ERR_WORKER_CRASH
            assert "worker thread crashed" in failed.error
            assert landed.state == "done"
            assert service.result_bytes(landed.fingerprint)
            assert _counter("service.worker.crashes") - crashes_before == 1

            # The failed fingerprint does not pin: a resubmission
            # retries it fresh (the worker is out of crashes) and wins.
            retried_before = _counter("service.retried")
            retry = service.wait(service.submit(GO).sweep_id, timeout=240)
            assert retry.ok
            assert _counter("service.retried") - retried_before == 1
        finally:
            service.shutdown()

    def test_engine_failed_job_runs_again_on_resubmission(self, tmp_path):
        ctx = RunContext(retries=0,
                         faults={"go": f"crash:{tmp_path / 'crash.once'}"})
        service = ExperimentService(ctx, workers=1).start()
        try:
            first = service.wait(service.submit(GO).sweep_id, timeout=240)
            assert first.statuses[0].error_code == ERR_JOB_FAILED
            retry = service.wait(service.submit(GO).sweep_id, timeout=240)
            assert retry.statuses[0].state == "done"
            payload = service.result_bytes(retry.statuses[0].fingerprint)
        finally:
            service.shutdown()
        from repro.exec import RunEngine
        from repro.exec.serialize import result_to_dict
        local = RunEngine(RunContext()).run(GO.jobs[0].resolve())
        assert payload == canonical_result_bytes(result_to_dict(local))


class TestCircuitBreaker:
    def test_consecutive_crashes_trip_typed_503(self):
        service = CrashingService(RunContext(), workers=1, crashes=100,
                                  breaker_threshold=2,
                                  breaker_cooldown=60.0).start()
        try:
            for _ in range(2):
                final = service.wait(service.submit(GO).sweep_id,
                                     timeout=240)
                assert final.statuses[0].error_code == ERR_WORKER_CRASH

            with pytest.raises(ServiceUnavailable) as exc:
                service.submit(GO)
            err = exc.value
            assert err.http_status == 503
            assert err.reason == "breaker-open"
            assert err.retry_after > 0
            assert err.details["consecutive_crashes"] == 2

            health = service.health()
            assert health["breaker"]["open"] is True
            assert health["ready"] is False
            assert health["ready_reason"] == "breaker-open"
        finally:
            service.shutdown()

    def test_half_open_success_fully_closes(self, tmp_path):
        ctx = RunContext(cache_dir=tmp_path / "cas", cache_layout="cas")
        service = CrashingService(ctx, workers=1, crashes=2,
                                  breaker_threshold=2,
                                  breaker_cooldown=0.05).start()
        try:
            for _ in range(2):
                service.wait(service.submit(GO).sweep_id, timeout=240)
            time.sleep(0.1)     # cooldown lapses: breaker half-opens

            # The probe submission is admitted, the worker is out of
            # crashes, and one success closes the breaker completely.
            final = service.wait(service.submit(GO).sweep_id, timeout=240)
            assert final.ok
            breaker = service.health()["breaker"]
            assert breaker["open"] is False
            assert breaker["consecutive_crashes"] == 0
        finally:
            service.shutdown()


class TestDeadline:
    def test_spent_budget_fails_typed_without_running(self):
        service = HoldingService(RunContext(), workers=1).start()
        try:
            first = service.submit(GO)
            assert service.executing.wait(timeout=60)
            # The held job eats the second sweep's entire budget while
            # it sits in the queue.
            expired_before = _counter("service.deadline.expired")
            fresh_before = _counter("engine.fresh_runs")
            second = service.submit(SubmitRequest(
                jobs=(JobSpec(workload="compress"),),
                deadline_seconds=0.05))
            time.sleep(0.2)
            service.release.set()

            final = service.wait(second.sweep_id, timeout=240)
            assert final.done and not final.ok
            status = final.statuses[0]
            assert status.state == "failed"
            assert status.error_code == ERR_DEADLINE
            assert _counter("service.deadline.expired") - expired_before == 1
            # The expired job never reached the engine: only the held
            # first job simulated.
            service.wait(first.sweep_id, timeout=240)
            assert _counter("engine.fresh_runs") - fresh_before == 1
        finally:
            service.release.set()
            service.shutdown()


class TestDrain:
    def test_graceful_drain_parks_queued_and_finishes_inflight(
            self, tmp_path):
        ctx = RunContext(cache_dir=tmp_path / "cas", cache_layout="cas")
        journal_dir = tmp_path / "journal"
        service = HoldingService(ctx, workers=1,
                                 journal_dir=journal_dir).start()
        try:
            first = service.submit(GO)
            assert service.executing.wait(timeout=60)
            second = service.submit(SubmitRequest(
                jobs=(JobSpec(workload="compress"),)))

            summary = {}
            drainer = threading.Thread(
                target=lambda: summary.update(service.drain()),
                daemon=True)
            drainer.start()
            deadline = time.monotonic() + 30
            while service.health()["status"] != "draining":
                assert time.monotonic() < deadline
                time.sleep(0.01)

            # Draining: readiness false, new work refused typed, the
            # in-flight job still finishing.
            readiness = service.readiness()
            assert readiness["ready"] is False
            assert readiness["reason"] == "draining"
            with pytest.raises(ServiceUnavailable) as exc:
                service.submit(SubmitRequest(
                    jobs=(JobSpec(workload="gsm-encode"),)))
            assert exc.value.reason == "draining"

            service.release.set()
            drainer.join(timeout=240)
            assert summary == {"drained": True, "parked": 1, "done": 1}
            assert service.wait(first.sweep_id, timeout=1).ok
        finally:
            service.release.set()
            service.shutdown()

        # The parked job belongs to the next incarnation: a service
        # over the same journal resumes and completes it.
        reborn = ExperimentService(ctx, workers=1,
                                   journal_dir=journal_dir).start()
        try:
            final = reborn.wait(second.sweep_id, timeout=240)
            assert final.ok
        finally:
            reborn.shutdown()


class TestHealthEndpoints:
    def test_livez_and_readyz_split(self, tmp_path):
        ctx = RunContext(cache_dir=tmp_path / "cas", cache_layout="cas")
        service = ExperimentService(ctx, workers=1,
                                    journal_dir=tmp_path / "journal"
                                    ).start()
        server = _HttpServer(service)
        try:
            client = ServiceClient(server.url)
            live = client.live()
            assert live["live"] is True

            ready, document = client.ready()
            assert ready is True
            assert document["reason"] == "ok"
            assert document["queue_depth"] == 0
            assert document["journal"]["enabled"] is True
            assert document["journal"]["lag"] == 0

            # Drained: readiness flips 503 while liveness stays 200 —
            # an orchestrator must not kill a service shedding load on
            # purpose.
            service.drain()
            ready, document = client.ready()
            assert ready is False
            assert document["reason"] in ("draining", "stopping")
            assert client.live()["live"] is True
        finally:
            server.stop()
            service.shutdown()

    def test_oversized_request_gets_typed_413(self, tmp_path):
        service = ExperimentService(RunContext(), workers=1).start()
        server = _HttpServer(service)
        try:
            host, _, port = server.url.removeprefix("http://").partition(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            try:
                # Announce a 9 MiB body; the typed 413 must arrive
                # before any of it is read.
                conn.putrequest("POST", "/v1/sweeps")
                conn.putheader("Content-Type", "application/json")
                conn.putheader("Content-Length", str(9 * 1024 * 1024))
                conn.endheaders()
                response = conn.getresponse()
                assert response.status == 413
                document = json.loads(response.read())
                assert document["error"] == "payload-too-large"
                assert document["details"]["limit"] == 8 * 1024 * 1024
                assert document["details"]["length"] == 9 * 1024 * 1024
            finally:
                conn.close()
        finally:
            server.stop()
            service.shutdown()
