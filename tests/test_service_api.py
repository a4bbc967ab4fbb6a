"""Tests for the service's typed public submission API.

The API contract: every wire document is the ``to_dict`` form of a
frozen dataclass, every ``from_dict`` validates (malformed input is a
typed :class:`RequestInvalid`, never a stack trace), and every error
round-trips through ``error_to_dict``/``error_from_dict`` into the
same exception type — :class:`Backpressure` keeps its queue depth and
retry-after across the wire.
"""

from __future__ import annotations

import pytest

from repro.core.config import named_configs
from repro.service.api import (
    API_SCHEMA,
    Backpressure,
    ERR_WORKER_CRASH,
    JobSpec,
    JobStatus,
    MAX_JOBS_PER_SWEEP,
    NotFound,
    PayloadTooLarge,
    RequestInvalid,
    ServiceError,
    ServiceUnavailable,
    SubmitRequest,
    SweepStatus,
    error_from_dict,
    error_to_dict,
)
from repro.service.http import retry_after_header


class TestNamedConfigs:
    def test_catalog_names(self):
        names = named_configs()
        for expected in ("baseline", "packing", "packing-replay",
                         "no-detect", "wide-decode", "wide-issue",
                         "perfect-predictor"):
            assert expected in names

    def test_fingerprints_distinct(self):
        fingerprints = [c.fingerprint()
                        for c in named_configs().values()]
        assert len(fingerprints) == len(set(fingerprints))


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(workload="go", config="packing", scale=2)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_defaults(self):
        spec = JobSpec.from_dict({"workload": "go"})
        assert spec.config == "baseline"
        assert spec.scale == 1

    @pytest.mark.parametrize("data", [
        "not a dict",
        {},
        {"workload": ""},
        {"workload": 7},
        {"workload": "go", "scale": 0},
        {"workload": "go", "scale": True},
        {"workload": "go", "scale": "2"},
        {"workload": "go", "config": 3},
    ])
    def test_invalid_specs_typed(self, data):
        with pytest.raises(RequestInvalid):
            JobSpec.from_dict(data)

    def test_resolve_known(self):
        job = JobSpec(workload="go", config="packing").resolve()
        assert job.workload == "go"
        assert job.config == named_configs()["packing"]

    def test_resolve_unknown_workload(self):
        with pytest.raises(RequestInvalid) as exc:
            JobSpec(workload="no-such-benchmark").resolve()
        assert "known" in exc.value.details

    def test_resolve_unknown_config(self):
        with pytest.raises(RequestInvalid):
            JobSpec(workload="go", config="no-such-config").resolve()

    def test_fingerprint_matches_engine_job(self):
        spec = JobSpec(workload="go", config="baseline")
        assert spec.fingerprint() == spec.resolve().fingerprint()


class TestSubmitRequest:
    def _body(self, **overrides):
        body = {"schema": API_SCHEMA, "backend": "reference",
                "jobs": [{"workload": "go"}]}
        body.update(overrides)
        return body

    def test_round_trip(self):
        request = SubmitRequest.from_dict(self._body())
        assert SubmitRequest.from_dict(request.to_dict()) == request

    def test_schema_required_and_exact(self):
        with pytest.raises(RequestInvalid):
            SubmitRequest.from_dict(self._body(schema=None))
        with pytest.raises(RequestInvalid):
            SubmitRequest.from_dict(self._body(schema="repro-service/2"))

    def test_backend_choices(self):
        assert SubmitRequest.from_dict(
            self._body(backend="fast")).backend == "fast"
        # "both" is no backend: repro-equivalence compares the two.
        with pytest.raises(RequestInvalid):
            SubmitRequest.from_dict(self._body(backend="both"))

    def test_jobs_required_nonempty(self):
        with pytest.raises(RequestInvalid):
            SubmitRequest.from_dict(self._body(jobs=[]))
        with pytest.raises(RequestInvalid):
            SubmitRequest.from_dict(self._body(jobs="go"))

    def test_sweep_size_ceiling(self):
        oversized = [{"workload": "go"}] * (MAX_JOBS_PER_SWEEP + 1)
        with pytest.raises(RequestInvalid) as exc:
            SubmitRequest.from_dict(self._body(jobs=oversized))
        assert exc.value.details["limit"] == MAX_JOBS_PER_SWEEP


class TestSweepStatus:
    def _status(self, states):
        return SweepStatus(
            sweep_id="sweep-000001",
            statuses=tuple(
                JobStatus(spec=JobSpec(workload="go"), fingerprint=f"f{i}",
                          state=state)
                for i, state in enumerate(states)))

    def test_round_trip(self):
        status = self._status(["done", "running"])
        again = SweepStatus.from_dict(status.to_dict())
        assert again.sweep_id == status.sweep_id
        assert [s.state for s in again.statuses] == ["done", "running"]

    def test_done_and_ok_rollups(self):
        assert not self._status(["queued"]).done
        assert not self._status(["done", "running"]).done
        failed = self._status(["done", "failed"])
        assert failed.done and not failed.ok
        assert self._status(["done", "done"]).ok

    def test_invalid_statuses_typed(self):
        with pytest.raises(RequestInvalid):
            SweepStatus.from_dict({"sweep_id": "s", "jobs": [
                {"spec": {"workload": "go"}, "fingerprint": "f",
                 "state": "exploded"}]})
        with pytest.raises(RequestInvalid):
            SweepStatus.from_dict({"jobs": []})


class TestErrorRoundTrip:
    def test_backpressure_keeps_fields(self):
        err = Backpressure("queue full", queue_depth=7, queue_limit=8,
                           retry_after=12.5)
        again = error_from_dict(error_to_dict(err))
        assert isinstance(again, Backpressure)
        assert again.http_status == 429
        assert again.queue_depth == 7
        assert again.queue_limit == 8
        assert again.retry_after == 12.5

    def test_not_found_and_invalid(self):
        for err in (NotFound("gone"), RequestInvalid("bad", hint="x")):
            again = error_from_dict(error_to_dict(err))
            assert type(again) is type(err)
            assert again.message == err.message
            assert again.details == err.details

    def test_unknown_code_degrades_to_base(self):
        err = error_from_dict({"error": "from-the-future",
                               "message": "??"})
        assert type(err) is ServiceError
        assert err.message == "??"


class TestNewErrorTypes:
    def test_payload_too_large_is_a_413_in_the_400_family(self):
        err = PayloadTooLarge("body too big", length=9_000_000,
                              limit=8_388_608)
        assert isinstance(err, RequestInvalid)
        assert err.http_status == 413
        again = error_from_dict(error_to_dict(err))
        assert type(again) is PayloadTooLarge
        assert again.details == {"length": 9_000_000, "limit": 8_388_608}

    def test_service_unavailable_round_trips_reason_and_extras(self):
        err = ServiceUnavailable("breaker open", reason="breaker-open",
                                 retry_after=27.5,
                                 consecutive_crashes=5, threshold=5)
        again = error_from_dict(error_to_dict(err))
        assert type(again) is ServiceUnavailable
        assert again.http_status == 503
        assert again.reason == "breaker-open"
        assert again.retry_after == 27.5
        assert again.details["consecutive_crashes"] == 5
        assert again.details["threshold"] == 5

    def test_unknown_code_keeps_details(self):
        err = error_from_dict({"error": "from-the-future",
                               "message": "??",
                               "details": {"hint": "upgrade"}})
        assert type(err) is ServiceError
        assert err.details == {"hint": "upgrade"}


class TestRetryAfterHeader:
    @pytest.mark.parametrize("seconds,expected", [
        (0, "1"),           # a zero wait still tells clients to pause
        (0.4, "1"),         # fractions round *up*: never retry early
        (1.0, "1"),
        (1.2, "2"),
        (2.0, "2"),
        (90.7, "91"),
    ])
    def test_rounding(self, seconds, expected):
        assert retry_after_header(seconds) == expected


class TestDeadlineSeconds:
    def test_round_trip(self):
        request = SubmitRequest(jobs=(JobSpec(workload="go"),),
                                deadline_seconds=12.5)
        again = SubmitRequest.from_dict(request.to_dict())
        assert again.deadline_seconds == 12.5

    def test_omitted_from_wire_when_unset(self):
        request = SubmitRequest(jobs=(JobSpec(workload="go"),))
        assert "deadline_seconds" not in request.to_dict()
        assert SubmitRequest.from_dict(
            request.to_dict()).deadline_seconds is None

    @pytest.mark.parametrize("deadline", [
        0, -1, -0.5, True, "10", [], 86401.0,
    ])
    def test_invalid_budgets_typed(self, deadline):
        body = {"schema": API_SCHEMA,
                "jobs": [{"workload": "go"}],
                "deadline_seconds": deadline}
        with pytest.raises(RequestInvalid):
            SubmitRequest.from_dict(body)


class TestJobStatusErrorCode:
    def test_error_code_round_trips(self):
        status = JobStatus(spec=JobSpec(workload="go"), fingerprint="fp",
                           state="failed", error="boom",
                           error_code=ERR_WORKER_CRASH)
        again = JobStatus.from_dict(status.to_dict())
        assert again.error_code == ERR_WORKER_CRASH
        assert again.error == "boom"
        assert again.terminal

    def test_error_code_absent_when_clean(self):
        status = JobStatus(spec=JobSpec(workload="go"), fingerprint="fp",
                           state="done")
        assert status.to_dict()["error_code"] is None
        assert JobStatus.from_dict(status.to_dict()).error_code is None
