"""Fast-backend results and ``run_workload``'s memo: a result served
from the memo, a fresh fast simulation and the reference machine must
agree bit for bit."""

import pytest

from repro.core.config import BASELINE
from repro.exec.context import RunContext
from repro.exec.engine import RunEngine
from repro.exec.jobs import Job
from repro.exec.serialize import dict_divergences, result_to_dict
from repro.experiments import base
from repro.perf.metrics import get_registry


def fresh_runs() -> int:
    return get_registry().snapshot()["counters"].get("engine.fresh_runs", 0)


class TestMemoEquivalence:
    @pytest.mark.parametrize("workload", ["gcc", "g721-encode",
                                          "compress"])
    def test_memo_on_off_and_reference_agree(self, workload, monkeypatch):
        monkeypatch.setattr(base, "_RESULTS", {})
        fast = RunContext(backend="fast")

        before = fresh_runs()
        fresh = base.run_workload(workload, BASELINE, ctx=fast)
        memo_on = base.run_workload(workload, BASELINE, ctx=fast)
        assert memo_on is fresh
        assert fresh_runs() - before == 1

        job = Job(workload, BASELINE, 1)
        memo_off = base.run_workload(workload, BASELINE, use_cache=False,
                                     ctx=fast)
        assert memo_off is not fresh
        assert fresh_runs() - before == 2
        reference = RunEngine(RunContext(backend="reference",
                                         use_cache=False)).run(job)

        on = result_to_dict(memo_on)
        assert dict_divergences(result_to_dict(memo_off), on) == []
        assert dict_divergences(result_to_dict(reference), on) == []
