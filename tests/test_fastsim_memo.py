"""Fast-backend results and the engine's in-process result memo: a
result served from the memo, a fresh fast simulation and the reference
machine must agree bit for bit."""

import pytest

from repro.core.config import BASELINE
from repro.exec.context import RunContext
from repro.exec.engine import RunEngine, clear_memo
from repro.exec.jobs import Job
from repro.exec.serialize import dict_divergences, result_to_dict


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


class TestMemoEquivalence:
    @pytest.mark.parametrize("workload", ["gcc", "g721-encode",
                                          "compress"])
    def test_memo_on_off_and_reference_agree(self, workload):
        job = Job(workload, BASELINE, 1)

        memo_engine = RunEngine(RunContext(backend="fast"))
        fresh = memo_engine.run(job)
        memo_on = memo_engine.run(job)
        assert memo_engine.stats.fresh_runs == 1
        assert memo_engine.stats.memo_hits == 1

        clear_memo()
        memo_off = RunEngine(RunContext(backend="fast",
                                        use_cache=False)).run(job)
        reference = RunEngine(RunContext(backend="reference",
                                         use_cache=False)).run(job)

        on = result_to_dict(memo_on)
        assert dict_divergences(result_to_dict(fresh), on) == []
        assert dict_divergences(result_to_dict(memo_off), on) == []
        assert dict_divergences(result_to_dict(reference), on) == []
