"""Run-engine cost model: fresh simulation vs warm-cache rehydration.

The persistent result cache only earns its keep if rehydrating a run
from disk is dramatically cheaper than simulating it.  These benches
time both paths for the same job set and assert the cache's two
contracts: warm hits perform zero fresh simulations, and the
rehydrated counters are bit-exact against the fresh ones.
"""

from __future__ import annotations

from conftest import attach_report, regenerate

from repro.core.config import BASELINE
from repro.exec import Job, RunContext, RunEngine

JOBS = [Job("go", BASELINE, 1), Job("go", BASELINE.with_packing(), 1)]

#: Warm rehydration must beat fresh simulation by at least this factor
#: (measured ~1000x; the bound only guards against the cache silently
#: re-simulating).
MIN_SPEEDUP = 20.0


def _run(cache_dir):
    engine = RunEngine(RunContext(cache_dir=cache_dir))
    return engine, engine.run_jobs(JOBS)


def test_fresh_simulation_cost(benchmark, tmp_path):
    engine, results = regenerate(benchmark, _run, tmp_path)
    assert engine.stats.fresh_runs == len(JOBS)
    attach_report(benchmark, engine.stats.summary())
    assert all(r.stats.committed > 0 for r in results.values())


def test_warm_cache_rehydration_cost(benchmark, tmp_path):
    import time

    seed_engine, fresh = _run(tmp_path)  # populate the disk cache
    start = time.perf_counter()
    _run(tmp_path)  # throwaway timing probe for the report
    probe = time.perf_counter() - start

    warm_engine, warm = regenerate(benchmark, _run, tmp_path)
    assert warm_engine.stats.fresh_runs == 0
    assert warm_engine.stats.cache_hits == len(JOBS)
    for job in JOBS:
        assert (warm[job.key].stats.as_dict()
                == fresh[job.key].stats.as_dict())
        assert (warm[job.key].widths.as_dict()
                == fresh[job.key].widths.as_dict())

    fresh_s = benchmark.extra_info["fresh_seconds"] = _fresh_seconds()
    attach_report(benchmark,
                  f"{warm_engine.stats.summary()}; "
                  f"rehydration probe {probe * 1e3:.1f} ms "
                  f"vs fresh {fresh_s:.2f} s")
    assert fresh_s / max(probe, 1e-9) > MIN_SPEEDUP


_FRESH_SECONDS: list[float] = []


def _fresh_seconds() -> float:
    """Time one fresh (uncached) pass over JOBS, memoized per session."""
    if not _FRESH_SECONDS:
        import time

        start = time.perf_counter()
        RunEngine(RunContext(use_cache=False)).run_jobs(JOBS)
        _FRESH_SECONDS.append(time.perf_counter() - start)
    return _FRESH_SECONDS[0]
