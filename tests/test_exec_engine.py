"""Tests for the run engine: determinism across execution tiers,
deduplication, cache fallback, and the declarative experiment wiring.

The headline guarantee under test: the same ``(workload, config,
scale)`` job run **serially**, through the **process pool**, and
**rehydrated from the on-disk cache** yields identical
``CoreStats``/``PowerReport``/width/fluctuation counters.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import BASELINE
from repro.exec import (
    GLOBAL_STATS,
    Job,
    ResultCache,
    RunContext,
    RunEngine,
    clear_memo,
)
from repro.exec.engine import _MEMO, pick_job


def counters(result) -> tuple:
    """Everything a figure can read from a run, in comparable form."""
    return (
        result.stats.as_dict(),
        result.widths.as_dict(),
        result.fluctuation.as_dict(),
        result.power.as_dict() if result.power else None,
    )


JOB_GO = Job("go", BASELINE, 1)
JOB_GO_PACKED = Job("go", BASELINE.with_packing(), 1)


class TestDeterminismAcrossTiers:
    def test_serial_pool_and_cache_agree_bit_exact(self, tmp_path):
        # Tier A: fresh serial run, no caching anywhere.
        serial = RunEngine(RunContext(use_cache=False)).run_jobs(
            [JOB_GO, JOB_GO_PACKED])

        # Tier B: fresh run through a 2-worker process pool, cache on.
        clear_memo()
        pooled_engine = RunEngine(RunContext(cache_dir=tmp_path, jobs=2))
        pooled = pooled_engine.run_jobs([JOB_GO, JOB_GO_PACKED])
        assert pooled_engine.stats.fresh_runs == 2

        # Tier C: rehydrated from the on-disk cache, memo cleared.
        clear_memo()
        warm_engine = RunEngine(RunContext(cache_dir=tmp_path, jobs=2))
        warm = warm_engine.run_jobs([JOB_GO, JOB_GO_PACKED])
        assert warm_engine.stats.fresh_runs == 0
        assert warm_engine.stats.cache_hits == 2

        for job in (JOB_GO, JOB_GO_PACKED):
            assert (counters(serial[job.key])
                    == counters(pooled[job.key])
                    == counters(warm[job.key]))

    def test_pool_merging_is_submission_ordered(self, tmp_path):
        clear_memo()
        engine = RunEngine(RunContext(cache_dir=tmp_path, jobs=2))
        results = engine.run_jobs([JOB_GO, JOB_GO_PACKED])
        assert list(results) == [JOB_GO.key, JOB_GO_PACKED.key]
        # Same committed work; packing can only change cycles.
        assert (results[JOB_GO.key].stats.committed
                == results[JOB_GO_PACKED.key].stats.committed)


class TestPoolPlacement:
    """The fan-out dispatch rule (:func:`pick_job`) as a pure function,
    then through a real pool."""

    GCC = Job("gcc", BASELINE, 1)
    PERL = Job("perl", BASELINE, 1)
    GO_X2 = Job("go", BASELINE, 2)

    def test_freed_worker_takes_the_oldest_job_it_holds(self):
        pending = [self.GCC, JOB_GO_PACKED, JOB_GO]
        holds = {7: {("go", 1)}, 8: {("gcc", 1)}}
        assert pick_job(pending, holds, [self.PERL], 7) == (1, 1)
        assert pick_job(pending, holds, [self.PERL], 8) == (0, 1)

    def test_scale_is_part_of_what_a_worker_holds(self):
        holds = {7: {("go", 1)}}
        assert pick_job([self.GO_X2], holds, [], 7) == (0, 2)

    def test_otherwise_oldest_job_no_other_worker_holds_or_runs(self):
        # gcc is held by busy worker 8, perl is running: go is free.
        pending = [self.GCC, self.PERL, JOB_GO]
        holds = {7: {("ijpeg", 1)}, 8: {("gcc", 1)}}
        assert pick_job(pending, holds, [self.PERL], 7) == (2, 2)

    def test_unknown_pid_spreads_but_never_claims_affinity(self):
        # The initial fill, or a worker whose job raised: rules 2 and 3.
        assert pick_job([JOB_GO, JOB_GO_PACKED, self.GCC], {},
                        [JOB_GO], None) == (2, 2)
        holds = {7: {("go", 1)}}
        assert pick_job([JOB_GO_PACKED, self.GCC], holds, [],
                        None) == (1, 2)
        assert pick_job([JOB_GO_PACKED], holds, [], None) == (0, 3)

    def test_tail_falls_back_to_the_oldest_job(self):
        pending = [self.GCC, JOB_GO_PACKED]
        holds = {7: {("perl", 1)}, 8: {("gcc", 1)}}
        assert pick_job(pending, holds, [JOB_GO], 7) == (0, 3)

    def test_third_job_of_one_workload_goes_to_a_warm_worker(self):
        # The third job is dispatched only after a worker has finished
        # one of the first two, so it is affine whatever the timing.
        jobs = [JOB_GO, JOB_GO_PACKED,
                Job("go", BASELINE.with_packing(replay=True), 1)]
        clear_memo()
        serial = RunEngine(RunContext(use_cache=False, backend="fast")
                           ).run_jobs(jobs)
        clear_memo()
        engine = RunEngine(RunContext(use_cache=False, backend="fast",
                                      jobs=2))
        pooled = engine.run_jobs(jobs)
        assert engine.stats.fresh_runs == 3
        assert engine.stats.jobs_affine == 1
        assert "; 1 affine dispatch" in engine.stats.summary()
        assert list(pooled) == [job.key for job in jobs]
        for job in jobs:
            assert counters(pooled[job.key]) == counters(serial[job.key])


class TestCacheFallback:
    def test_corrupt_entry_falls_back_to_fresh_simulation(self, tmp_path):
        clear_memo()
        engine = RunEngine(RunContext(cache_dir=tmp_path))
        good = engine.run(JOB_GO)
        cache = ResultCache(tmp_path)
        cache.path(JOB_GO).write_text("garbage{", encoding="utf-8")
        clear_memo()

        retry_engine = RunEngine(RunContext(cache_dir=tmp_path))
        retry = retry_engine.run(JOB_GO)
        assert retry_engine.stats.cache_hits == 0
        assert retry_engine.stats.fresh_runs == 1
        assert counters(retry) == counters(good)
        # The bad entry was overwritten with a good one.
        assert cache.load(JOB_GO) is not None

    def test_stale_schema_entry_falls_back_to_fresh(self, tmp_path):
        clear_memo()
        engine = RunEngine(RunContext(cache_dir=tmp_path))
        good = engine.run(JOB_GO)
        cache = ResultCache(tmp_path)
        path = cache.path(JOB_GO)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["schema"] = "repro-exec/0"
        path.write_text(json.dumps(entry), encoding="utf-8")
        clear_memo()

        retry_engine = RunEngine(RunContext(cache_dir=tmp_path))
        retry = retry_engine.run(JOB_GO)
        assert retry_engine.stats.fresh_runs == 1
        assert counters(retry) == counters(good)


class TestEnginePolicy:
    def test_duplicate_jobs_execute_once(self):
        engine = RunEngine(RunContext())
        engine.run_jobs([JOB_GO, JOB_GO, JOB_GO, JOB_GO_PACKED])
        assert engine.stats.jobs_requested == 4
        assert engine.stats.jobs_unique == 2
        assert engine.stats.fresh_runs + engine.stats.memo_hits == 2

    def test_memo_shared_across_engines(self):
        RunEngine(RunContext()).run(JOB_GO)
        second = RunEngine(RunContext())
        second.run(JOB_GO)
        assert second.stats.memo_hits == 1
        assert second.stats.fresh_runs == 0

    def test_use_cache_false_bypasses_and_stores_nothing(self, tmp_path):
        clear_memo()
        engine = RunEngine(RunContext(cache_dir=tmp_path, use_cache=False))
        engine.run(JOB_GO)
        assert engine.stats.fresh_runs == 1
        assert JOB_GO.key not in _MEMO
        assert ResultCache(tmp_path).entries() == []

    def test_refresh_overwrites_cache_entry(self, tmp_path):
        clear_memo()
        engine = RunEngine(RunContext(cache_dir=tmp_path))
        engine.run(JOB_GO)
        path = ResultCache(tmp_path).path(JOB_GO)
        before = path.stat().st_mtime_ns

        refresh_engine = RunEngine(RunContext(cache_dir=tmp_path,
                                              refresh=True))
        refresh_engine.run(JOB_GO)
        assert refresh_engine.stats.fresh_runs == 1
        assert refresh_engine.stats.memo_hits == 0
        assert path.stat().st_mtime_ns >= before

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            RunContext(jobs=0)


class TestObsThroughEngine:
    def test_fresh_run_writes_manifest(self, tmp_path):
        clear_memo()
        ctx = RunContext(obs_dir=tmp_path / "obs",
                         cache_dir=tmp_path / "cache")
        RunEngine(ctx).run(JOB_GO)
        manifests = list((tmp_path / "obs").glob("go-*.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text(encoding="utf-8"))
        assert manifest["workload"] == "go"
        assert manifest["windows"]

    def test_warm_cache_rematerializes_manifest(self, tmp_path):
        clear_memo()
        cache_dir = tmp_path / "cache"
        RunEngine(RunContext(obs_dir=tmp_path / "obs1",
                             cache_dir=cache_dir)).run(JOB_GO)
        clear_memo()

        warm = RunEngine(RunContext(obs_dir=tmp_path / "obs2",
                                    cache_dir=cache_dir))
        warm.run(JOB_GO)
        assert warm.stats.fresh_runs == 0
        assert warm.stats.cache_hits == 1
        first = (tmp_path / "obs1" / warm_manifest_name(tmp_path, "obs1"))
        second = (tmp_path / "obs2" / warm_manifest_name(tmp_path, "obs2"))
        assert first.read_text() == second.read_text()

    def test_obs_request_refuses_uninstrumented_entry(self, tmp_path):
        clear_memo()
        cache_dir = tmp_path / "cache"
        RunEngine(RunContext(cache_dir=cache_dir)).run(JOB_GO)  # no obs
        clear_memo()

        obs_engine = RunEngine(RunContext(obs_dir=tmp_path / "obs",
                                          cache_dir=cache_dir))
        obs_engine.run(JOB_GO)
        # The cached entry has no manifest, so obs forces a fresh run.
        assert obs_engine.stats.fresh_runs == 1
        assert list((tmp_path / "obs").glob("go-*.json"))


def warm_manifest_name(tmp_path, sub) -> str:
    names = [p.name for p in (tmp_path / sub).glob("go-*.json")]
    assert len(names) == 1
    return names[0]


class TestExperimentRegistry:
    def test_registry_covers_every_experiment(self):
        from repro.experiments.registry import (
            all_experiments,
            experiment_names,
        )
        names = experiment_names()
        for key in ("table1", "table4", "fig1", "fig2", "fig4", "fig5",
                    "fig6", "fig7", "fig10", "fig10-replay",
                    "fig10-8wide", "fig11", "loaddetect"):
            assert key in names
        for exp in all_experiments().values():
            assert exp.description
            assert isinstance(exp.jobs(1), list)

    def test_tables_declare_no_jobs(self):
        from repro.experiments.registry import get_experiment
        assert get_experiment("table1").jobs(1) == []
        assert get_experiment("table4").jobs(1) == []

    def test_fig6_fig7_share_their_job_set(self):
        from repro.experiments.registry import get_experiment
        assert (get_experiment("fig6").jobs(1)
                == get_experiment("fig7").jobs(1))

    def test_fig10_fig11_share_packed_runs(self):
        from repro.experiments.registry import get_experiment
        fig10 = {j.key for j in get_experiment("fig10").jobs(1)}
        fig11 = {j.key for j in get_experiment("fig11").jobs(1)}
        shared = fig10 & fig11
        # baseline + packed runs under the combining predictor overlap
        assert len(shared) >= 2 * 14

    def test_declared_jobs_cover_render(self, monkeypatch):
        """After the engine pre-runs an experiment's declared job set,
        rendering performs zero fresh simulations."""
        from repro.experiments import fig1_cumulative_widths as fig1
        from repro.experiments.registry import get_experiment
        monkeypatch.setattr(fig1, "spec_names", lambda: ("go",))
        exp = get_experiment("fig1")

        RunEngine(RunContext()).run_jobs(exp.jobs(1))
        fresh_before = GLOBAL_STATS.fresh_runs
        text = exp.render(1)
        assert GLOBAL_STATS.fresh_runs == fresh_before
        assert "Figure 1" in text and "go" in text


class TestRunnerCLI:
    def test_parallel_flagged_run(self, capsys):
        from repro.experiments.runner import main
        assert main(["--jobs", "2", "table1", "table4"]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out and "Table 4" in captured.out
        # Stream contract: the engine summary is progress, not output.
        assert "engine:" in captured.err
        assert "engine:" not in captured.out

    def test_no_cache_and_refresh_flags_accepted(self, tmp_path, capsys):
        from repro.experiments.runner import main
        assert main(["--no-cache", "table1"]) == 0
        assert main(["--refresh", "--cache-dir", str(tmp_path),
                     "table4"]) == 0
        capsys.readouterr()

    def test_unknown_experiment_lists_valid_names(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["fig99"])
        err = capsys.readouterr().err
        assert "unknown experiments: fig99" in err
        assert "valid: " in err and "fig11" in err

    def test_rejects_bad_jobs_value(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["--jobs", "0", "table1"])
        capsys.readouterr()
