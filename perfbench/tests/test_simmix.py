"""Each sim-mix pass starts in a fresh interpreter with cold caches,
and each workload reports its own children's peak RSS."""

import os
import sys

import env
import gen
from simmix import run_pass


def test_each_pass_runs_in_a_fresh_process(tmp_path):
    env.require_source()
    jobs = [gen.SimJob("go", "baseline")]
    first = run_pass(jobs, tmp_path, tag="a")
    second = run_pass(jobs, tmp_path, tag="b")
    assert first["pid"] != second["pid"]
    assert os.getpid() not in (first["pid"], second["pid"])
    for doc in (first, second):
        assert doc["warmup_cache_at_start"] == 0
        (start, ready), cpu_s = doc["setup"]
        assert ready > start and cpu_s > 0
        [row] = doc["rows"]
        assert row["committed"] == 10198 and row["wall_s"] > 0
    assert first["rows"][0]["sha256"] == second["rows"][0]["sha256"]


def test_peak_rss_covers_only_children_reaped_since_reset(tmp_path):
    env.require_source()
    env.reset_peak_rss()
    assert env.peak_rss_mb() == 0
    run_pass([gen.SimJob("go", "baseline")], tmp_path, tag="big")
    assert env.peak_rss_mb() > 0
    env.reset_peak_rss()
    assert env.peak_rss_mb() == 0
    code, _window, _ = env.run_timed([sys.executable, "-c", "pass"], 60)
    assert code == 0 and env.peak_rss_mb() > 0
