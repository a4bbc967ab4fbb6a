"""Gated timings are scaled by the host speed sampled inside their own
windows; the sampler child stops and returns its samples."""

import os
import time

import pytest

import hostspeed
from report import Outcome


def test_slowdown_uses_only_samples_inside_the_windows():
    samples = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (10.0, 9.0)]
    factor, count = hostspeed.slowdown(samples, [(0.5, 2.5)])
    assert count == 2
    assert factor == pytest.approx(1.5 / hostspeed.REFERENCE_MS)


def test_windows_combine_as_the_time_they_add_up_to():
    samples = [(1.0, 1.0), (3.0, 3.0)]
    # 1 s at slowdown 1 and 3 s at slowdown 3 take 1 + 1 reference
    # seconds: 4 s of wall time is a slowdown of 2.
    factor, count = hostspeed.slowdown(samples, [(0.5, 1.5), (2.0, 5.0)])
    assert (factor, count) == (pytest.approx(2.0), 2)


def test_a_median_scales_each_window_by_its_own_slowdown():
    samples = [(1.0, 1.0), (3.0, 4.0), (5.0, 2.0)]
    # 1 s at slowdown 1, 2 s at 4 and 1 s at 2: 1, 0.5 and 0.5
    # reference seconds, though the raw median is 1 s.
    windows = [(0.5, 1.5), (2.0, 4.0), (4.5, 5.5)]
    lengths = [t1 - t0 for t0, t1 in windows]
    assert hostspeed.scaled_median(samples, windows, lengths) == (
        pytest.approx(0.5), 3)


def test_a_window_between_samples_takes_the_nearest_one():
    samples = [(1.0, 1.0), (2.0, 4.0)]
    assert hostspeed.slowdown(samples, [(1.8, 1.9)]) == (4.0, 1)


def test_times_divide_and_rates_multiply_by_the_slowdown():
    outcome = Outcome("sim-mix", 1, False)
    outcome.gate("cold_s", 10.0, [(0.0, 10.0)])
    outcome.gate("throughput", 100.0, [(0.0, 10.0)])
    outcome.set_shared([((20.0, 20.2), 0.2), ((21.0, 21.4), 0.4)], 50.0)
    samples = [(t / 10, 2.0) for t in range(100)] + [(20.1, 1.0),
                                                      (21.2, 1.0)]
    outcome.scale_to_reference(samples)
    assert outcome.contract["cold_s"] == pytest.approx(5.0)
    assert outcome.contract["throughput"] == pytest.approx(200.0)
    assert outcome.contract["setup_s"] == pytest.approx(0.3)
    assert outcome.contract["peak_rss_mb"] == 50.0
    assert outcome.details["host_speed"]["cold_s"]["raw"] == 10.0


def test_sampler_returns_timestamped_samples():
    sampler = hostspeed.Sampler()
    time.sleep(0.2)
    samples = sampler.stop()
    assert sampler.process.returncode == 0
    assert len(samples) >= 2
    assert all(ms > 0 for _t, ms in samples)
    assert [t for t, _ in samples] == sorted(t for t, _ in samples)


def test_a_workload_process_is_kept_off_the_samplers_cpu():
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("needs two CPUs")
    sampler = hostspeed.Sampler()
    try:
        assert os.sched_getaffinity(sampler.process.pid) == {max(cpus)}
        hostspeed.keep_off_sampler(os.getpid())
        assert max(cpus) not in os.sched_getaffinity(0)
    finally:
        os.sched_setaffinity(0, cpus)
        sampler.stop()
