"""Seeded generation: same seed, same inputs; any seed, same work."""

from collections import Counter

import gen


def test_fixed_seed_reproduces_the_job_sequence():
    assert gen.simmix_pass(5) == gen.simmix_pass(5)
    assert gen.simmix_pass(5) != gen.simmix_pass(6)


def test_sim_mix_seeds_permute_the_same_work():
    expected = Counter([(w, c, False) for w in gen.ALL_WORKLOADS
                        for c in gen.SIM_CONFIGS]
                       + [(w, c, True) for w, c in gen.OBSERVED_JOBS])
    for seed in (1, 2, 3):
        jobs = gen.simmix_pass(seed)
        assert Counter((j.workload, j.config, j.observed)
                       for j in jobs) == expected


def test_sim_mix_runs_each_workloads_configs_in_a_fixed_order():
    for seed in (1, 2, 3):
        firsts: dict[str, str] = {}
        for job in gen.simmix_pass(seed):
            if not job.observed:
                firsts.setdefault(job.workload, job.config)
        assert set(firsts.values()) == {gen.SIM_CONFIGS[0]}


def test_fixed_seed_reproduces_the_request_sequence():
    first = gen.service_schedule(11)
    again = gen.service_schedule(11)
    assert first.segments == again.segments
    assert first.coalesced == again.coalesced
    other = gen.service_schedule(12)
    assert other.segments != first.segments


def test_service_schedule_uses_every_fresh_fingerprint_once():
    schedule = gen.service_schedule(3)
    assert schedule.counts() == {"cold": 46, "warm": 460,
                                 "coalesced_pairs": 10}
    cold = [spec for client in schedule.segments for seg in client
            for kind, spec in seg if kind == "cold"]
    fresh = cold + schedule.coalesced
    assert sorted(fresh) == sorted(gen.service_pool())
    warm = {spec for client in schedule.segments for seg in client
            for kind, spec in seg if kind == "warm"}
    assert warm <= set(gen.PRIMING)
    cold_client, warm_client = schedule.segments
    assert {kind for seg in cold_client for kind, _ in seg} == {"cold"}
    assert {kind for seg in warm_client for kind, _ in seg} == {"warm"}
    for client in schedule.segments:
        assert len(client) == len(schedule.coalesced) + 1


def test_trace_mix_is_a_smaller_schedule():
    schedule = gen.service_schedule(1, cold=20, pairs=4, warm=100)
    assert schedule.counts() == {"cold": 20, "warm": 100,
                                 "coalesced_pairs": 4}
