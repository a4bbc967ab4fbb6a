"""Property test for the two-phase contract: capture, then replay.

The fast backend's phase 2 rebuilds every instrument (width histogram,
fluctuation tracker, power accountant) from the compact trace captured
in phase 1.  The property runs the whole fast backend against the
reference machine on random workloads, configurations and windows, and
demands the *entire* serialized result agree: the width histogram,
fluctuation counters and power totals the replay rebuilds, and the
packed-op counters under the packing configs.

Windows are kept small (<= 1500 committed instructions) so hypothesis
can afford several examples per run.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BASELINE
from repro.core.machine import Machine
from repro.exec.serialize import dict_divergences, result_to_dict
from repro.fastsim.machine import FastMachine
from repro.power.gating import GatingPolicy
from repro.workloads.registry import get_workload, resolve_warmup

WORKLOADS = ("go", "compress", "g721-encode", "gsm-decode", "perl")

#: Gating with and without load zero-detect, plain and packed.
ALL_CONFIGS = (
    BASELINE,
    BASELINE.with_gating(GatingPolicy(detect_loads=False)),
    BASELINE.with_packing(),
    BASELINE.with_packing(replay=True),
)

windows = st.integers(min_value=64, max_value=1500)


@given(workload=st.sampled_from(WORKLOADS),
       config=st.sampled_from(ALL_CONFIGS),
       window=windows)
@settings(max_examples=8, deadline=None)
def test_fast_backend_matches_reference_end_to_end(
        workload, config, window):
    """The full two-phase backend against the reference machine: zero
    divergent paths in the serialized result (stats incl. packed-op
    counters, widths, fluctuation, power)."""
    wl = get_workload(workload)
    warmup = resolve_warmup(wl, 1)

    reference = Machine(wl.build(1), config)
    reference.fast_forward(warmup)
    ref = result_to_dict(reference.run(max_insts=window))

    fast = FastMachine(wl.build(1), config)
    fast.fast_forward(warmup)
    out = result_to_dict(fast.run(max_insts=window))
    assert dict_divergences(ref, out) == []
