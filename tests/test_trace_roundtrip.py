"""Property tests for the two-phase contract: capture, then replay.

The fast backend's phase 2 rebuilds every instrument (width histogram,
fluctuation tracker, power accountant) from the compact columnar trace
captured in phase 1.  These properties pin the contract from both ends:

* a trace captured from the **reference** machine, replayed through the
  vectorized instrument twins, reproduces the reference run's width
  histogram, fluctuation counters, and power totals exactly;
* the whole fast backend (capture fused into its own pipeline) agrees
  with the reference machine on the *entire* serialized result — which
  covers the packed-op counters and power totals under packing configs
  the pure-capture property can't express.

Windows are kept small (<= 1500 committed instructions) so hypothesis
can afford several examples per run.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BASELINE
from repro.core.machine import Machine
from repro.exec.serialize import dict_divergences, result_to_dict
from repro.fastsim.capture import TraceCapture
from repro.fastsim.compile import compile_program
from repro.fastsim.machine import FastMachine
from repro.fastsim.replay import replay_measurements
from repro.power.gating import GatingPolicy
from repro.workloads.registry import get_workload, resolve_warmup

WORKLOADS = ("go", "compress", "g721-encode", "gsm-decode", "perl")

#: Configurations without packing: the pure capture->replay property
#: runs on the reference machine, which records no packing rows.
PLAIN_CONFIGS = (
    BASELINE,
    BASELINE.with_gating(GatingPolicy(detect_loads=False)),
)

#: The full sweep for the end-to-end property, packing included.
ALL_CONFIGS = PLAIN_CONFIGS + (
    BASELINE.with_packing(),
    BASELINE.with_packing(replay=True),
)

windows = st.integers(min_value=64, max_value=1500)


@given(workload=st.sampled_from(WORKLOADS),
       config=st.sampled_from(PLAIN_CONFIGS),
       window=windows)
@settings(max_examples=8, deadline=None)
def test_captured_trace_replays_to_reference_instruments(
        workload, config, window):
    """Reference run + capture, then vectorized replay: the replayed
    instruments must equal the live ones counter for counter."""
    wl = get_workload(workload)
    machine = Machine(wl.build(1), config)
    machine.fast_forward(resolve_warmup(wl, 1))
    capture = TraceCapture()
    machine.attach_capture(capture)
    result = machine.run(max_insts=window)

    replayed = replay_measurements(capture, compile_program(machine.program),
                                   config.gating)
    assert replayed.widths.as_dict() == result.widths.as_dict()
    assert (replayed.fluctuation.as_dict()
            == result.fluctuation.as_dict())
    assert result.power is not None
    replayed_power = replayed.accountant.report(result.stats.cycles)
    assert replayed_power.as_dict() == result.power.as_dict()


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
