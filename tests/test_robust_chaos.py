"""Tests for the chaos harness (:mod:`repro.robust.chaos` + CLI).

Small windows keep these fast; the full 14-workload matrix is the
``repro-chaos`` CLI's own acceptance run (exercised in CI).
"""

from __future__ import annotations

import pytest

from repro.robust.chaos import (
    DETECTED,
    MASKED,
    UNARMED,
    cache_chaos,
    chaos_run,
    chaos_suite,
    derive_seed,
    summarize,
)
from repro.robust.cli import main
from repro.robust.faults import parse_token
from repro.robust.inject import make_injector

_WINDOW = 3000


class TestChaosRuns:
    def test_every_injector_masked_or_detected(self):
        outcomes = chaos_suite(["g721-encode"],
                               ["tag-flip", "tag-conservative",
                                "result-corrupt", "replay-drop"],
                               seed=0, window=_WINDOW)
        assert all(o.ok for o in outcomes)
        by_name = {o.injector: o for o in outcomes}
        assert by_name["tag-flip"].verdict == DETECTED
        assert by_name["tag-conservative"].verdict == MASKED
        assert by_name["result-corrupt"].verdict == DETECTED

    def test_chaos_is_deterministic_per_seed(self):
        def trial():
            injector = make_injector(
                "tag-flip", seed=derive_seed(7, "g721-encode", "tag-flip"))
            return chaos_run("g721-encode", injector, seed=7,
                             window=_WINDOW)
        first, second = trial(), trial()
        assert (first.verdict, first.injections, first.detail) == \
               (second.verdict, second.injections, second.detail)

    def test_replay_drop_detected_on_trapping_workload(self):
        injector = make_injector("replay-drop", seed=0, site=0)
        outcome = chaos_run("perl", injector, seed=0, window=10_000)
        assert outcome.verdict == DETECTED

    def test_unknown_injector_rejected(self):
        with pytest.raises(ValueError):
            make_injector("frobnicate")

    def test_summarize_counts(self):
        outcomes = chaos_suite(["g721-encode"], ["tag-flip"],
                               seed=0, window=_WINDOW)
        counts = summarize(outcomes)
        assert counts["silent"] == 0 and counts["false-positive"] == 0
        assert counts[DETECTED] + counts[MASKED] + counts[UNARMED] == 1


class TestCacheChaos:
    @pytest.mark.parametrize("mode", ["bitflip", "truncate"])
    def test_cache_corruption_detected(self, tmp_path, mode):
        outcome = cache_chaos(tmp_path, mode=mode, seed=3)
        assert outcome.verdict == DETECTED
        assert outcome.violations == 1   # quarantine count


class TestFaultTokens:
    def test_parse_token_roundtrip(self):
        assert parse_token("crash") == ("crash", None)
        assert parse_token("hang:/tmp/x") == ("hang", "/tmp/x")
        with pytest.raises(ValueError):
            parse_token("explode")


class TestChaosCLI:
    def test_single_trial_exits_zero(self, capsys):
        code = main(["-w", "g721-encode", "-i", "tag-flip",
                     "--seed", "0", "--window", str(_WINDOW)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 silent corruptions" in out
        assert "detected" in out

    @pytest.mark.parametrize("argv,message", [
        (["--window", "0"], "--window must be >= 1"),
        (["--window", "-5"], "--window must be >= 1"),
        (["--scale", "0"], "--scale must be >= 1"),
        (["-w", "nope"], "invalid choice: 'nope'"),
    ], ids=["window-0", "window-negative", "scale-0", "unknown-workload"])
    def test_empty_trial_is_a_usage_error(self, argv, message, capsys):
        # A negative window arms nothing yet would print the clean
        # verdict line; window 0 runs to HALT; scale 0 builds nothing;
        # an unknown workload is named before any trial runs.
        with pytest.raises(SystemExit) as excinfo:
            main(["-w", "go", "-i", "tag-flip"] + argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "chaos:" not in captured.out

    def test_list_prints_catalog(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("tag-flip", "tag-conservative", "result-corrupt",
                     "replay-drop", "cache-bitflip"):
            assert name in out

    def test_cache_chaos_flag(self, tmp_path, capsys):
        code = main(["--cache-chaos", "bitflip", "--seed", "1",
                     "--cache-dir", str(tmp_path / "cache"),
                     "-w", "g721-encode", "-i", "tag-flip",
                     "--window", str(_WINDOW)])
        out = capsys.readouterr().out
        assert code == 0
        assert "cache-bitflip" in out
