"""Tests for the experiment harness.

Full-suite experiments are exercised by the benchmark harness in
``benchmarks/``; here we test the machinery (memoization, suite math,
report formatting, Table 1/4 content) plus a couple of cheap
single-benchmark end-to-end runs.  The ``run_workload`` memo is shared
process-wide, so these runs are reused by later tests in the session.
"""

import pytest

from repro.core.config import BASELINE
from repro.experiments import (
    fig1_cumulative_widths,
    fig2_width_fluctuation,
    fig4_narrow16_by_class,
    fig7_power_total,
    fig10_packing_speedup,
    fig11_ipc,
    table1_config,
    table4_devices,
)
from repro.experiments.base import (
    all_names,
    format_table,
    mean,
    media_names,
    run_workload,
    spec_names,
)


class TestBase:
    def test_suite_names_cover_paper_tables(self):
        assert len(spec_names()) == 8       # Table 2
        assert len(media_names()) == 6      # Table 3
        assert len(all_names()) == 14

    def test_run_workload_memoized(self):
        first = run_workload("go", BASELINE)
        second = run_workload("go", BASELINE)
        assert first is second

    def test_run_workload_distinct_configs(self):
        base = run_workload("go", BASELINE)
        packed = run_workload("go", BASELINE.with_packing())
        assert base is not packed
        # Same committed work, possibly different cycles.
        assert base.stats.committed == packed.stats.committed

    def test_no_cache_bypass(self):
        cached = run_workload("go", BASELINE)
        fresh = run_workload("go", BASELINE, use_cache=False)
        assert fresh is not cached
        assert fresh.stats.cycles == cached.stats.cycles  # deterministic

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_format_table_aligns(self):
        table = format_table(["a", "bb"], [["x", 1.234], ["yy", 5.0]])
        lines = table.splitlines()
        assert len(lines) == 4               # header, rule, two rows
        assert "1.23" in table


class TestTables:
    def test_table1_matches_paper(self):
        text = table1_config.report()
        for fragment in ("80 instructions", "40", "4 integer ALUs",
                         "2048-entry, 2-way", "32-entry", "2 cycles",
                         "64K, 2-way", "8M, 4-way", "100 cycles",
                         "128 entry"):
            assert fragment in text

    def test_table4_matches_paper(self):
        text = table4_devices.report()
        for fragment in ("210.0", "2100.0", "11.7", "8.8", "4.2", "3.2"):
            assert fragment in text

    def test_table4_paper_values_within_tolerance(self):
        from repro.power.devices import device_power
        for device, columns in table4_devices.PAPER_VALUES.items():
            for width, paper in zip((32, 48, 64), columns):
                assert device_power(device, width) == pytest.approx(
                    paper, rel=0.02)


class TestSingleBenchmarkExperiments:
    """End-to-end experiment math on one cheap benchmark (go)."""

    def test_fig1_curve_shape(self):
        result = run_workload("go", BASELINE)
        curve = result.widths.cumulative_curve()
        assert len(curve) == 64
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        assert curve[63] == pytest.approx(100.0)
        # the 33-bit address jump
        assert curve[32] - curve[30] > 5

    def test_fig7_reduction_positive(self):
        result = run_workload("go", BASELINE)
        assert 20 < result.power.reduction_pct < 90

    def test_fig2_structures(self):
        perfect = run_workload("go", BASELINE.with_predictor("perfect"))
        realistic = run_workload("go", BASELINE)
        assert perfect.fluctuation.total_pcs > 0
        # Wrong-path execution can only add fluctuation.
        assert (realistic.fluctuation.fluctuation_pct
                >= perfect.fluctuation.fluctuation_pct - 1e-9)


class TestReportFormatting:
    """Report renderers on synthetic results (no simulation)."""

    def test_fig1_report(self):
        result = fig1_cumulative_widths.Fig1Result(
            curves={"go": [float(i + 1) / 0.64 for i in range(64)]},
            aggregate=[float(i + 1) / 0.64 for i in range(64)])
        text = fig1_cumulative_widths.report(result)
        assert "Figure 1" in text and "go" in text

    def test_fig2_report(self):
        result = fig2_width_fluctuation.Fig2Result(
            rows=[fig2_width_fluctuation.Fig2Row("go", 5.0, 9.0)])
        text = fig2_width_fluctuation.report(result)
        assert "perfect" in text and "9.0" in text
        assert result.mean_realistic == 9.0

    def test_fig4_report(self):
        from repro.isa.opcodes import OpClass
        row = fig4_narrow16_by_class.NarrowByClassRow(
            "gsm-encode", {OpClass.INT_ARITH: 30.0, OpClass.INT_MULT: 6.0})
        result = fig4_narrow16_by_class.NarrowByClassResult(16, [row])
        text = fig4_narrow16_by_class.report(result)
        assert "Figure 4" in text
        assert row.total == pytest.approx(36.0)

    def test_fig7_suite_averages(self):
        rows = [fig7_power_total.Fig7Row(name, 100.0, 50.0)
                for name in all_names()]
        result = fig7_power_total.Fig7Result(rows)
        assert result.spec_reduction_pct == pytest.approx(50.0)
        assert result.media_reduction_pct == pytest.approx(50.0)
        assert "54.1" in fig7_power_total.report(result)

    def test_fig10_suite_averages(self):
        rows = [fig10_packing_speedup.Fig10Row(name, 8.0, 4.0)
                for name in all_names()]
        result = fig10_packing_speedup.Fig10Result(4, False, rows)
        assert result.spec_perfect == pytest.approx(8.0)
        assert result.media_realistic == pytest.approx(4.0)
        assert "Figure 10" in fig10_packing_speedup.report(result)

    def test_fig11_gap_closed(self):
        row = fig11_ipc.Fig11Row("ijpeg", 2.0, 2.4, 2.5)
        assert row.gap_closed_pct == pytest.approx(80.0)
        closed = fig11_ipc.Fig11Row("x", 2.0, 2.0, 2.0)
        assert closed.gap_closed_pct == 100.0

    def test_runner_registry(self):
        from repro.experiments.registry import experiment_names
        for key in ("table1", "table4", "fig1", "fig2", "fig4", "fig5",
                    "fig6", "fig7", "fig10", "fig10-replay",
                    "fig10-8wide", "fig11", "loaddetect"):
            assert key in experiment_names()


class TestRunnerCLI:
    def test_runs_cheap_experiments(self, capsys):
        from repro.experiments.runner import main
        assert main(["table1", "table4"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 4" in out

    def test_rejects_unknown_experiment(self):
        import pytest as _pytest
        from repro.experiments.runner import main
        with _pytest.raises(SystemExit):
            main(["fig99"])

    def test_rejects_scale_below_one(self, capsys):
        # Scale 0 builds no workload: a usage error, not a suite of
        # jobs that each fail after their retries.
        from repro.experiments.runner import main
        with pytest.raises(SystemExit) as excinfo:
            main(["fig2", "--scale", "0"])
        assert excinfo.value.code == 2
        assert "--scale must be >= 1" in capsys.readouterr().err
