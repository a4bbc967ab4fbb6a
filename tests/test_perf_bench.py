"""repro-bench tests: matrix execution, document schema, diff logic,
and the committed baseline's integrity (the CI perf-smoke gate diffs
against it, so it must stay well-formed).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.exec.engine import clear_memo
from repro.perf.bench import (
    DEFAULT_FAST_FLOOR,
    DEFAULT_THRESHOLD,
    DEFAULT_WORKLOADS,
    SCHEMA,
    check_fast_floor,
    diff_against,
    host_fingerprint,
    main as bench_main,
    run_matrix,
)
from repro.perf.metrics import reset_registry

BASELINE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" \
    / "BENCH_baseline.json"


@pytest.fixture(autouse=True)
def _fresh():
    clear_memo()
    reset_registry()
    yield
    clear_memo()
    reset_registry()


def tiny_doc(**overrides) -> dict:
    doc = {
        "schema": SCHEMA,
        "host": host_fingerprint(),
        "workloads": {
            "go": {"cycles": 1000, "committed": 1100,
                   "wall_seconds": 0.1, "cycles_per_sec": 10_000.0,
                   "insts_per_sec": 11_000.0,
                   "fast_wall_seconds": 0.02,
                   "fast_cycles_per_sec": 50_000.0,
                   "fast_insts_per_sec": 55_000.0,
                   "fast_speedup": 5.0},
        },
    }
    doc.update(overrides)
    return doc


class TestDiff:
    def test_within_threshold_passes(self):
        base = tiny_doc()
        current = tiny_doc()
        current["workloads"]["go"] = dict(
            base["workloads"]["go"], cycles_per_sec=9_000.0)
        notes, regressions = diff_against(current, base, 0.25)
        assert regressions == []
        assert any("go" in n for n in notes)

    def test_regression_beyond_threshold_fails(self):
        base = tiny_doc()
        current = tiny_doc()
        current["workloads"]["go"] = dict(
            base["workloads"]["go"], cycles_per_sec=7_000.0)  # -30%
        _, regressions = diff_against(current, base, 0.25)
        assert len(regressions) == 1
        assert "go" in regressions[0]

    def test_improvement_never_fails(self):
        base = tiny_doc()
        current = tiny_doc()
        current["workloads"]["go"] = dict(
            base["workloads"]["go"], cycles_per_sec=50_000.0)
        _, regressions = diff_against(current, base, 0.25)
        assert regressions == []

    def test_schema_mismatch_is_a_regression(self):
        base = tiny_doc(schema="repro-bench/0")
        _, regressions = diff_against(tiny_doc(), base, 0.25)
        assert any("schema" in r for r in regressions)

    def test_host_mismatch_is_only_a_note(self):
        base = tiny_doc(host={"platform": "other", "python": "0",
                              "machine": "vax", "cpus": 1})
        notes, regressions = diff_against(tiny_doc(), base, 0.25)
        assert regressions == []
        assert any("host" in n for n in notes)

    def test_fast_column_regression_fails(self):
        base = tiny_doc()
        current = tiny_doc()
        current["workloads"]["go"] = dict(
            base["workloads"]["go"], fast_cycles_per_sec=30_000.0)  # -40%
        _, regressions = diff_against(current, base, 0.25)
        assert len(regressions) == 1
        assert "fast" in regressions[0]

    def test_pre_fast_baseline_skips_fast_column(self):
        # Baselines written before the fast backend existed have no
        # fast_* columns; the diff must not crash or flag them.
        base = tiny_doc()
        for key in list(base["workloads"]["go"]):
            if key.startswith("fast_"):
                del base["workloads"]["go"][key]
        notes, regressions = diff_against(tiny_doc(), base, 0.25)
        assert regressions == []

    def test_workload_set_drift_is_noted_not_fatal(self):
        base = tiny_doc()
        base["workloads"]["extra"] = base["workloads"]["go"]
        current = tiny_doc()
        current["workloads"]["new"] = current["workloads"]["go"]
        notes, regressions = diff_against(current, base, 0.25)
        assert regressions == []
        assert any("extra" in n for n in notes)
        assert any("new" in n for n in notes)


class TestFastFloor:
    def test_passes_at_or_above_floor(self):
        assert check_fast_floor(tiny_doc(), 5.0) == []
        assert check_fast_floor(tiny_doc(), 3.0) == []

    def test_fails_below_floor(self):
        failures = check_fast_floor(tiny_doc(), 6.0)
        assert len(failures) == 1
        assert "go" in failures[0] and "6.00x" in failures[0]

    def test_missing_measurement_fails(self):
        doc = tiny_doc()
        del doc["workloads"]["go"]["fast_speedup"]
        failures = check_fast_floor(doc, 3.0)
        assert len(failures) == 1 and "go" in failures[0]

    def test_zero_floor_disables(self):
        doc = tiny_doc()
        doc["workloads"]["go"]["fast_speedup"] = 0.1
        assert check_fast_floor(doc, 0) == []

    def test_default_floor_is_sane(self):
        # The default must sit safely under the ~5-6x this backend
        # measures on an idle host, leaving headroom for noisy CI.
        assert 1.0 < DEFAULT_FAST_FLOOR <= 4.0


class TestMatrix:
    def test_run_matrix_document_shape(self):
        doc = run_matrix(("g721-encode",), scale=1, window=2_000,
                         repeats=1, quick=True, log=lambda _: None)
        assert doc["schema"] == SCHEMA
        row = doc["workloads"]["g721-encode"]
        assert row["cycles"] > 0
        assert row["cycles_per_sec"] > 0
        assert row["fast_cycles_per_sec"] > 0
        assert row["fast_speedup"] == pytest.approx(
            row["wall_seconds"] / row["fast_wall_seconds"], rel=0.01)
        assert row["cycles_per_sec"] == pytest.approx(
            row["cycles"] / row["wall_seconds"], rel=0.01)
        assert doc["obs_overhead"]["workload"] == "g721-encode"
        assert doc["engine"] is None              # quick skips it
        assert doc["host"] == host_fingerprint()
        assert doc["config_fingerprint"]
        assert doc["metrics"]["schema"].startswith("repro-metrics/")
        json.dumps(doc)                           # JSON-safe end to end

    def test_cli_writes_bench_file_and_diffs_clean_self(self, tmp_path,
                                                        capsys):
        code = bench_main(["--workloads", "g721-encode", "--repeats",
                           "1", "--window", "2000", "--quick",
                           "--out-dir", str(tmp_path)])
        assert code == 0
        (bench_file,) = tmp_path.glob("BENCH_*.json")
        doc = json.loads(bench_file.read_text())
        # Self-diff: a run can never regress against itself.
        code = bench_main(["--workloads", "g721-encode", "--repeats",
                           "1", "--window", "2000", "--quick",
                           "--out-dir", str(tmp_path),
                           "--against", str(bench_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cycles/sec" in out
        assert "fast backend" in out
        assert doc["quick"] is True

    def test_host_mismatch_note_goes_to_stderr(self, tmp_path, capsys):
        code = bench_main(["--workloads", "g721-encode", "--repeats",
                           "1", "--window", "2000", "--quick",
                           "--out-dir", str(tmp_path)])
        assert code == 0
        (bench_file,) = tmp_path.glob("BENCH_*.json")
        doc = json.loads(bench_file.read_text())
        doc["host"] = {"platform": "other", "python": "0",
                       "machine": "vax", "cpus": 1}
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        capsys.readouterr()
        code = bench_main(["--workloads", "g721-encode", "--repeats",
                           "1", "--window", "2000", "--quick",
                           "--out-dir", str(tmp_path),
                           "--against", str(tampered)])
        assert code == 0
        captured = capsys.readouterr()
        # Diagnostic context, not a measurement: stderr only, so
        # anything parsing the stdout diff never sees it.
        assert "host fingerprint" in captured.err
        assert "host fingerprint" not in captured.out

    @pytest.mark.parametrize("argv,message", [
        (["--window", "0"], "--window must be >= 1"),
        (["--window", "-5"], "--window must be >= 1"),
        (["--scale", "0"], "--scale must be >= 1"),
    ], ids=["window-0", "window-negative", "scale-0"])
    def test_empty_measurement_is_a_usage_error(self, argv, message,
                                                tmp_path, capsys):
        # A window below 1 measures nothing (0 silently meant the full
        # window) and scale 0 builds no workload: refuse before running
        # or writing a BENCH document.
        with pytest.raises(SystemExit) as excinfo:
            bench_main(argv + ["--workloads", "go", "--quick",
                               "--out-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_fast_floor_gate_fails_the_run(self, tmp_path, capsys):
        code = bench_main(["--workloads", "g721-encode", "--repeats",
                           "1", "--window", "2000", "--quick",
                           "--out-dir", str(tmp_path),
                           "--fast-floor", "1000"])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAST-FLOOR" in err and "FAIL" in err


class TestCommittedBaseline:
    def test_baseline_exists_and_is_well_formed(self):
        assert BASELINE_PATH.exists(), (
            "benchmarks/BENCH_baseline.json is the CI perf-smoke gate "
            "and must be committed")
        doc = json.loads(BASELINE_PATH.read_text())
        assert doc["schema"] == SCHEMA
        for name in DEFAULT_WORKLOADS:
            assert name in doc["workloads"], (
                f"baseline must cover the pinned matrix ({name})")
            assert doc["workloads"][name]["cycles_per_sec"] > 0
            assert doc["workloads"][name]["fast_speedup"] \
                >= DEFAULT_FAST_FLOOR, (
                    f"committed baseline's own {name} run is below the "
                    f"fast-floor gate")
        assert 0 < DEFAULT_THRESHOLD < 1
