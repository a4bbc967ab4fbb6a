"""Export tests: JSONL round trips, the run manifest, the repro-obs
CLI, and the experiment runner's --obs-out integration."""

from dataclasses import replace

import pytest

from repro.asm.assembler import Assembler, standard_prologue
from repro.core.config import BASELINE
from repro.core.machine import Machine
from repro.experiments import base as experiments_base
from repro.memory.hierarchy import HierarchyConfig
from repro.obs.cli import main as obs_main
from repro.obs.events import EventRecorder
from repro.obs.export import (
    build_manifest,
    manifest_records,
    read_jsonl,
    read_manifest,
    write_events_jsonl,
    write_jsonl,
    write_manifest,
    write_windows_jsonl,
)
from repro.obs.sampler import IntervalSampler, window_from_dict

FAST = replace(BASELINE, hierarchy=HierarchyConfig(perfect=True))


def work_program(n=120) -> Assembler:
    asm = Assembler()
    standard_prologue(asm)
    asm.li("s0", n)
    asm.label("loop")
    asm.op("addq", "t0", "t0", 1)
    asm.op("addq", "t1", "t1", 2)
    asm.op("subq", "s0", "s0", 1)
    asm.br("bne", "s0", "loop")
    asm.halt()
    return asm


def observed_run(config=FAST):
    machine = Machine(work_program().assemble(), config)
    recorder = EventRecorder()
    machine.subscribe(recorder)
    sampler = IntervalSampler(window=64)
    machine.add_probe(sampler)
    attribution = machine.enable_stall_attribution()
    result = machine.run()
    sampler.finish(machine)
    return machine, result, recorder, sampler, attribution


class TestJsonlRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [{"a": 1, "b": "two"}, {"a": 2, "b": None}]
        assert write_jsonl(path, records) == 2
        assert read_jsonl(path) == records

    def test_event_trace_round_trip(self, tmp_path):
        _, _, recorder, _, _ = observed_run()
        path = tmp_path / "events.jsonl"
        count = write_events_jsonl(path, recorder.events)
        assert count == len(recorder.events)
        records = read_jsonl(path)
        assert len(records) == count
        assert records[0]["kind"] == recorder.events[0].kind
        assert {r["kind"] for r in records} \
            == {e.kind for e in recorder.events}

    def test_window_series_round_trip(self, tmp_path):
        _, _, _, sampler, _ = observed_run()
        path = tmp_path / "windows.jsonl"
        write_windows_jsonl(path, sampler.windows)
        rebuilt = [window_from_dict(r) for r in read_jsonl(path)]
        assert rebuilt == sampler.windows


class TestManifest:
    def test_manifest_contents_and_invariants(self, tmp_path):
        machine, result, _, sampler, attribution = observed_run(
            FAST.with_packing())
        manifest = build_manifest(result, attribution=attribution,
                                  sampler=sampler, workload="unit",
                                  scale=1)
        attr = manifest["attribution"]
        assert (attr["slots_total"]
                == attr["issue_width"] * attr["cycles"]
                == machine.config.issue_width * machine.stats.cycles)
        windows = manifest["windows"]
        assert (sum(w["committed"] for w in windows)
                == manifest["stats"]["committed"])
        assert manifest["config"]["issue_width"] \
            == machine.config.issue_width
        assert manifest["config"]["packing"]["enabled"] is True
        assert manifest["power"]["gated_mw"] > 0

    def test_manifest_files_round_trip(self, tmp_path):
        _, result, _, sampler, attribution = observed_run()
        manifest = build_manifest(result, attribution=attribution,
                                  sampler=sampler)
        paths = write_manifest(tmp_path, manifest, stem="run")
        assert read_manifest(paths["json"]) == manifest
        records = read_jsonl(paths["jsonl"])
        kinds = [r["record"] for r in records]
        assert kinds[0] == "run"
        assert kinds.count("window") == len(sampler.windows)
        assert set(list(manifest_records(manifest))[0]) == set(records[0])

    def test_manifest_without_obs_layers(self):
        machine = Machine(work_program().assemble(), FAST)
        result = machine.run()
        manifest = build_manifest(result)
        assert manifest["attribution"] is None
        assert manifest["windows"] is None
        assert manifest["stats"]["committed"] == machine.stats.committed


class TestCli:
    def test_repro_obs_on_go_with_packing(self, tmp_path, capsys):
        """The acceptance scenario: repro-obs on the go workload with
        packing leaves a manifest whose stall slots conserve exactly
        and whose windows sum to the committed count."""
        out = tmp_path / "go"
        code = obs_main(["go", "--packing", "--events",
                         "--window", "1000", "--out", str(out)])
        assert code == 0
        manifest = read_manifest(out / "manifest.json")
        stats = manifest["stats"]
        attr = manifest["attribution"]
        assert attr["slots_total"] == attr["issue_width"] * attr["cycles"]
        assert attr["cycles"] == stats["cycles"]
        assert (sum(w["committed"] for w in manifest["windows"])
                == stats["committed"])
        assert manifest["config"]["packing"]["enabled"] is True
        assert stats["packed_ops"] > 0
        events = read_jsonl(out / "events.jsonl")
        assert sum(1 for e in events if e["kind"] == "commit") \
            == stats["committed"]
        assert (out / "windows.jsonl").exists()
        assert (out / "manifest.jsonl").exists()
        captured = capsys.readouterr()
        # Stream contract: human summary on stderr, artifact paths on
        # stdout (machine-parseable).
        assert "slot conservation" in captured.err
        assert "slot conservation" not in captured.out
        assert "wrote " in captured.out

    def test_cli_list_workloads(self, capsys):
        assert obs_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "go" in out and "gsm-encode" in out

    @pytest.mark.parametrize("argv,message", [
        (["--max-insts", "0"], "--max-insts must be >= 1"),
        (["--max-insts", "-5"], "--max-insts must be >= 1"),
        (["--scale", "0"], "--scale must be >= 1"),
        (["--max-events", "0"], "--max-events must be >= 1"),
    ], ids=["max-insts-0", "max-insts-negative", "scale-0",
            "max-events-0"])
    def test_empty_measurement_is_a_usage_error(self, argv, message,
                                                tmp_path, capsys):
        # A zero cap would silently mean "the whole window" (or the
        # config's event cap), a negative one measures nothing, and
        # scale 0 builds no workload: refuse before simulating.
        out = tmp_path / "go"
        with pytest.raises(SystemExit) as excinfo:
            obs_main(["go", "--out", str(out)] + argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestRunnerObsDir:
    def test_run_workload_leaves_manifest(self, tmp_path):
        from repro.exec import RunContext
        result = experiments_base.run_workload(
            "go", BASELINE.with_packing(), use_cache=False,
            ctx=RunContext(obs_dir=tmp_path))
        manifests = list(tmp_path.glob("go-*.json"))
        assert len(manifests) == 1
        manifest = read_manifest(manifests[0])
        assert manifest["stats"]["committed"] == result.stats.committed
        attr = manifest["attribution"]
        assert attr["slots_total"] == attr["issue_width"] * attr["cycles"]
        assert manifests[0].with_suffix(".jsonl").exists()

    def test_no_module_global_obs_setter(self):
        # The deprecated warn-once shim is gone for good: obs output is
        # configured only by threading RunContext(obs_dir=...).
        assert not hasattr(experiments_base, "set_obs" + "_dir")
        assert not hasattr(experiments_base, "_OBS_DIR_WARNED")
