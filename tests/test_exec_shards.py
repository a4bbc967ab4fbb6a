"""Tests for the sharded content-addressed store and the shared
engine CLI flags.

The CAS contract: entry *bytes* are identical to the flat layout's
(only the directory differs), the root is self-describing via its
layout marker, corruption quarantines per shard, and fingerprint-only
lookups scan exactly one shard.  The flag contract: every repro CLI
carries the same engine knob group and derives the same typed
RunContext from it.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.core.config import BASELINE, named_configs
from repro.exec import (
    CAS_SCHEMA,
    CasLayoutError,
    Job,
    RunContext,
    RunEngine,
    ShardedResultCache,
    add_engine_arguments,
    clear_memo,
    context_from_args,
    validate_engine_args,
)
from repro.exec.shards import MARKER, shard_key

GO = Job("go", BASELINE, 1)


class TestShardKey:
    def test_deterministic(self):
        assert shard_key("go-x1-abc") == shard_key("go-x1-abc")

    def test_width(self):
        assert len(shard_key("x", 2)) == 2
        assert len(shard_key("x", 4)) == 4

    def test_hashed_not_prefix(self):
        # Raw fingerprints share the workload-name prefix; hashing
        # spreads them (same workload, different configs -> usually
        # different shards, never guaranteed-same).
        keys = {shard_key(f"go-x1-{c.fingerprint()}")
                for c in named_configs().values()}
        assert len(keys) > 1

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            ShardedResultCache("anywhere", width=0)
        with pytest.raises(ValueError):
            ShardedResultCache("anywhere", width=9)


class TestShardedLayout:
    def run_into(self, directory, layout):
        clear_memo()
        ctx = RunContext(cache_dir=directory, cache_layout=layout)
        return RunEngine(ctx).run(GO)

    def test_store_lands_in_shard_with_marker(self, tmp_path):
        self.run_into(tmp_path / "cas", "cas")
        marker = json.loads((tmp_path / "cas" / MARKER).read_text())
        assert marker["schema"] == CAS_SCHEMA
        assert marker["shard_width"] == 2
        cache = ShardedResultCache(tmp_path / "cas")
        entries = cache.entries()
        assert len(entries) == 1
        # The entry sits in the shard its fingerprint hashes to.
        assert entries[0].parent.name == shard_key(GO.fingerprint())

    def test_entry_bytes_identical_to_flat_layout(self, tmp_path):
        self.run_into(tmp_path / "cas", "cas")
        self.run_into(tmp_path / "flat", "flat")
        cas_entry = ShardedResultCache(tmp_path / "cas").entries()[0]
        flat_entry = sorted((tmp_path / "flat").glob("*.json"))[0]
        assert cas_entry.name == flat_entry.name
        assert cas_entry.read_bytes() == flat_entry.read_bytes()

    def test_warm_hit_through_engine(self, tmp_path):
        first = self.run_into(tmp_path / "cas", "cas")
        clear_memo()
        engine = RunEngine(RunContext(cache_dir=tmp_path / "cas",
                                      cache_layout="cas"))
        second = engine.run(GO)
        assert engine.stats.cache_hits == 1
        assert engine.stats.fresh_runs == 0
        assert second.stats.as_dict() == first.stats.as_dict()

    def test_load_by_fingerprint(self, tmp_path):
        self.run_into(tmp_path / "cas", "cas")
        cache = ShardedResultCache(tmp_path / "cas")
        entry = cache.load_by_fingerprint(GO.fingerprint())
        assert entry is not None
        assert entry["fingerprint"] == GO.fingerprint()
        assert cache.load_by_fingerprint("no-such-fingerprint") is None

    def test_corrupt_entry_quarantines_in_its_shard(self, tmp_path):
        self.run_into(tmp_path / "cas", "cas")
        cache = ShardedResultCache(tmp_path / "cas")
        path = cache.entries()[0]
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        path.write_bytes(bytes(raw))

        clear_memo()
        engine = RunEngine(RunContext(cache_dir=tmp_path / "cas",
                                      cache_layout="cas"))
        recovered = engine.run(GO)
        assert engine.stats.cache_quarantined == 1
        assert engine.stats.fresh_runs == 1
        assert recovered.stats.as_dict() is not None
        quarantined = ShardedResultCache(tmp_path / "cas").quarantined()
        assert len(quarantined) == 1
        # Quarantine stays inside the shard that owned the entry.
        assert quarantined[0].parent.parent.name \
            == shard_key(GO.fingerprint())


class TestLayoutMarker:
    def test_width_mismatch_refused(self, tmp_path):
        root = tmp_path / "cas"
        root.mkdir()
        (root / MARKER).write_text(json.dumps(
            {"schema": CAS_SCHEMA, "shard_width": 3}))
        with pytest.raises(CasLayoutError):
            ShardedResultCache(root, width=2)
        ShardedResultCache(root, width=3)    # matching width is fine

    def test_foreign_schema_refused(self, tmp_path):
        root = tmp_path / "cas"
        root.mkdir()
        (root / MARKER).write_text(json.dumps(
            {"schema": "something-else/9", "shard_width": 2}))
        with pytest.raises(CasLayoutError):
            ShardedResultCache(root)

    def test_unreadable_marker_refused(self, tmp_path):
        root = tmp_path / "cas"
        root.mkdir()
        (root / MARKER).write_text("{not json")
        with pytest.raises(CasLayoutError):
            ShardedResultCache(root)

    def test_context_validates_layout(self, tmp_path):
        with pytest.raises(ValueError):
            RunContext(cache_dir=tmp_path, cache_layout="banana")


def _all_parsers():
    from repro.experiments.runner import build_parser as experiments
    from repro.obs.cli import build_parser as obs
    from repro.robust.cli import build_parser as chaos
    from repro.service.server import build_parser as serve
    return {"repro-experiments": experiments(), "repro-obs": obs(),
            "repro-chaos": chaos(), "repro-serve": serve()}


class TestSharedEngineFlags:
    ENGINE_DESTS = ("jobs", "backend", "cache_dir", "cache_layout",
                    "no_cache", "refresh", "timeout", "retries")

    def test_every_cli_carries_the_full_group(self):
        for name, parser in _all_parsers().items():
            dests = {action.dest for action in parser._actions}
            missing = set(self.ENGINE_DESTS) - dests
            assert not missing, f"{name} is missing {sorted(missing)}"

    def test_context_from_args_and_overrides(self, tmp_path):
        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)
        args = parser.parse_args(
            ["--jobs", "3", "--cache-dir", str(tmp_path),
             "--cache-layout", "cas", "--refresh", "--retries", "0",
             "--backend", "fast", "--timeout", "5.5"])
        validate_engine_args(parser, args)
        ctx = context_from_args(args, obs_dir=tmp_path / "obs")
        assert ctx.jobs == 3
        assert ctx.backend == "fast"
        assert ctx.cache_layout == "cas"
        assert ctx.refresh and ctx.use_cache
        assert ctx.retries == 0
        assert ctx.timeout == 5.5
        assert ctx.obs_dir == tmp_path / "obs"

    @pytest.mark.parametrize("argv", [
        ["--jobs", "0"],
        ["--retries", "-1"],
        ["--timeout", "0"],
    ])
    def test_uniform_validation_rejects(self, argv):
        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)
        args = parser.parse_args(argv)
        with pytest.raises(SystemExit):
            validate_engine_args(parser, args)
