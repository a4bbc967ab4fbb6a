"""Parallel run engine with a persistent result cache.

The unit of work is a :class:`~repro.exec.jobs.Job` — one
``(workload, config, scale)`` simulation.  A
:class:`~repro.exec.engine.RunEngine` runs batches of jobs under a
:class:`~repro.exec.context.RunContext` (obs directory, cache policy,
worker count), deduplicating shared jobs, fanning fresh simulations out
over a process pool, and backing everything with an on-disk
:class:`~repro.exec.cache.ResultCache` keyed by workload, scale, the
config's stable fingerprint, and a schema version.

Both result sources (the disk cache and fresh simulation, serial or
pooled) produce bit-exact identical counters: every fresh result
passes through the same lossless serialize/deserialize round trip the
cache uses.
"""

from repro.exec.cache import SCHEMA as CACHE_SCHEMA
from repro.exec.cache import ResultCache
from repro.exec.cli import (
    add_engine_arguments,
    context_from_args,
    validate_engine_args,
)
from repro.exec.context import RunContext
from repro.exec.engine import EngineStats, RunEngine
from repro.exec.jobs import Job, dedupe
from repro.exec.serialize import result_from_dict, result_to_dict
from repro.exec.shards import CAS_SCHEMA, CasLayoutError, ShardedResultCache

__all__ = [
    "CACHE_SCHEMA",
    "CAS_SCHEMA",
    "CasLayoutError",
    "EngineStats",
    "Job",
    "ResultCache",
    "RunContext",
    "RunEngine",
    "ShardedResultCache",
    "add_engine_arguments",
    "context_from_args",
    "dedupe",
    "result_from_dict",
    "result_to_dict",
    "validate_engine_args",
]
