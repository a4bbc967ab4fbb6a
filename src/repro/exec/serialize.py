"""Lossless (de)serialization of :class:`~repro.core.machine.RunResult`.

The run engine moves results across two boundaries — worker process to
parent, and disk cache to a later session — through one dict form, so
a result is bit-exact no matter which path produced it: every counter
is an int, and floats survive JSON via ``repr`` round-tripping.

The machine configuration is *not* embedded: the caller always knows
the :class:`~repro.exec.jobs.Job` it asked for, and the cache key
already commits to the config fingerprint, so rehydration reattaches
the caller's config object (`result_from_dict(..., config=job.config)`).
"""

from __future__ import annotations

from repro.core.config import MachineConfig
from repro.core.machine import RunResult
from repro.power.accounting import PowerReport
from repro.stats.counters import CoreStats
from repro.stats.fluctuation import FluctuationTracker
from repro.stats.widths import WidthHistogram


def result_to_dict(result: RunResult) -> dict:
    """Flatten a run result to a JSON-safe dict (config excluded)."""
    return {
        "name": result.name,
        "stats": result.stats.as_dict(),
        "widths": result.widths.as_dict(),
        "fluctuation": result.fluctuation.as_dict(),
        "power": result.power.as_dict() if result.power else None,
    }


def dict_divergences(a: dict, b: dict, prefix: str = "") -> list[str]:
    """Dotted paths at which two serialized results differ.

    ``repro-equivalence`` (:mod:`repro.fastsim.cli`) reports *where*
    the fast and reference results disagree, not just that they do; a
    leaf differing in value or present on only one side contributes
    its path.
    """
    paths: list[str] = []
    for key in sorted(set(a) | set(b), key=str):
        left = a.get(key)
        right = b.get(key)
        where = f"{prefix}{key}"
        if isinstance(left, dict) and isinstance(right, dict):
            paths.extend(dict_divergences(left, right, where + "."))
        elif left != right:
            paths.append(where)
    return paths


def result_from_dict(data: dict, config: MachineConfig) -> RunResult:
    """Rebuild a run result from :func:`result_to_dict` output,
    reattaching the configuration the job was keyed on."""
    power = data.get("power")
    return RunResult(
        name=data["name"],
        config=config,
        stats=CoreStats.from_dict(data["stats"]),
        widths=WidthHistogram.from_dict(data["widths"]),
        fluctuation=FluctuationTracker.from_dict(data["fluctuation"]),
        power=PowerReport.from_dict(power) if power is not None else None,
    )
