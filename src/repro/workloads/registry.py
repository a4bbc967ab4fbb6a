"""Workload registry: the benchmark stand-ins of Tables 2 and 3.

Each workload names a builder that assembles a complete program plus the
warmup fraction the paper's methodology skips ("The warmup period also
avoids the effects of smaller operand sizes that are prevalent within
program initialization", Section 3.2).  ``scale`` stretches the main
loop counts so experiments can trade runtime for statistical weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.isa.instruction import Program

#: Suite identifiers matching the paper's Tables 2 and 3.
SPECINT95 = "specint95"
MEDIABENCH = "mediabench"


#: Sentinel for :attr:`Workload.warmup`: warm up through the first half
#: of the run (used by streaming kernels whose first pass over their
#: buffers warms the L2, mirroring the paper's cache-warming protocol).
WARMUP_HALF = -1


@dataclass(frozen=True)
class Workload:
    """A registered benchmark stand-in."""

    name: str
    suite: str
    description: str
    builder: Callable[[int], Program]
    #: instructions of fast-mode warmup before detailed simulation
    #: (:data:`WARMUP_HALF` = half of the full dynamic length)
    warmup: int = 0
    #: detailed-simulation window in committed instructions (the analog
    #: of the paper's 100M-instruction representative window); None =
    #: run to completion
    window: int | None = 30_000

    def build(self, scale: int = 1) -> Program:
        """The program at the given scale factor (>= 1).

        The last program built for each workload is kept and returned
        again for the same scale, so the warmup-length count, the run
        and the workload's next config share one build.  Nothing that
        runs a :class:`Program` mutates it; call :attr:`builder` for a
        fresh one.
        """
        if scale < 1:
            raise ValueError("scale must be >= 1")
        last = _PROGRAMS.get(self)
        if last is None or last[0] != scale:
            last = _PROGRAMS[self] = (scale, self.builder(scale))
        return last[1]


#: The last ``(scale, program)`` each workload built (see
#: :meth:`Workload.build`): at most one program per workload.
_PROGRAMS: dict[Workload, tuple[int, Program]] = {}

_REGISTRY: dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in _REGISTRY:
        raise ValueError(f"duplicate workload {workload.name!r}")
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    """Look up a workload by name (e.g. ``"ijpeg"``, ``"gsm-encode"``)."""
    _ensure_loaded()
    return _REGISTRY[name]


def all_workloads() -> list[Workload]:
    _ensure_loaded()
    return list(_REGISTRY.values())


def suite_workloads(suite: str) -> list[Workload]:
    """All workloads in a suite (:data:`SPECINT95` or :data:`MEDIABENCH`)."""
    _ensure_loaded()
    return [w for w in _REGISTRY.values() if w.suite == suite]


_LENGTH_CACHE: dict[tuple[str, int], int] = {}


def dynamic_length(workload: Workload, scale: int = 1) -> int:
    """Total dynamic instruction count of a workload, closing HALT
    included: an architectural run to completion
    (:func:`repro.fastsim.machine.count_to_halt`), cached per scale for
    the life of the process."""
    key = (workload.name, scale)
    if key not in _LENGTH_CACHE:
        # Imported lazily so `import repro.workloads` stays cheap.
        from repro.fastsim.machine import count_to_halt

        _LENGTH_CACHE[key] = count_to_halt(workload.build(scale))
    return _LENGTH_CACHE[key]


def resolve_warmup(workload: Workload, scale: int = 1) -> int:
    """Concrete warmup instruction count (resolves :data:`WARMUP_HALF`)."""
    if workload.warmup == WARMUP_HALF:
        return dynamic_length(workload, scale) // 2
    return workload.warmup


def _ensure_loaded() -> None:
    """Import the benchmark modules, which register themselves."""
    # Imported lazily so `import repro.workloads` stays cheap.
    from repro.workloads import media, spec  # noqa: F401
