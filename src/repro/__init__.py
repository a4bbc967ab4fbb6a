"""repro — reproduction of Brooks & Martonosi, "Dynamically Exploiting
Narrow Width Operands to Improve Processor Power and Performance"
(HPCA 1999).

The package provides:

* :mod:`repro.isa` / :mod:`repro.asm` — a 64-bit Alpha-like ISA and a
  structured assembler for writing workloads;
* :mod:`repro.core` — a SimpleScalar-style out-of-order, speculative
  timing simulator (RUU/LSQ, Table 1 baseline);
* :mod:`repro.bitwidth` — the paper's narrow-width operand detection;
* :mod:`repro.power` — operand-based clock gating and the Table 4
  power model (Section 4);
* :mod:`repro.packing` — issue-time operation packing and replay
  packing (Section 5);
* :mod:`repro.workloads` — SPECint95 / MediaBench stand-in kernels;
* :mod:`repro.experiments` — regeneration of every figure and table;
* :mod:`repro.obs` — observability: the pipeline event bus, interval
  sampler, top-down CPI stall attribution, and JSONL run artifacts
  (``repro-obs`` / ``repro-experiments --obs-out``);
* :mod:`repro.exec` — the run engine: disk cache or fresh
  simulation, retries, timeouts, the sharded content-addressed store;
* :mod:`repro.service` — the async experiment service: typed sweep
  submissions over HTTP with request coalescing and backpressure
  (``repro-serve`` / ``repro-sweep``).

Quickstart::

    from repro import Machine, BASELINE
    from repro.workloads import get_workload

    program = get_workload("ijpeg").build()
    machine = Machine(program, BASELINE.with_packing())
    result = machine.run()
    print(result.ipc, result.stats.packed_ops)

Engine-tier and service use::

    from repro import Job, RunContext, RunEngine
    result = RunEngine(RunContext(cache_dir="cache")).run(Job("go", BASELINE))

    from repro import JobSpec, ServiceClient, SubmitRequest
    client = ServiceClient("http://127.0.0.1:8731")
    sweep = client.submit(SubmitRequest(jobs=(JobSpec(workload="go"),)))
"""

from repro.core.config import (
    BASELINE,
    MachineConfig,
    PackingConfig,
    named_configs,
)
from repro.core.machine import Machine, RunResult
from repro.exec import Job, RunContext, RunEngine
from repro.experiments.registry import Experiment
from repro.power.gating import FULL_GATING, OPCODE_ONLY, GatingPolicy
from repro.service import (
    Backpressure,
    JobSpec,
    JobStatus,
    ServiceClient,
    ServiceError,
    SubmitRequest,
    SubmitResponse,
    SweepStatus,
)

__version__ = "1.0.0"

__all__ = [
    "BASELINE",
    "Backpressure",
    "Experiment",
    "FULL_GATING",
    "GatingPolicy",
    "Job",
    "JobSpec",
    "JobStatus",
    "Machine",
    "MachineConfig",
    "OPCODE_ONLY",
    "PackingConfig",
    "RunContext",
    "RunEngine",
    "RunResult",
    "ServiceClient",
    "ServiceError",
    "SubmitRequest",
    "SubmitResponse",
    "SweepStatus",
    "named_configs",
    "__version__",
]
