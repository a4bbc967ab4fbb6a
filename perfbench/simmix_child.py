"""One ``sim-mix`` pass, in a fresh interpreter.

Protocol (line-oriented JSON over the pipes):

1. the child imports what the first job needs, then prints
   ``{"ready": true, "cpu_s": ...}`` — its processor time so far is one
   ``setup_s`` sample, measured in the parent's window from spawn to
   this line;
2. it reads one request line: ``{"jobs": [...], "obs_dir": ...,
   "trace": bool, "spool": ...}``;
3. it runs every job through ``RunEngine(RunContext(use_cache=False,
   jobs=1, backend="fast"))`` — observed jobs with ``obs_dir`` set —
   timing each ``run_jobs`` call (build through serialize) with
   ``perf_counter``, the clock the parent's host-speed samples use,
   and with ``process_time``;
4. with the wrappers removed again, it computes each result's
   canonical bytes and prints one result line: per-job rows (wall,
   window, processor time, committed, cycles, sha256, error) plus the
   spans when traced.

Run as ``python perfbench/simmix_child.py`` with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    from repro.core.config import named_configs
    from repro.exec import Job, RunContext, RunEngine
    from repro.workloads import registry
    import repro.fastsim.machine  # noqa: F401  (the fast backend itself)

    # Evidence for the fresh-process contract: nothing cached yet.
    cached = len(registry._LENGTH_CACHE)
    print(json.dumps({"ready": True, "cpu_s": time.process_time()}),
          flush=True)
    request = json.loads(sys.stdin.readline())
    configs = named_configs()
    fast = RunContext(use_cache=False, jobs=1, backend="fast")
    observed = RunContext(use_cache=False, jobs=1, backend="fast",
                          obs_dir=request["obs_dir"])

    tracer = None
    if request.get("trace"):
        from ledger import Tracer
        tracer = Tracer(spool_dir=request.get("spool"))
        tracer.install()
    rows, results = [], []
    started = time.perf_counter()
    try:
        for spec in request["jobs"]:
            job = Job(spec["workload"], configs[spec["config"]], 1)
            engine = RunEngine(observed if spec["observed"] else fast)
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                result = engine.run(job)
            except Exception as err:  # noqa: BLE001 — counted as failed
                rows.append({**spec, "error": f"{type(err).__name__}: "
                                              f"{err}"})
                results.append(None)
                continue
            t1 = time.perf_counter()
            rows.append({**spec, "wall_s": t1 - t0, "window": [t0, t1],
                         "cpu_s": time.process_time() - c0,
                         "committed": result.stats.committed,
                         "cycles": result.stats.cycles})
            results.append(result)
    finally:
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()

    from repro.exec.serialize import result_to_dict
    from repro.service.service import canonical_result_bytes
    from rules import sha256_hex
    for row, result in zip(rows, results):
        if result is not None:
            row["sha256"] = sha256_hex(
                canonical_result_bytes(result_to_dict(result)))
    print(json.dumps({"rows": rows, "elapsed_s": elapsed,
                      "pid": os.getpid(), "warmup_cache_at_start": cached,
                      "spans": tracer.collect() if tracer else []}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
