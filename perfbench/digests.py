"""Regenerate ``expected_digests.json`` from the reference backend.

    python3 perfbench/digests.py --regenerate

For every job the benchmark can draw (:func:`drawable_jobs`) it
simulates the job on the reference ``Machine`` *and* on the fast
backend and records the sha256 of the canonical result bytes
(``repro.service.service.canonical_result_bytes``) — the bytes
``sim-mix`` checks and the bytes the service serves.  It also renders
the ``suite`` experiment subset on both backends and records the
sha256 of its stdout.  If the two backends disagree anywhere it
refuses to write and exits 1.

The digests check the simulator against its own reference backend,
bit for bit.  They do not compare the model against real hardware, so
the benchmark reports no accuracy figure.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import env
import gen
from rules import DIGESTS_PATH, DIGESTS_SCHEMA, job_key, sha256_hex

#: The experiment subset the ``suite`` workload renders.
SUITE_EXPERIMENTS = ("fig4", "fig11", "lint")


def suite_key() -> str:
    return " ".join(SUITE_EXPERIMENTS)


def drawable_jobs() -> list[tuple[str, str, int]]:
    """Every (workload, config, scale) any seed can draw."""
    jobs = {(w, c, 1) for w in gen.ALL_WORKLOADS for c in gen.SIM_CONFIGS}
    jobs |= set(gen.service_pool())
    jobs |= set(gen.PRIMING)
    return sorted(jobs)


def _digest(spec: tuple[str, str, int]) -> tuple[str, str, str]:
    """(key, reference sha256, fast sha256) of one job."""
    from repro.core.config import named_configs
    from repro.exec import Job, RunContext, RunEngine
    from repro.exec.serialize import result_to_dict
    from repro.service.service import canonical_result_bytes

    workload, config, scale = spec
    job = Job(workload, named_configs()[config], scale)
    shas = []
    for backend in ("reference", "fast"):
        engine = RunEngine(RunContext(use_cache=False, backend=backend))
        result = engine.run(job)
        shas.append(sha256_hex(canonical_result_bytes(
            result_to_dict(result))))
    return job_key(workload, config, scale), shas[0], shas[1]


def _suite_stdout(backend: str) -> bytes:
    completed = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner",
         *SUITE_EXPERIMENTS, "--backend", backend, "--jobs", "2",
         "--no-cache"],
        capture_output=True, env=env.child_env(), cwd=str(env.ROOT),
        timeout=1800, check=True)
    return completed.stdout


def regenerate() -> int:
    env.require_source()
    specs = drawable_jobs()
    context = multiprocessing.get_context("spawn")
    divergent = []
    jobs: dict[str, str] = {}
    with ProcessPoolExecutor(max_workers=len(os.sched_getaffinity(0)),
                             mp_context=context) as pool:
        for key, reference, fast in pool.map(_digest, specs):
            if reference != fast:
                divergent.append(key)
            jobs[key] = reference
            print(f"{key:32s} {reference[:16]}"
                  f"{'' if reference == fast else '  DIVERGENT'}",
                  flush=True)
    suite_ref = _suite_stdout("reference")
    suite_fast = _suite_stdout("fast")
    if suite_ref != suite_fast:
        divergent.append(f"suite stdout ({suite_key()})")
    if divergent:
        print(f"refusing to write {DIGESTS_PATH.name}: fast and reference "
              f"backends disagree on {', '.join(divergent)}",
              file=sys.stderr)
        return 1
    document = {
        "schema": DIGESTS_SCHEMA,
        "generated_by": "python3 perfbench/digests.py --regenerate",
        "checked_against": "reference backend (fast backend identical)",
        "jobs": jobs,
        "suite": {suite_key(): sha256_hex(suite_ref)},
    }
    DIGESTS_PATH.write_text(json.dumps(document, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
    print(f"wrote {len(jobs)} job digests and 1 suite digest to "
          f"{DIGESTS_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--regenerate", action="store_true",
                        help="simulate every drawable job on both "
                             "backends and rewrite the digest file")
    args = parser.parse_args(argv)
    if not args.regenerate:
        parser.error("nothing to do (pass --regenerate)")
    return regenerate()


if __name__ == "__main__":
    sys.exit(main())
