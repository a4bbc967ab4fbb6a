"""``sim-mix``: seeded simulation jobs in a fresh interpreter.

A pass is one child interpreter (``simmix_child.py``) that runs every
job of :func:`gen.simmix_pass` through the run engine with caching off,
so the per-process warmup-length cache starts cold exactly as it does
for a command-line user.  A pass (28 fast jobs and 3 observed ones)
takes 20–28 s on the reference host, too long to repeat within one
run, so the untraced run measures one pass and every figure is one
sample of it; ``--seconds`` does not change the work.  The traced run
measures the same pass untraced, then traced.

Metrics: ``sim_insts_per_s`` is committed detailed-window
instructions over whole-job host wall time of the fast jobs;
``pass_cold_jobs_s`` and ``pass_warm_jobs_s`` are
the summed whole-job wall of each workload's ``baseline`` /
``packing-replay`` job, which :func:`gen.simmix_pass` always runs in
that order (the first pays the warmup-length functional pass of a
workload whose warmup is half its run, the second finds it cached).  Sums over 14
jobs, rather than the median job, keep one or two jobs' timing noise
from deciding the number.  The gated ``throughput`` and ``cold_s`` are
the same two figures over the jobs' processor time instead of their
wall time, scaled to the reference host by the host speed sampled
during their own jobs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import env
import gen
from ledger import CONTRACT_PER_LAYER, estimated_overhead, \
    format_self_times, layer_metrics, self_times, write_trace
from hostspeed import Timed, Window, keep_off_sampler
from report import Outcome
from rules import DigestBook, job_key

CHILD = env.BENCH_DIR / "simmix_child.py"
SETUP_PROBES = 8


def _spawn() -> tuple[subprocess.Popen, Timed]:
    """Start a child and wait for its ready line; returns it and the
    set-up sample: the window from spawn to ready and the child's
    processor time in it."""
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, str(CHILD)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             env=env.child_env(), text=True,
                             cwd=str(env.ROOT))
    keep_off_sampler(child.pid)
    line = child.stdout.readline()
    window = (t0, time.perf_counter())
    ready = json.loads(line) if line else {}
    if not ready.get("ready"):
        env.stop(child)
        raise RuntimeError("sim-mix child failed to start")
    return child, (window, ready["cpu_s"])


def run_pass(jobs: list[gen.SimJob], workdir, trace: bool = False,
             tag: str = "pass") -> dict:
    """One pass in a fresh child; returns its result document plus
    its set-up sample, ``setup``."""
    spool = workdir / f"{tag}-spool"
    spool.mkdir(parents=True, exist_ok=True)
    request = {"jobs": [job.as_dict() for job in jobs],
               "obs_dir": str(workdir / f"{tag}-obs"), "trace": trace,
               "spool": str(spool)}
    child, setup = _spawn()
    try:
        code, out = env.reap(child, 170, json.dumps(request) + "\n")
    except BaseException:
        env.stop(child)
        raise
    if code != 0:
        raise RuntimeError(f"sim-mix child exited {code}")
    doc = json.loads(out.strip().splitlines()[-1])
    doc["setup"] = setup
    return doc


def setup_probe(workdir) -> Timed:
    """One more set-up sample: a child that is given no jobs."""
    return run_pass([], workdir, tag="probe")["setup"]


def _verify(outcome: Outcome, rows: list[dict], book: DigestBook) -> None:
    for row in rows:
        key = job_key(row["workload"], row["config"])
        label = f"{key}{' observed' if row['observed'] else ''}"
        if "error" in row:
            outcome.check(False, f"{label}: {row['error']}")
        else:
            outcome.check(book.job_ok(key, row["sha256"]),
                          f"{label}: result digest mismatch")


def _rate(rows: list[dict]) -> float:
    ok = [r for r in rows if "wall_s" in r]
    wall = sum(r["wall_s"] for r in ok)
    return sum(r["committed"] for r in ok) / wall if wall else 0.0


def _split_cold_warm(rows: list[dict]) -> tuple[list[dict], list[dict]]:
    """The fast jobs that are each workload's first in the pass (cold:
    they pay the warmup-length pass) and its second (warm)."""
    seen: set[str] = set()
    cold, warm = [], []
    for row in rows:
        if row["observed"] or "wall_s" not in row:
            continue
        (warm if row["workload"] in seen else cold).append(row)
        seen.add(row["workload"])
    return cold, warm


def _windows(rows: list[dict]) -> list[Window]:
    return [tuple(r["window"]) for r in rows if "window" in r]


def run(seed: int, seconds: int, trace: bool, book: DigestBook) -> Outcome:
    outcome = Outcome("sim-mix", seed, trace)
    workdir = env.scratch_dir("sim-mix")
    jobs = gen.simmix_pass(seed)
    # Half the set-up probes before the pass and half after, so a slow
    # stretch of the host does not land on all of them.
    setups = [setup_probe(workdir) for _ in range(SETUP_PROBES // 2)]
    plain = _measure(outcome, jobs, workdir, book, setups, "untraced")
    if trace:
        traced = _measure(outcome, jobs, workdir, book, setups, "traced",
                          trace=True)
        _report_traced(outcome, seed, plain, traced)
    else:
        _report_untraced(outcome, plain)
    setups += [setup_probe(workdir) for _ in range(SETUP_PROBES // 2)]
    outcome.set_shared(setups, env.peak_rss_mb())
    outcome.details["jobs"] = [job.as_dict() for job in jobs]
    outcome.finish()
    return outcome


def _measure(outcome: Outcome, jobs: list[gen.SimJob], workdir,
             book: DigestBook, setups: list[Timed], tag: str,
             trace: bool = False) -> dict:
    doc = run_pass(jobs, workdir, trace=trace, tag=tag)
    setups.append(doc["setup"])
    _verify(outcome, doc["rows"], book)
    return doc


def _report_untraced(outcome: Outcome, doc: dict) -> None:
    fast = [r for r in doc["rows"] if not r["observed"]]
    observed = [r for r in doc["rows"] if r["observed"]]
    sim_rate = _rate(fast)
    cold_rows, warm_rows = _split_cold_warm(doc["rows"])
    cold = sum(r["wall_s"] for r in cold_rows)
    warm = sum(r["wall_s"] for r in warm_rows)
    # The gates count the child's processor time, which on an unloaded
    # host is its wall time: a job is single-threaded and does no I/O
    # to speak of.  Wall time also counts the moments another process
    # held the child's CPU, 0-11% of a pass over ten measured runs.
    ok = [r for r in fast if "cpu_s" in r]
    outcome.gate("throughput", sum(r["committed"] for r in ok)
                 / sum(r["cpu_s"] for r in ok), _windows(ok))
    outcome.gate("cold_s", sum(r["cpu_s"] for r in cold_rows),
                 _windows(cold_rows))
    outcome.name("sim_insts_per_s", sim_rate, "1/s", jobs=len(fast))
    outcome.name("observed_insts_per_s", _rate(observed), "1/s",
                 jobs=len(observed))
    outcome.name("pass_cold_jobs_s", cold, "s")
    outcome.name("pass_warm_jobs_s", warm, "s")
    outcome.details["pass"] = doc


def _report_traced(outcome: Outcome, seed: int, plain: dict,
                   traced: dict) -> None:
    spans = traced["spans"]
    outcome.layers = layer_metrics(spans)
    missing = [name for name, _ in CONTRACT_PER_LAYER
               if name not in outcome.layers]
    outcome.check(not missing, f"traced run lacks {missing}")
    overhead = traced["elapsed_s"] - plain["elapsed_s"]
    outcome.name("untraced_pass_s", plain["elapsed_s"], "s")
    outcome.name("traced_pass_s", traced["elapsed_s"], "s")
    outcome.name("tracing_overhead_s", overhead, "s",
                 share=round(overhead / plain["elapsed_s"], 4))
    outcome.name("tracing_overhead_est_s", estimated_overhead(spans), "s",
                 spans=len(spans))
    path = write_trace(env.OUT / "traces" / f"sim-mix-seed{seed}.json",
                       spans, {"tool": "perfbench", "workload": "sim-mix",
                               "seed": seed})
    outcome.notes.append(format_self_times(self_times(spans),
                                           traced["elapsed_s"]))
    outcome.notes.append(f"  chrome trace: {path}")
