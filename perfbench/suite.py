"""``suite``: the command-line user's path, cold then warm.

``repro-experiments`` runs as a subprocess (``--backend fast --jobs 2``)
over :data:`digests.SUITE_EXPERIMENTS` — a baseline-config figure
(fig4), a packing figure of the fig10 family (fig11) and ``lint``;
``chaos`` is excluded.  A run starts from an empty flat cache
directory: one cold run fills it, then warm reruns on the same cache
must simulate nothing.  Every run's stdout must match the committed
digest.

The warm reruns run back to back for a third of ``--seconds`` (at
least :data:`MIN_WARM_RUNS`), and ``suite_warm_s`` is their mean.  The
shared host runs in fast and slow stretches of several seconds, so one
rerun's time is bimodal: a median of a dozen flips between the two
modes from run to run, while the mean follows the share of slow time
smoothly.

Metrics: ``cold_s`` is ``suite_cold_s``, ``throughput`` is fresh
simulations per second of the cold run, ``setup_s`` is the median time
for a fresh interpreter to import the runner, in processor time; all
three are gated scaled to the reference host by the host speed
sampled while they were measured.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env
from digests import SUITE_EXPERIMENTS, suite_key
from ledger import CONTRACT_PER_LAYER, estimated_overhead, \
    format_self_times, layer_metrics, read_spool, self_times, write_trace
from hostspeed import Timed
from report import Outcome
from rules import DigestBook, sha256_hex

MIN_WARM_RUNS = 3
SETUP_PROBES = 8


def _invoke(cache: Path, workdir: Path, tag: str,
            traced: bool = False) -> dict:
    """One ``repro-experiments`` process; returns wall, exit code,
    stdout digest and the engine counters (plus spans when traced)."""
    metrics = workdir / f"{tag}-metrics.json"
    args = [*SUITE_EXPERIMENTS, "--backend", "fast", "--jobs", "2",
            "--cache-dir", str(cache), "--metrics-out", str(metrics)]
    spool = workdir / f"{tag}-spool"
    trace_out = workdir / f"{tag}-engine-trace.json"
    if traced:
        command = [sys.executable, str(env.BENCH_DIR / "suite_child.py"),
                   str(spool), *args, "--trace-out", str(trace_out)]
    else:
        command = [sys.executable, "-m", "repro.experiments.runner", *args]
    stdout_path = workdir / f"{tag}.stdout"
    with open(stdout_path, "wb") as out, \
            open(workdir / f"{tag}.stderr", "wb") as err:
        code, window, _ = env.run_timed(command, 170, stdout=out,
                                        stderr=err)
    doc = {"wall_s": window[1] - window[0], "window": window,
           "returncode": code,
           "stdout_sha256": sha256_hex(stdout_path.read_bytes())}
    counters = (json.loads(metrics.read_text())["counters"]
                if metrics.exists() else {})
    doc["fresh_runs"] = counters.get("engine.fresh_runs", 0)
    doc["cache_hits"] = counters.get("engine.cache_hits", 0)
    if traced:
        doc["spans"] = read_spool(spool)
        doc["engine_trace"] = (json.loads(trace_out.read_text())
                               if trace_out.exists() else None)
    return doc


def _verify(outcome: Outcome, doc: dict, tag: str, book: DigestBook,
            warm: bool) -> None:
    outcome.check(doc["returncode"] == 0,
                  f"{tag}: repro-experiments exited {doc['returncode']}")
    outcome.check(book.suite_ok(suite_key(), doc["stdout_sha256"]),
                  f"{tag}: stdout digest mismatch")
    if warm:
        outcome.check(doc["fresh_runs"] == 0,
                      f"{tag}: warm run simulated {doc['fresh_runs']} "
                      f"jobs (expected 0)")
    else:
        outcome.check(doc["fresh_runs"] > 0,
                      f"{tag}: cold run simulated nothing")


def setup_probe() -> Timed:
    """A fresh interpreter importing the runner; returns its window and
    the interpreter's processor time to the end of the import."""
    code, window, out = env.run_timed(
        [sys.executable, "-c", "import time, repro.experiments.runner; "
                               "print(time.process_time())"], 60,
        stdout=subprocess.PIPE, text=True)
    if code != 0:
        raise RuntimeError(f"importing the runner exited {code}")
    return window, float(out)


def _cycle(outcome: Outcome, workdir: Path, tag: str, book: DigestBook,
           warm_span: float = 0.0, traced: bool = False) -> tuple[dict,
                                                                  list]:
    """A cold run on a fresh cache, then warm reruns back to back until
    ``warm_span`` seconds have passed (at least one, or
    :data:`MIN_WARM_RUNS` when a span is given)."""
    cache = workdir / f"{tag}-cache"
    cold = _invoke(cache, workdir, f"{tag}-cold", traced=traced)
    _verify(outcome, cold, f"{tag} cold", book, warm=False)
    warms = []
    started = time.perf_counter()
    minimum = MIN_WARM_RUNS if warm_span else 1
    while (len(warms) < minimum
           or time.perf_counter() - started < warm_span):
        index = len(warms)
        warm = _invoke(cache, workdir, f"{tag}-warm{index}", traced=traced)
        _verify(outcome, warm, f"{tag} warm {index}", book, warm=True)
        warms.append(warm)
    return cold, warms


def run(seed: int, seconds: int, trace: bool, book: DigestBook) -> Outcome:
    outcome = Outcome("suite", seed, trace)
    workdir = env.scratch_dir("suite")
    # Half the set-up probes before the measurement and half after, so
    # a slow stretch of the host does not land on all of them.
    setups = [setup_probe() for _ in range(SETUP_PROBES // 2)]
    if trace:
        _run_traced(outcome, seed, workdir, book)
    else:
        cold, warms = _cycle(outcome, workdir, "run", book,
                             warm_span=seconds / 3)
        warm_s = statistics.mean(w["wall_s"] for w in warms)
        outcome.gate("throughput", cold["fresh_runs"] / cold["wall_s"],
                     [cold["window"]])
        outcome.gate("cold_s", cold["wall_s"], [cold["window"]])
        outcome.name("suite_cold_s", cold["wall_s"], "s",
                     fresh=cold["fresh_runs"])
        outcome.name("suite_warm_s", warm_s, "s", count=len(warms),
                     fresh=sum(w["fresh_runs"] for w in warms))
        outcome.name("suite_jobs_per_s", outcome.contract["throughput"],
                     "1/s")
        outcome.details["runs"] = {"cold": cold, "warm": warms}
    outcome.details["experiments"] = list(SUITE_EXPERIMENTS)
    setups += [setup_probe() for _ in range(SETUP_PROBES - len(setups))]
    outcome.set_shared(setups, env.peak_rss_mb())
    outcome.finish()
    return outcome


def _engine_layers(trace_doc: dict | None) -> dict[str, float]:
    """Queue wait and engine overhead from the runner's own
    ``--trace-out`` spans (microsecond Chrome events)."""
    if not trace_doc:
        return {}
    events = [e for e in trace_doc["traceEvents"] if e.get("ph") == "X"]
    queue = sum(e["dur"] for e in events if e["name"] == "queue.wait")
    batch = sum(e["dur"] for e in events if e["name"] == "suite.batch")
    busy: dict[int, float] = {}
    for event in events:
        if event["name"] == "execute":
            busy[event["pid"]] = busy.get(event["pid"], 0.0) + event["dur"]
    simulate = max(busy.values(), default=0.0)
    return {"exec.queue_wait_s": queue / 1e6,
            "exec.engine_overhead_s": (batch - simulate) / 1e6}


def _run_traced(outcome: Outcome, seed: int, workdir: Path,
                book: DigestBook) -> None:
    plain_cold, plain_warm = _cycle(outcome, workdir, "untraced", book)
    cold, warms = _cycle(outcome, workdir, "traced", book, traced=True)
    spans = cold["spans"] + warms[0]["spans"]
    outcome.layers = layer_metrics(spans)
    outcome.layers.update(_engine_layers(cold["engine_trace"]))
    outcome.layers["exec.fresh_runs"] = cold["fresh_runs"]
    outcome.layers["exec.cache_hits"] = warms[0]["cache_hits"]
    missing = [name for name, _ in CONTRACT_PER_LAYER
               if name not in outcome.layers]
    outcome.check(not missing, f"traced run lacks {missing}")
    untraced_s = plain_cold["wall_s"] + plain_warm[0]["wall_s"]
    traced_s = cold["wall_s"] + warms[0]["wall_s"]
    outcome.name("untraced_cold_plus_warm_s", untraced_s, "s")
    outcome.name("traced_cold_plus_warm_s", traced_s, "s")
    outcome.name("tracing_overhead_s", traced_s - untraced_s, "s",
                 share=round((traced_s - untraced_s) / untraced_s, 4))
    outcome.name("tracing_overhead_est_s", estimated_overhead(spans), "s",
                 spans=len(spans))
    path = write_trace(env.OUT / "traces" / f"suite-seed{seed}.json", spans,
                       {"tool": "perfbench", "workload": "suite",
                        "seed": seed})
    outcome.notes.append(format_self_times(self_times(spans), traced_s))
    outcome.notes.append("  (two pool workers run in parallel, so shares "
                         "can sum past 100%; exec.engine's self time is "
                         "the runner waiting on them)")
    outcome.notes.append(f"  chrome trace: {path}")
