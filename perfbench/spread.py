"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workload service-mixed --runs 10

Runs ``run.py`` once per seed (``--first-seed``, then consecutive
seeds), reads each run's result line, and prints for every end-to-end
metric of ``BENCHMARK.json`` its median and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  A spread under a third of the metric's bound is
marked ``steady``.  The summary is also written to
``perfbench/out/spread-<workload>.json``.  Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import env

CONTRACT = env.ROOT / "BENCHMARK.json"


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    seconds = args.seconds or contract["run_seconds"]
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        completed = subprocess.run(
            [sys.executable, str(env.BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True,
            cwd=str(env.ROOT), timeout=600)
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if completed.returncode != 0 or not result.get("correct"):
            failed += 1
            print(f"seed {seed}: FAILED (exit {completed.returncode})",
                  file=sys.stderr)
            continue
        for name, doc in result["metrics"].items():
            values.setdefault(name, []).append(doc["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
            flush=True)
    summary = {"workload": args.workload, "runs": args.runs,
               "seconds": seconds, "failed": failed, "metrics": {}}
    for metric in contract["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        if len(values.get(name, [])) < 2:
            continue
        median, share = spread(values[name])
        verdict = ("steady" if share < bound / 3
                   else "within bound" if share <= bound else "TOO WIDE")
        summary["metrics"][name] = {"median": median, "iqr_share": share,
                                    "bound": bound, "verdict": verdict,
                                    "values": values[name]}
        print(f"{name:14s} median {median:12.6g}  spread {share:7.2%}  "
              f"bound {bound:5.0%}  {verdict}")
    path = env.OUT / f"spread-{args.workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
