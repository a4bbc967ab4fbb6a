"""Host speed during a run, for scaling timings to a reference host.

The measuring host is a shared VM: its processor runs the same Python
code up to 40% slower while neighbours load the machine, in stretches
of seconds to minutes, and the processor time of a fixed loop moves
with its wall time (the slowdown is contention in the hardware, not
time spent waiting for a processor).  A 20 s run therefore reads 15–30%
apart from one run to the next with the same code.

A :class:`Sampler` child runs a fixed pure-Python loop every
:data:`PERIOD_S` seconds for the whole run and records the loop's
processor time (``thread_time``, so being descheduled does not count)
with a ``perf_counter`` timestamp (``CLOCK_MONOTONIC``, the same clock
in every process).  A window's slowdown is the mean loop time of the
samples inside it over :data:`REFERENCE_MS`, the loop's time on an
unloaded host; :func:`slowdown` combines the windows a metric was
measured in, and :func:`scaled_median` scales each window of a metric
that is a median of many.  A gated timing divided by it (a rate multiplied by it)
is the figure the same code gives on the reference host.  Over 49
repeats of one 0.5 s simulation job, the job time's coefficient of
variation was 14% raw and 3.1% scaled.  The loop is benchmark code,
so a change to the program moves the scaled figure as much as the raw
one.

Run as ``python perfbench/hostspeed.py``: it samples until a line (or
end of file) arrives on standard input, then prints its samples as one
JSON list of ``[timestamp, milliseconds]`` pairs.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time

import env

#: Iterations of the sampled loop (about 1 ms on the reference host).
LOOP_ITERATIONS = 3000
#: Pause between samples: the sampler uses about 5% of one processor.
PERIOD_S = 0.025
#: The loop's processor time, in ms, on the unloaded reference host (a
#: 2-vCPU Xeon VM, 2.1 GHz; its fastest samples read 0.99 ms).
REFERENCE_MS = 1.0

Sample = tuple[float, float]        # (perf_counter timestamp, loop ms)
Window = tuple[float, float]        # (perf_counter start, end)
Timed = tuple[Window, float]        # (window, seconds measured in it)


def _loop(n: int, table: dict[int, int], values: list[int]) -> int:
    """Integer arithmetic, then dictionary and list reads at
    pseudo-random places: the kinds of work a pure-Python simulator
    does."""
    total = 0
    for i in range(n):
        total += i * i ^ (i >> 3)
    x = 12345
    for _ in range(n // 2):
        x = (x * 1103515245 + 12345) & 0xFFFF
        total += table[x] ^ values[x >> 1]
    return total


def sample_until_input() -> list[Sample]:
    """The sampler child's loop."""
    # 64 Ki entries, a few MiB: larger than a core's L2 cache, so the
    # loop also feels contention for the shared cache and memory, as the
    # simulator does.
    table = {i: i * 7 for i in range(1 << 16)}
    values = list(range(1 << 16))
    samples: list[Sample] = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        c0 = time.thread_time_ns()
        _loop(LOOP_ITERATIONS, table, values)
        cpu_ms = (time.thread_time_ns() - c0) / 1e6
        samples.append((time.perf_counter(), cpu_ms))
    return samples


def _sampler_cpu() -> int | None:
    """The CPU the sampler keeps to: the highest this process may use,
    or None when it may use only one."""
    cpus = os.sched_getaffinity(0)
    return max(cpus) if len(cpus) > 1 else None


def keep_off_sampler(pid: int) -> None:
    """Keep a workload process that uses one CPU at a time (a
    single-threaded one, or threads sharing one interpreter lock) off
    the sampler's CPU.
    Sharing a CPU, the sampler's loop would both preempt it and evict
    its cache: sim-mix jobs took 25% more processor time in passes where
    the two had shared one than in passes where they had not."""
    cpu = _sampler_cpu()
    if cpu is not None:
        os.sched_setaffinity(pid, os.sched_getaffinity(0) - {cpu})


class Sampler:
    """The sampler child, kept to one CPU: started by the constructor,
    reaped by :meth:`stop`, which returns its samples."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        cpu = _sampler_cpu()
        if cpu is not None:
            os.sched_setaffinity(self.process.pid, {cpu})

    def stop(self) -> list[Sample]:
        code, out = env.reap(self.process, 30, "stop\n", rss=False)
        if code != 0 or not out.strip():
            raise RuntimeError(f"host-speed sampler exited {code}")
        return [(t, ms) for t, ms in json.loads(out)]


def window_slowdowns(samples: list[Sample],
                     windows: list[Window]) -> list[tuple[float, int]]:
    """(slowdown, sample count) of each window: the mean loop time of
    the samples inside it ÷ :data:`REFERENCE_MS`.  A window shorter than
    the sampling period may hold none, and then the sample nearest its
    middle stands in."""
    if not samples:
        raise ValueError("no host-speed samples")
    times = [t for t, _ in samples]
    out = []
    for t0, t1 in windows:
        inside = [ms for _, ms in samples[bisect.bisect_left(times, t0):
                                          bisect.bisect_right(times, t1)]]
        if not inside:
            middle = (t0 + t1) / 2
            inside = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
        out.append((statistics.mean(inside) / REFERENCE_MS, len(inside)))
    return out


def slowdown(samples: list[Sample], windows: list[Window]) -> tuple[float,
                                                                   int]:
    """(host slowdown over ``windows``, number of samples it rests on).
    The windows combine as the time they add up to would:
    Σ length ÷ Σ (length ÷ window slowdown)."""
    if not windows:
        raise ValueError("no windows to scale")
    per_window = window_slowdowns(samples, windows)
    total = sum(t1 - t0 for t0, t1 in windows)
    scaled = sum((t1 - t0) / factor
                 for (t0, t1), (factor, _) in zip(windows, per_window))
    count = sum(n for _, n in per_window)
    return (total / scaled if scaled else per_window[0][0]), count


def scaled_median(samples: list[Sample], windows: list[Window],
                  durations: list[float]) -> tuple[float, int]:
    """(median of each duration ÷ its window's slowdown, number of
    samples): the reference-host figure of a metric that is the median
    of ``durations``, each measured in the matching window."""
    per_window = window_slowdowns(samples, windows)
    value = statistics.median(d / factor for d, (factor, _)
                              in zip(durations, per_window))
    return value, sum(n for _, n in per_window)


if __name__ == "__main__":
    print(json.dumps(sample_until_input()), flush=True)
