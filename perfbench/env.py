"""Where the benchmark runs: checkout paths, child interpreters, rusage.

The benchmark lives in ``perfbench/`` at the root of a source checkout
and never installs anything: every child interpreter it starts gets
``PYTHONPATH=<root>/src`` so ``import repro`` resolves to the checkout's
own sources.  All scratch output goes under ``perfbench/out/`` (ignored
by git).
"""

from __future__ import annotations

import compileall
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Largest ``ru_maxrss`` (KiB) of the children reaped since
#: :func:`reset_peak_rss`.
_peak_rss_kib = 0


class MissingSource(RuntimeError):
    """The checkout has no ``src/repro`` package to benchmark."""


def require_source() -> None:
    """Fail fast when run outside a full checkout (for example a
    directory holding only the benchmark's own files)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSource(f"no repro sources under {SRC}; run the "
                            f"benchmark from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def compile_sources() -> None:
    """Write the bytecode of the checkout's sources and of the
    benchmark's modules, as an installed package has it.  Child
    interpreters write none themselves, so without this each one would
    recompile whatever no earlier process had compiled, and set-up
    times would depend on what ran before them."""
    for directory in (SRC, BENCH_DIR):
        compileall.compile_dir(str(directory), quiet=1)


def child_env() -> dict[str, str]:
    """Environment for every child interpreter: the checkout's sources
    first on the path, unbuffered output, no bytecode-cache writes into
    the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def scratch_dir(name: str) -> Path:
    """A fresh, empty directory under ``perfbench/out/scratch``."""
    path = OUT / "scratch" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_scratch() -> None:
    """Delete this process's scratch directories."""
    for path in (OUT / "scratch").glob(f"*-{os.getpid()}"):
        shutil.rmtree(path, ignore_errors=True)


def reset_peak_rss() -> None:
    """Start a new workload's peak-RSS record."""
    global _peak_rss_kib
    _peak_rss_kib = 0


def peak_rss_mb() -> float:
    """Largest resident set, in MiB, of any child reaped by
    :func:`reap` since :func:`reset_peak_rss`.  Each child counts with
    the descendants it waited for itself (a runner's pool workers).
    Linux also counts a child's moments before ``exec``, when it was a
    copy of this process, so the figure never reads below this
    process's own RSS; the benchmark process stays smaller than the
    children it measures."""
    return _peak_rss_kib / 1024.0


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap(process: subprocess.Popen, timeout: float,
         request: str | None = None, rss: bool = True) -> tuple[int, str]:
    """Finish a child: send it ``request`` and close its input, read its
    piped output to the end, and wait for it to exit, killing it if all
    that takes more than ``timeout`` seconds.  Returns (exit code,
    output).  ``rss=False`` leaves the child out of :func:`peak_rss_mb`
    (the benchmark's own helpers).

    The wait is ``os.wait4``.  It blocks (``Popen.wait(timeout=...)``
    polls with sleeps of up to 50 ms, which would round every timing up
    to that step), and it returns the child's resource usage, whose
    peak RSS :func:`peak_rss_mb` reports.
    """
    global _peak_rss_kib
    if process.returncode is not None:
        return process.returncode, ""
    watchdog = threading.Timer(timeout, _kill, (process.pid,))
    watchdog.start()
    try:
        if request is not None:
            process.stdin.write(request)
            process.stdin.close()
        out = process.stdout.read() if process.stdout is not None else ""
        _pid, status, usage = os.wait4(process.pid, 0)
    finally:
        watchdog.cancel()
    for stream in (process.stdin, process.stdout, process.stderr):
        if stream is not None:
            try:
                stream.close()
            except OSError:     # unflushed input of a child that died
                pass
    process.returncode = os.waitstatus_to_exitcode(status)
    if rss:
        _peak_rss_kib = max(_peak_rss_kib, usage.ru_maxrss)
    return process.returncode, out


def stop(process: subprocess.Popen, grace: float = 30.0) -> int:
    """Ask a child to exit (SIGTERM) and reap it; it is killed if it
    ignores the request for ``grace`` seconds.  Returns the exit code."""
    if process.returncode is None:
        os.kill(process.pid, signal.SIGTERM)    # a zombie ignores it
    return reap(process, grace)[0]


def run_timed(command: list[str], timeout: float,
              **popen) -> tuple[int, tuple[float, float], str]:
    """Run a child to completion; returns (exit code, (start, end)
    ``perf_counter`` times, piped output)."""
    t0 = time.perf_counter()
    process = subprocess.Popen(command, env=child_env(), cwd=str(ROOT),
                               **popen)
    code, out = reap(process, timeout)
    return code, (t0, time.perf_counter()), out
