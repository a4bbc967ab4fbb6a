#!/usr/bin/env python3
"""Simulator-invariant lint: forbid nondeterminism in core modules.

The simulator's results must be a pure function of (program, config,
seed): the run engine's persistent cache, the differential oracle, and
every cross-session comparison in the experiment suite depend on it.
This tool walks the AST of the timing-critical packages and rejects
constructs that would silently break replayability:

* **ND001** — module-level ``random`` functions (``random.random()``,
  ``from random import randint``, ...).  Seeded ``random.Random(seed)``
  instances are fine: they are explicit about their stream.
* **ND002** — wall-clock reads: ``time.time()``, ``time.monotonic()``,
  ``time.perf_counter()``, ``datetime.now()`` and friends.  Timing a
  simulation is the harness's job, never the model's.
* **ND003** — iterating a set display or ``set(...)`` call (``for x in
  {...}``) without ``sorted(...)``: set iteration order depends on the
  hash seed.  Membership tests are fine.
* **ND004** — iterating ``os.listdir``/``glob.glob``/``Path.iterdir``
  results without ``sorted(...)``: filesystem order is arbitrary.

A finding can be suppressed on its line with ``# lint: allow(ND001)``
when the use is genuinely deterministic.

Usage::

    python tools/lint_invariants.py                 # default paths
    python tools/lint_invariants.py src/repro tools # explicit paths

Exit status is 1 when any finding is reported.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

#: Packages whose determinism the simulation results depend on.
DEFAULT_PATHS = ("src/repro/core", "src/repro/exec",
                 "src/repro/fastsim", "src/repro/service",
                 "src/repro/memory", "src/repro/workloads",
                 "src/repro/asm", "src/repro/isa", "src/repro/branch",
                 "src/repro/bitwidth", "src/repro/packing",
                 "src/repro/power", "src/repro/stats")

_RANDOM_MODULE_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "seed", "getrandbits", "randbytes",
})
_WALL_CLOCK_TIME = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time",
    "process_time_ns",
})
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})
_FS_LISTING = frozenset({"listdir", "glob", "iglob", "iterdir",
                         "scandir", "rglob"})

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(([A-Z0-9, ]+)\)")


class Finding:
    __slots__ = ("path", "line", "code", "message")

    def __init__(self, path: Path, line: int, code: str,
                 message: str) -> None:
        self.path = path
        self.line = line
        self.code = code
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code}: {self.message}"


def _call_name(node: ast.expr) -> tuple[str | None, str | None]:
    """(module-ish name, attribute) of a call target, best effort."""
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name):
            return node.value.id, node.attr
        if isinstance(node.value, ast.Attribute):
            return node.value.attr, node.attr
        return None, node.attr
    if isinstance(node, ast.Name):
        return None, node.id
    return None, None


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: Path, allowed: dict[int, set[str]]) -> None:
        self.path = path
        self.allowed = allowed
        self.findings: list[Finding] = []

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if code in self.allowed.get(line, set()):
            return
        self.findings.append(Finding(self.path, line, code, message))

    # -- ND001: module-level random --------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            names = [a.name for a in node.names if a.name != "Random"]
            if names:
                self._report(node, "ND001",
                             f"import of unseeded random function(s) "
                             f"{', '.join(names)}; use a seeded "
                             f"random.Random(seed) instance")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        base, attr = _call_name(node.func)
        if base == "random" and attr in _RANDOM_MODULE_FUNCS:
            self._report(node, "ND001",
                         f"random.{attr}() uses the shared unseeded "
                         f"stream; use a seeded random.Random(seed)")
        elif base == "time" and attr in _WALL_CLOCK_TIME:
            self._report(node, "ND002",
                         f"time.{attr}() reads the wall clock; results "
                         f"must not depend on it")
        elif (attr in _WALL_CLOCK_DATETIME
              and base in ("datetime", "date")):
            self._report(node, "ND002",
                         f"{base}.{attr}() reads the wall clock; "
                         f"results must not depend on it")
        self.generic_visit(node)

    # -- ND003/ND004: order-dependent iteration --------------------------

    def _check_iter(self, iter_node: ast.expr) -> None:
        if isinstance(iter_node, ast.Set) or isinstance(
                iter_node, ast.SetComp):
            self._report(iter_node, "ND003",
                         "iteration over a set: order depends on the "
                         "hash seed; wrap in sorted(...)")
            return
        if isinstance(iter_node, ast.Call):
            base, attr = _call_name(iter_node.func)
            if attr == "set" and base is None:
                self._report(iter_node, "ND003",
                             "iteration over set(...): order depends on "
                             "the hash seed; wrap in sorted(...)")
            elif attr in _FS_LISTING:
                self._report(iter_node, "ND004",
                             f"iteration over {attr}(): filesystem "
                             f"order is arbitrary; wrap in sorted(...)")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def _allowed_lines(source: str) -> dict[int, set[str]]:
    allowed: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            codes = {c.strip() for c in match.group(1).split(",")}
            allowed[lineno] = codes
    return allowed


def lint_file(path: Path) -> list[Finding]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, "ND000",
                        f"syntax error: {exc.msg}")]
    visitor = _Visitor(path, _allowed_lines(source))
    visitor.visit(tree)
    return visitor.findings


def lint_paths(paths: list[Path]) -> list[Finding]:
    findings: list[Finding] = []
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                findings.extend(lint_file(file))
        elif path.suffix == ".py":
            findings.extend(lint_file(path))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Forbid nondeterministic constructs in simulator "
                    "core modules.")
    parser.add_argument("paths", nargs="*", type=Path,
                        default=[Path(p) for p in DEFAULT_PATHS],
                        help=f"files or directories to lint "
                             f"(default: {' '.join(DEFAULT_PATHS)})")
    args = parser.parse_args(argv)

    missing = [p for p in args.paths if not p.exists()]
    if missing:
        parser.error(f"path(s) not found: "
                     f"{', '.join(str(p) for p in missing)}")

    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} nondeterminism finding(s)")
        return 1
    files = sum(1 for p in args.paths if p.is_file()) + sum(
        len(list(p.rglob("*.py"))) for p in args.paths if p.is_dir())
    print(f"clean: {files} file(s), 0 findings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
