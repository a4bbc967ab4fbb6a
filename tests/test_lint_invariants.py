"""The nondeterminism linter itself: clean on the gated packages,
loud on each forbidden construct."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "lint_invariants.py"

spec = importlib.util.spec_from_file_location("lint_invariants", TOOL)
lint_invariants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint_invariants)


def _findings(tmp_path, source):
    path = tmp_path / "snippet.py"
    path.write_text(source)
    return lint_invariants.lint_file(path)


def _codes(findings):
    return {f.code for f in findings}


def test_core_and_exec_are_clean():
    # The same tree CI's lint job checks: every default path.
    findings = lint_invariants.lint_paths(
        [REPO / path for path in lint_invariants.DEFAULT_PATHS])
    assert findings == [], [str(f) for f in findings]


def test_unseeded_random_flagged(tmp_path):
    findings = _findings(tmp_path, "import random\nx = random.random()\n")
    assert _codes(findings) == {"ND001"}


def test_random_import_from_flagged(tmp_path):
    findings = _findings(tmp_path, "from random import randint\n")
    assert _codes(findings) == {"ND001"}


def test_seeded_random_instance_allowed(tmp_path):
    findings = _findings(
        tmp_path,
        "import random\nrng = random.Random(1234)\nx = rng.random()\n")
    assert findings == []


def test_wall_clock_flagged(tmp_path):
    source = ("import time\n"
              "a = time.time()\n"
              "b = time.perf_counter()\n"
              "c = time.monotonic()\n")
    findings = _findings(tmp_path, source)
    assert _codes(findings) == {"ND002"}
    assert len(findings) == 3


def test_set_iteration_flagged(tmp_path):
    source = ("for x in {3, 1, 2}:\n"
              "    print(x)\n"
              "ys = [y for y in set([2, 1])]\n")
    findings = _findings(tmp_path, source)
    assert _codes(findings) == {"ND003"}
    assert len(findings) == 2


def test_sorted_set_iteration_allowed(tmp_path):
    source = ("for x in sorted({3, 1, 2}):\n"
              "    print(x)\n"
              "ok = 3 in {3, 1, 2}\n")
    findings = _findings(tmp_path, source)
    assert findings == []


def test_fs_listing_iteration_flagged(tmp_path):
    source = ("import os\n"
              "for name in os.listdir('.'):\n"
              "    print(name)\n")
    findings = _findings(tmp_path, source)
    assert _codes(findings) == {"ND004"}


def test_suppression_comment(tmp_path):
    source = ("import time\n"
              "t = time.time()  # lint: allow(ND002)\n")
    findings = _findings(tmp_path, source)
    assert findings == []


def test_cli_exit_status(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(bad)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "ND001" in proc.stdout

    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(good)],
        capture_output=True, text=True)
    assert proc.returncode == 0
