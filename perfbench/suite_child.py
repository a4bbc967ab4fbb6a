"""``repro-experiments`` with the layer wrappers installed (traced run).

    python perfbench/suite_child.py SPOOL_DIR [repro-experiments args...]

Installs :class:`ledger.Tracer` (pool workers forked by the runner
inherit the wrappers and spool their spans to ``SPOOL_DIR``), runs the
runner's ``main`` with the remaining arguments, restores the originals,
and writes this process's spans to ``SPOOL_DIR`` as well.  The exit
code is the runner's.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path


def main() -> int:
    spool = Path(sys.argv[1])
    spool.mkdir(parents=True, exist_ok=True)
    from ledger import Tracer
    from repro.experiments import runner

    tracer = Tracer(spool_dir=spool)
    with tracer:
        code = runner.main(sys.argv[2:])
    with open(spool / f"spans-{os.getpid()}.jsonl", "a",
              encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
