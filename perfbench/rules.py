"""Reporting and correctness rules shared by every workload.

* **Percentiles.**  A timing is reported as its median plus tail
  percentiles, each with its sample count.  A tail percentile is *kept*
  only when at least :data:`MIN_BEYOND` samples lie beyond it (p90
  needs 100 samples, p99 needs 1000); otherwise it is reported as not
  kept rather than as a number nobody should trust.
* **Digests.**  Every output the benchmark checks is compared, as a
  sha256, against ``expected_digests.json`` (generated from the
  reference backend by ``digests.py``).  A mismatch is a failed
  operation, never a warning.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

#: Samples that must lie beyond a tail percentile for it to be kept.
MIN_BEYOND = 10

DIGESTS_PATH = Path(__file__).resolve().parent / "expected_digests.json"
DIGESTS_SCHEMA = "perfbench-digests/1"


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample set, with the evidence behind it."""

    q: float
    value: float
    count: int      # samples in the set
    beyond: int     # samples strictly above the percentile's rank

    @property
    def kept(self) -> bool:
        return self.q <= 50 or self.beyond >= MIN_BEYOND


def percentile(samples: list[float], q: float) -> Percentile:
    """Nearest-rank percentile ``q`` (0 < q < 100); the median (q=50)
    interpolates like :func:`statistics.median`."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    if q == 50:
        return Percentile(q, statistics.median(ordered), n, n // 2)
    rank = max(1, math.ceil(q / 100.0 * n))
    return Percentile(q, ordered[rank - 1], n, n - rank)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def job_key(workload: str, config: str, scale: int = 1) -> str:
    """Key of one job in the digest book: ``workload:config:xscale``."""
    return f"{workload}:{config}:x{scale}"


class DigestBook:
    """The committed expected digests, checked byte for byte."""

    def __init__(self, document: dict) -> None:
        if document.get("schema") != DIGESTS_SCHEMA:
            raise ValueError(f"digest file schema is "
                             f"{document.get('schema')!r}, expected "
                             f"{DIGESTS_SCHEMA!r}")
        self.jobs: dict[str, str] = dict(document["jobs"])
        self.suite: dict[str, str] = dict(document["suite"])

    @classmethod
    def load(cls, path: Path = DIGESTS_PATH) -> "DigestBook":
        return cls(json.loads(path.read_text(encoding="utf-8")))

    def job_ok(self, key: str, data: bytes | str) -> bool:
        """Whether ``data`` (canonical result bytes, or their sha256
        hex) matches the expected digest of job ``key``."""
        return _matches(self.jobs.get(key), data)

    def suite_ok(self, key: str, data: bytes | str) -> bool:
        return _matches(self.suite.get(key), data)


def _matches(expected: str | None, data: bytes | str) -> bool:
    if expected is None:
        return False
    actual = data if isinstance(data, str) else sha256_hex(data)
    return actual == expected
