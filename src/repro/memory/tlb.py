"""Translation lookaside buffers.

Table 1: "TLBs — 128 entry, fully associative, 30-cycle miss latency".
Address translation itself is the identity (the workloads run on
simulated physical addresses); only the timing effect of TLB misses is
modeled, as in SimpleScalar.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.layout import PAGE_BYTES


@dataclass
class TLBStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class TLB:
    """Fully associative TLB with LRU replacement."""

    def __init__(self, name: str, entries: int = 128,
                 page_bytes: int = PAGE_BYTES,
                 miss_latency: int = 30) -> None:
        self.name = name
        self.entries = entries
        self.page_bytes = page_bytes
        self.miss_latency = miss_latency
        self.stats = TLBStats()
        self._pages: list[int] = []   # LRU order, index 0 = most recent

    def access(self, addr: int) -> int:
        """Translate ``addr``; returns the added latency (0 on hit)."""
        page = addr // self.page_bytes
        self.stats.accesses += 1
        try:
            index = self._pages.index(page)
        except ValueError:
            index = -1
        if index >= 0:
            self._pages.insert(0, self._pages.pop(index))
            return 0
        self.stats.misses += 1
        if len(self._pages) >= self.entries:
            self._pages.pop()
        self._pages.insert(0, page)
        return self.miss_latency
