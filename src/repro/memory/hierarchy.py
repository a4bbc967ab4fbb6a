"""The full memory hierarchy of Table 1, glued together.

* L1 data cache: 64K, 2-way, 32B blocks, 1-cycle latency
* L1 instruction cache: 64K, 2-way, 32B blocks, 1-cycle latency
* L2 unified: 8M, 4-way, 32B blocks, 12-cycle latency
* Main memory: 100 cycles
* I/D TLBs: 128-entry fully associative, 30-cycle miss

The hierarchy returns total access latencies; functional data comes from
the :class:`~repro.memory.backing.MainMemory` owned by the core.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.cache import Cache, PerfectCache
from repro.memory.tlb import TLB


@dataclass(frozen=True)
class HierarchyConfig:
    """Sizes and latencies, defaulted to the paper's Table 1."""

    l1i_size: int = 64 * 1024
    l1i_assoc: int = 2
    l1d_size: int = 64 * 1024
    l1d_assoc: int = 2
    l2_size: int = 8 * 1024 * 1024
    l2_assoc: int = 4
    block_bytes: int = 32
    l1_latency: int = 1
    l2_latency: int = 12
    memory_latency: int = 100
    tlb_entries: int = 128
    tlb_miss_latency: int = 30
    perfect: bool = False   # all-hit hierarchy (fast functional runs)


class MemoryHierarchy:
    """Two-level cache hierarchy with TLBs, returning access latencies."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        cfg = self.config
        if cfg.perfect:
            self.l1i = PerfectCache("il1")
            self.l1d = PerfectCache("dl1")
            self.l2 = PerfectCache("ul2")
        else:
            self.l1i = Cache("il1", cfg.l1i_size, cfg.l1i_assoc,
                             cfg.block_bytes)
            self.l1d = Cache("dl1", cfg.l1d_size, cfg.l1d_assoc,
                             cfg.block_bytes)
            self.l2 = Cache("ul2", cfg.l2_size, cfg.l2_assoc,
                            cfg.block_bytes)
        self.itlb = TLB("itlb", cfg.tlb_entries, miss_latency=cfg.tlb_miss_latency)
        self.dtlb = TLB("dtlb", cfg.tlb_entries, miss_latency=cfg.tlb_miss_latency)

    def _through(self, l1: Cache | PerfectCache, addr: int,
                 is_write: bool) -> int:
        cfg = self.config
        if l1.access(addr, is_write):
            return cfg.l1_latency
        if self.l2.access(addr, is_write):
            return cfg.l2_latency
        return cfg.l2_latency + cfg.memory_latency

    def fetch_instruction(self, pc: int) -> int:
        """Latency of fetching the instruction block at ``pc``."""
        latency = self._through(self.l1i, pc, is_write=False)
        if self.config.perfect:
            return latency
        return latency + self.itlb.access(pc)

    def access_data(self, addr: int, is_write: bool = False) -> int:
        """Latency of a data access (load at issue, store at commit)."""
        latency = self._through(self.l1d, addr, is_write)
        if self.config.perfect:
            return latency
        return latency + self.dtlb.access(addr)
