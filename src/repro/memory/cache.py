"""Set-associative caches with LRU replacement (timing model).

Only tags are modeled — data always comes from the backing store — which
is exactly SimpleScalar's approach: the cache model supplies hit/miss
latencies while functional data lives elsewhere.  Configuration defaults
follow Table 1 of the paper (64K 2-way 32B L1s, 8M 4-way unified L2).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    accesses: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """A single level of set-associative cache with true-LRU replacement.

    ``access`` returns True on hit.  Lines are write-allocate /
    write-back; evictions of dirty lines bump the writeback counter.
    """

    def __init__(self, name: str, size_bytes: int, assoc: int,
                 block_bytes: int) -> None:
        if size_bytes % (assoc * block_bytes):
            raise ValueError("cache size must be a multiple of assoc*block")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_bytes = block_bytes
        self.num_sets = size_bytes // (assoc * block_bytes)
        self.stats = CacheStats()
        # Per set: list of tags in LRU order (index 0 = most recent) and
        # a parallel dirty-bit list, both created when the set is first
        # used.  Table 1's L2 has 65,536 sets; a run touches few of them.
        self._tags: defaultdict[int, list[int]] = defaultdict(list)
        self._dirty: defaultdict[int, list[bool]] = defaultdict(list)

    def _locate(self, addr: int) -> tuple[int, int]:
        block = addr // self.block_bytes
        return block % self.num_sets, block // self.num_sets

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Look up ``addr``; allocate on miss.  Returns True on hit."""
        set_index, tag = self._locate(addr)
        tags = self._tags[set_index]
        dirty = self._dirty[set_index]
        self.stats.accesses += 1
        try:
            way = tags.index(tag)
        except ValueError:
            way = -1
        if way >= 0:
            # Hit: move to MRU position.
            tags.insert(0, tags.pop(way))
            dirty.insert(0, dirty.pop(way) or is_write)
            return True
        # Miss: allocate, possibly evicting the LRU way.
        self.stats.misses += 1
        if len(tags) >= self.assoc:
            tags.pop()
            if dirty.pop():
                self.stats.writebacks += 1
        tags.insert(0, tag)
        dirty.insert(0, is_write)
        return False


@dataclass
class PerfectCache:
    """Always-hit stand-in used when cache modeling is disabled."""

    name: str = "perfect"
    stats: CacheStats = field(default_factory=CacheStats)

    def access(self, addr: int, is_write: bool = False) -> bool:
        self.stats.accesses += 1
        return True
