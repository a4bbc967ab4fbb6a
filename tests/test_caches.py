"""Unit tests for caches, TLBs, and the Table 1 memory hierarchy."""

from repro.memory.cache import Cache, PerfectCache
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memory.tlb import TLB


class TestCache:
    def make(self, size=1024, assoc=2, block=32):
        return Cache("test", size, assoc, block)

    def test_geometry(self):
        cache = self.make()
        assert cache.num_sets == 1024 // (2 * 32)

    def test_cold_miss_then_hit(self):
        cache = self.make()
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(31)        # same 32B block
        assert not cache.access(32)    # next block

    def test_miss_counting(self):
        cache = self.make()
        cache.access(0)
        cache.access(0)
        cache.access(64)
        assert cache.stats.accesses == 3
        assert cache.stats.misses == 2
        assert cache.stats.hits == 1
        assert cache.stats.miss_rate == 2 / 3

    def test_lru_within_set(self):
        cache = self.make(size=128, assoc=2, block=32)  # 2 sets
        set_stride = 2 * 32                             # same set
        a, b, c = 0, set_stride, 2 * set_stride
        assert not cache.access(a)
        assert not cache.access(b)
        assert cache.access(a)         # a is MRU
        assert not cache.access(c)     # evicts b (LRU)
        assert cache.access(a)         # a survived; c is now LRU
        assert not cache.access(b)     # b was evicted; evicts c
        assert cache.access(a)
        assert not cache.access(c)     # c was evicted by b

    def test_writeback_counted_on_dirty_eviction(self):
        cache = self.make(size=64, assoc=1, block=32)   # 2 sets, direct
        cache.access(0, is_write=True)                  # dirty line
        cache.access(64)                                # evicts it
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = self.make(size=64, assoc=1, block=32)
        cache.access(0)
        cache.access(64)
        assert cache.stats.writebacks == 0

    def test_capacity_thrash(self):
        # Cyclic access to more lines than fit misses every time (LRU).
        cache = self.make(size=128, assoc=2, block=32)  # 4 lines total
        lines = [i * 32 for i in range(8)]
        for _ in range(3):
            for addr in lines:
                cache.access(addr)
        assert cache.stats.misses == cache.stats.accesses

    def test_perfect_cache_always_hits(self):
        cache = PerfectCache()
        assert cache.access(12345)
        assert cache.stats.misses == 0


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB("t", entries=4)
        assert tlb.access(0) == 30
        assert tlb.access(100) == 0     # same page

    def test_capacity_lru(self):
        tlb = TLB("t", entries=2, page_bytes=4096)
        tlb.access(0 * 4096)
        tlb.access(1 * 4096)
        tlb.access(0 * 4096)            # refresh page 0
        tlb.access(2 * 4096)            # evicts page 1
        assert tlb.access(0 * 4096) == 0
        assert tlb.access(1 * 4096) == 30

    def test_miss_latency_configurable(self):
        tlb = TLB("t", entries=2, miss_latency=99)
        assert tlb.access(0) == 99


class TestHierarchy:
    def test_table1_latencies(self):
        h = MemoryHierarchy(HierarchyConfig())
        addr = 0x1_0000_0000
        # Cold: L1 miss, L2 miss -> memory; TLB miss adds 30.
        assert h.access_data(addr) == 12 + 100 + 30
        # Warm: L1 hit, TLB hit.
        assert h.access_data(addr) == 1

    def test_l2_hit_latency(self):
        h = MemoryHierarchy(HierarchyConfig(l1d_size=64, l1d_assoc=1))
        a, b = 0, 4096 * 64   # same tiny-L1 set, different pages
        h.access_data(a)
        h.access_data(b)      # evicts a from the tiny L1; L2 keeps it
        latency = h.access_data(a)
        assert latency == 12  # L1 miss, L2 hit, TLB hit

    def test_instruction_path(self):
        h = MemoryHierarchy(HierarchyConfig())
        cold = h.fetch_instruction(0x1_0000)
        warm = h.fetch_instruction(0x1_0000)
        assert cold == 12 + 100 + 30
        assert warm == 1

    def test_perfect_hierarchy(self):
        h = MemoryHierarchy(HierarchyConfig(perfect=True))
        assert h.access_data(0xABCDEF) == 1
        assert h.fetch_instruction(0x1234) == 1

    def test_unified_l2_shared_by_code_and_data(self):
        h = MemoryHierarchy(HierarchyConfig())
        h.fetch_instruction(0x8000)          # brings block into L2
        # Data access to the same block: L1D misses but L2 hits.
        assert h.access_data(0x8000) == 12 + 30
