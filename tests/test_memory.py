"""Unit and property tests for the backing store and speculation overlay."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.asm.layout import DATA_BASE, PAGE_BYTES
from repro.isa.instruction import Program
from repro.memory.backing import MainMemory, SpeculativeMemory

#: Image segments near page edges, below and above the 4 GB line, up to
#: a little over a page long (so some cross one or two page edges), and
#: drawn from a few pages so that some overlap.
segments = st.lists(st.tuples(
    st.builds(lambda base, page, delta: base + page * PAGE_BYTES + delta,
              st.sampled_from([0, DATA_BASE]), st.integers(1, 3),
              st.integers(-96, 96)),
    st.binary(max_size=PAGE_BYTES + 64)), max_size=6)


class TestMainMemory:
    def test_unwritten_reads_zero(self):
        mem = MainMemory()
        assert mem.load(0x1234, 8) == 0
        assert mem.load(0x1_0000_0000, 4) == 0

    def test_byte_roundtrip(self):
        mem = MainMemory()
        mem.store_byte(100, 0xAB)
        assert mem.load_byte(100) == 0xAB

    def test_little_endian(self):
        mem = MainMemory()
        mem.store(0, 0x0102030405060708, 8)
        assert mem.load_byte(0) == 0x08
        assert mem.load_byte(7) == 0x01

    def test_sizes(self):
        mem = MainMemory()
        mem.store(16, 0xDEADBEEFCAFEBABE, 8)
        assert mem.load(16, 1) == 0xBE
        assert mem.load(16, 2) == 0xBABE
        assert mem.load(16, 4) == 0xCAFEBABE
        assert mem.load(16, 8) == 0xDEADBEEFCAFEBABE

    def test_store_truncates_to_size(self):
        mem = MainMemory()
        mem.store(0, 0x1FF, 1)
        assert mem.load(0, 1) == 0xFF
        assert mem.load(1, 1) == 0     # neighbour untouched

    def test_page_spanning_access(self):
        mem = MainMemory()
        addr = PAGE_BYTES - 4
        mem.store(addr, 0x1122334455667788, 8)
        assert mem.load(addr, 8) == 0x1122334455667788

    def test_image_constructor(self):
        program = Program(instructions=[], image=((10, b"\xaa\xbb"),))
        mem = MainMemory(program.image)
        assert mem.load(10, 2) == 0xBBAA

    @given(segments)
    @example([(PAGE_BYTES - 2, b"abcd"), (PAGE_BYTES - 1, b"XY")])
    @example([(DATA_BASE - 3, b"\x5a" * (2 * PAGE_BYTES)),
              (DATA_BASE, b""), (DATA_BASE + 5, b"later")])
    @settings(deadline=None)
    def test_segments_match_byte_model(self, image):
        # The image is copied segment by segment, a later one winning
        # wherever two overlap, exactly like per-byte writes in order.
        model = {}
        for addr, data in image:
            for offset, byte in enumerate(data):
                model[addr + offset] = byte
        mem = MainMemory(image)
        for addr, byte in model.items():
            assert mem.load_byte(addr) == byte
        for addr, data in image:
            for edge in (addr - 1, addr + len(data)):
                assert mem.load_byte(edge) == model.get(edge, 0)

    def test_sparse_distant_pages(self):
        mem = MainMemory()
        mem.store(0, 1, 8)
        mem.store(1 << 40, 2, 8)
        assert mem.load(0, 8) == 1
        assert mem.load(1 << 40, 8) == 2

    @given(st.integers(min_value=0, max_value=2**34),
           st.integers(min_value=0, max_value=2**64 - 1),
           st.sampled_from([1, 2, 4, 8]))
    def test_roundtrip(self, addr, value, size):
        mem = MainMemory()
        mem.store(addr, value, size)
        assert mem.load(addr, size) == value & ((1 << (8 * size)) - 1)


class TestSpeculativeMemory:
    def test_reads_fall_through(self):
        base = MainMemory()
        base.store(8, 77, 8)
        spec = SpeculativeMemory(base)
        assert spec.load(8, 8) == 77

    def test_spec_store_shadows(self):
        base = MainMemory()
        base.store(8, 77, 8)
        spec = SpeculativeMemory(base)
        spec.store(8, 99, 8)
        assert spec.load(8, 8) == 99
        assert base.load(8, 8) == 77   # architected state untouched

    def test_discard(self):
        base = MainMemory()
        spec = SpeculativeMemory(base)
        spec.store(0, 123, 8)
        assert not spec.empty()
        spec.discard()
        assert spec.empty()
        assert spec.load(0, 8) == 0

    def test_partial_overlay(self):
        # A wrong-path byte store over an architected quad: the load
        # must merge overlay and base bytes.
        base = MainMemory()
        base.store(0, 0x1111111111111111, 8)
        spec = SpeculativeMemory(base)
        spec.store(2, 0xFF, 1)
        assert spec.load(0, 8) == 0x111111111_1FF1111

    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=2**64 - 1))
    def test_discard_restores_base_view(self, addr, value):
        base = MainMemory()
        base.store(addr, 42, 8)
        spec = SpeculativeMemory(base)
        spec.store(addr, value, 8)
        spec.discard()
        assert spec.load(addr, 8) == 42
