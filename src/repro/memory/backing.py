"""Flat backing store for the simulated address space.

The store is sparse (page-granular bytearrays) so workloads can place
data above the 4 GB line — as a real Alpha process image does — without
allocating gigabytes.  All accesses are little-endian, matching Alpha.

:class:`SpeculativeMemory` layers wrong-path store data over a backing
store; the core uses it so that speculatively executed code (paper
Section 2.3 / Figure 2: "uncommon paths ... may be executed (but not
committed)") sees its own stores without corrupting architected memory.
"""

from __future__ import annotations

from typing import Iterable

from repro.asm.layout import PAGE_BYTES

_PAGE_MASK = PAGE_BYTES - 1


class MainMemory:
    """Byte-addressable sparse memory.

    Unwritten locations read as zero, which also makes wrong-path loads
    from wild addresses harmless.
    """

    __slots__ = ("_pages",)

    def __init__(self, image: Iterable[tuple[int, bytes]] = ()) -> None:
        """``image`` is a program's ``(addr, bytes)`` segments, copied in
        order page by page, so a later segment overwrites any bytes it
        shares with an earlier one."""
        self._pages: dict[int, bytearray] = {}
        for addr, data in image:
            pos = 0
            while pos < len(data):
                page = self._page(addr + pos)
                offset = (addr + pos) & _PAGE_MASK
                take = min(PAGE_BYTES - offset, len(data) - pos)
                page[offset:offset + take] = data[pos:pos + take]
                pos += take

    def _page(self, addr: int) -> bytearray:
        page_id = addr // PAGE_BYTES
        page = self._pages.get(page_id)
        if page is None:
            page = bytearray(PAGE_BYTES)
            self._pages[page_id] = page
        return page

    def load_byte(self, addr: int) -> int:
        page = self._pages.get(addr // PAGE_BYTES)
        if page is None:
            return 0
        return page[addr & _PAGE_MASK]

    def store_byte(self, addr: int, value: int) -> None:
        self._page(addr)[addr & _PAGE_MASK] = value & 0xFF

    def load(self, addr: int, size: int) -> int:
        """Load ``size`` bytes little-endian, returned zero-extended."""
        offset = addr & _PAGE_MASK
        if offset + size <= PAGE_BYTES:
            page = self._pages.get(addr // PAGE_BYTES)
            if page is None:
                return 0
            return int.from_bytes(page[offset:offset + size], "little")
        value = 0
        for i in range(size):
            value |= self.load_byte(addr + i) << (8 * i)
        return value

    def store(self, addr: int, value: int, size: int) -> None:
        """Store the low ``size`` bytes of ``value`` little-endian."""
        value &= (1 << (8 * size)) - 1
        offset = addr & _PAGE_MASK
        if offset + size <= PAGE_BYTES:
            self._page(addr)[offset:offset + size] = value.to_bytes(
                size, "little")
            return
        for i in range(size):
            self.store_byte(addr + i, (value >> (8 * i)) & 0xFF)


class SpeculativeMemory:
    """Copy-on-write overlay over a :class:`MainMemory`.

    Speculative stores land in the overlay; loads check it byte-by-byte
    before falling through.  :meth:`discard` throws away all wrong-path
    state, and :meth:`empty` reports whether any speculation happened.
    """

    __slots__ = ("_base", "_overlay")

    def __init__(self, base: MainMemory) -> None:
        self._base = base
        self._overlay: dict[int, int] = {}

    def load(self, addr: int, size: int) -> int:
        if not self._overlay:
            return self._base.load(addr, size)
        value = 0
        for i in range(size):
            byte = self._overlay.get(addr + i)
            if byte is None:
                byte = self._base.load_byte(addr + i)
            value |= byte << (8 * i)
        return value

    def store(self, addr: int, value: int, size: int) -> None:
        for i in range(size):
            self._overlay[addr + i] = (value >> (8 * i)) & 0xFF

    def discard(self) -> None:
        """Drop all speculative stores (misprediction recovery)."""
        self._overlay.clear()

    def empty(self) -> bool:
        return not self._overlay
