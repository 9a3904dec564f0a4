"""Paged address-space model with translation-fault injection.

The accelerator accesses user memory through the nest MMU; any page can
be paged out, in which case the engine suspends the job and reports a
translation CC with the faulting address in the CSB.  The driver then
touches the page (forcing the OS to make it resident) and resubmits —
the documented NX protocol.  This module provides the memory, the
translation step, and deterministic fault injection for experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import TranslationFault

PAGE_SIZE = 65536  # 64 KB pages, the common POWER configuration


def _fault(va: int, is_write: bool) -> TranslationFault:
    kind = "write" if is_write else "read"
    return TranslationFault(f"translation fault on {kind} at 0x{va:x}",
                            address=va, is_write=is_write)


@dataclass
class PageState:
    """Residency and content of one virtual page."""

    data: bytearray
    present: bool = True
    writable: bool = True


@dataclass
class FaultInjector:
    """Deterministically marks pages non-present at translation time."""

    fault_probability: float = 0.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def should_fault(self) -> bool:
        return (self.fault_probability > 0
                and self._rng.random() < self.fault_probability)


class AddressSpace:
    """A sparse 64-bit virtual address space backed by page dict."""

    def __init__(self, fault_injector: FaultInjector | None = None) -> None:
        self.page_size = PAGE_SIZE
        self.pages: dict[int, PageState] = {}
        self.fault_injector = fault_injector or FaultInjector()
        self.translations = 0
        self.faults = 0
        self._next_va = PAGE_SIZE  # keep 0 unmapped (null page)

    # -- allocation and plain access --------------------------------------

    def alloc(self, size: int) -> int:
        """Reserve a contiguous region; returns its base address."""
        base = self._next_va
        npages = max(1, -(-size // self.page_size))
        for i in range(npages):
            self.pages[(base // self.page_size) + i] = PageState(
                data=bytearray(self.page_size))
        self._next_va += npages * self.page_size
        return base

    def free(self, va: int, size: int) -> None:
        """Unmap the region ``alloc(size)`` returned at ``va``.

        Addresses are handed out once (``_next_va`` only grows), so a
        stale pointer into a freed region faults instead of aliasing a
        later allocation; freeing an unmapped page is itself a fault.
        """
        first = va // self.page_size
        for page in range(first, first + max(1, -(-size // self.page_size))):
            self._page(page)
            del self.pages[page]

    def write(self, va: int, data: bytes) -> None:
        """CPU-side store: never faults (the OS pages in synchronously)."""
        pos = 0
        while pos < len(data):
            page, offset = divmod(va + pos, self.page_size)
            state = self._page(page)
            state.present = True
            chunk = min(len(data) - pos, self.page_size - offset)
            state.data[offset:offset + chunk] = data[pos:pos + chunk]
            pos += chunk

    def read(self, va: int, length: int) -> bytes:
        """CPU-side load: never faults."""
        out = bytearray()
        pos = 0
        while pos < length:
            page, offset = divmod(va + pos, self.page_size)
            state = self._page(page)
            state.present = True
            chunk = min(length - pos, self.page_size - offset)
            out.extend(state.data[offset:offset + chunk])
            pos += chunk
        return bytes(out)

    def _page(self, page: int) -> PageState:
        if page not in self.pages:
            raise _fault(page * self.page_size, is_write=False)
        return self.pages[page]

    # -- residency control -------------------------------------------------

    def page_out(self, va: int) -> None:
        """Evict the page containing ``va`` (contents retained)."""
        self._page(va // self.page_size).present = False

    def touch(self, va: int) -> None:
        """Make the page containing ``va`` resident (driver fault fixup)."""
        self._page(va // self.page_size).present = True

    # -- accelerator-side translation ---------------------------------------

    def translate(self, va: int, is_write: bool) -> None:
        """Model the nest MMU translating one access.

        Raises :class:`TranslationFault` if the page is non-present, was
        never mapped, is read-only for a write, or if the fault injector
        fires (modelling an OS that paged it out concurrently).
        """
        self.translations += 1
        page = va // self.page_size
        state = self.pages.get(page)
        if state is None or not state.present:
            self.faults += 1
            raise _fault(va, is_write)
        if is_write and not state.writable:
            self.faults += 1
            raise _fault(va, is_write)
        if self.fault_injector.should_fault():
            state.present = False
            self.faults += 1
            raise _fault(va, is_write)

    def translate_range(self, va: int, length: int, is_write: bool) -> None:
        """Translate every page of a [va, va+length) access."""
        if length <= 0:
            return
        first = va // self.page_size
        last = (va + length - 1) // self.page_size
        for page in range(first, last + 1):
            self.translate(page * self.page_size, is_write)

    def dma_read(self, va: int, length: int) -> bytes:
        """Accelerator DMA read: translate then fetch."""
        self.translate_range(va, length, is_write=False)
        return self.read(va, length)

    def dma_write(self, va: int, data: bytes) -> None:
        """Accelerator DMA write: translate then store."""
        self.translate_range(va, len(data), is_write=True)
        self.write(va, data)
