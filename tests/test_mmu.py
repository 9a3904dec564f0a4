"""Address space: allocation, residency, translation, fault injection."""

import pytest

from repro.errors import TranslationFault
from repro.sysstack.mmu import PAGE_SIZE, AddressSpace, FaultInjector


class TestAllocation:
    def test_alloc_returns_distinct_regions(self):
        space = AddressSpace()
        a = space.alloc(100)
        b = space.alloc(100)
        assert a != b
        assert abs(a - b) >= PAGE_SIZE

    def test_null_page_unmapped(self):
        space = AddressSpace()
        with pytest.raises(TranslationFault):
            space.read(0, 1)

    def test_write_read_roundtrip(self):
        space = AddressSpace()
        va = space.alloc(1000)
        space.write(va, b"hello world")
        assert space.read(va, 11) == b"hello world"

    def test_cross_page_write_read(self):
        space = AddressSpace()
        va = space.alloc(3 * PAGE_SIZE)
        data = bytes(range(256)) * 40  # 10240 bytes across 2 pages
        space.write(va + PAGE_SIZE - 100, data)
        assert space.read(va + PAGE_SIZE - 100, len(data)) == data

    def test_unmapped_access_faults(self):
        space = AddressSpace()
        va = space.alloc(100)
        with pytest.raises(TranslationFault):
            space.read(va + 100 * PAGE_SIZE, 1)


class TestResidency:
    def test_page_out_then_translate_faults(self):
        space = AddressSpace()
        va = space.alloc(100)
        space.page_out(va)
        with pytest.raises(TranslationFault) as exc:
            space.translate(va, is_write=False)
        assert exc.value.address == va

    def test_touch_restores_residency(self):
        space = AddressSpace()
        va = space.alloc(100)
        space.page_out(va)
        space.touch(va)
        space.translate(va, is_write=False)  # does not raise

    def test_contents_survive_page_out(self):
        space = AddressSpace()
        va = space.alloc(100)
        space.write(va, b"persist")
        space.page_out(va)
        space.touch(va)
        assert space.read(va, 7) == b"persist"


class TestTranslation:
    def test_counts(self):
        space = AddressSpace()
        va = space.alloc(3 * PAGE_SIZE)
        space.translate_range(va, 3 * PAGE_SIZE, is_write=False)
        assert space.translations == 3
        assert space.faults == 0

    def test_readonly_page_write_faults(self):
        space = AddressSpace()
        va = space.alloc(100)
        space.pages[va // PAGE_SIZE].writable = False
        space.translate(va, is_write=False)
        with pytest.raises(TranslationFault):
            space.translate(va, is_write=True)

    def test_zero_length_range_never_faults(self):
        space = AddressSpace()
        space.translate_range(12345678, 0, is_write=True)

    def test_dma_read_matches_cpu_read(self):
        space = AddressSpace()
        va = space.alloc(500)
        space.write(va, b"dma payload")
        assert space.dma_read(va, 11) == b"dma payload"

    def test_dma_write_then_cpu_read(self):
        space = AddressSpace()
        va = space.alloc(500)
        space.dma_write(va, b"engine out")
        assert space.read(va, 10) == b"engine out"

    def test_dma_to_paged_out_faults(self):
        space = AddressSpace()
        va = space.alloc(100)
        space.page_out(va)
        with pytest.raises(TranslationFault):
            space.dma_read(va, 10)


class TestFaultInjection:
    def test_zero_probability_never_fires(self):
        inj = FaultInjector(fault_probability=0.0)
        assert not any(inj.should_fault() for _ in range(1000))

    def test_unit_probability_always_fires(self):
        inj = FaultInjector(fault_probability=1.0)
        assert all(inj.should_fault() for _ in range(100))

    def test_deterministic_given_seed(self):
        a = FaultInjector(fault_probability=0.3, seed=7)
        b = FaultInjector(fault_probability=0.3, seed=7)
        assert ([a.should_fault() for _ in range(100)]
                == [b.should_fault() for _ in range(100)])

    def test_injected_fault_pages_out(self):
        space = AddressSpace(
            fault_injector=FaultInjector(fault_probability=1.0))
        va = space.alloc(100)
        with pytest.raises(TranslationFault):
            space.translate(va, is_write=False)
        assert not space.pages[va // PAGE_SIZE].present
