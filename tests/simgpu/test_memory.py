"""Tests for device memory accounting."""

import pytest

from repro.simgpu.memory import DeviceArray, DeviceMemory, DeviceMemoryError


class TestDeviceMemory:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DeviceMemory(0)

    def test_allocation_accounting(self):
        mem = DeviceMemory(10_000)
        a = mem.allocate("a", (10, 10, 10))
        assert a.nbytes == 8000
        assert mem.used_bytes == 8000
        assert mem.free_bytes == 2000

    def test_oom(self):
        mem = DeviceMemory(1000)
        with pytest.raises(DeviceMemoryError, match="exceeds device"):
            mem.allocate("big", (10, 10, 10))

    def test_free_returns_capacity(self):
        mem = DeviceMemory(10_000)
        a = mem.allocate("a", (10, 10, 10))
        mem.free(a)
        assert mem.used_bytes == 0
        mem.allocate("b", (10, 10, 10))  # fits again

    def test_double_free(self):
        mem = DeviceMemory(10_000)
        a = mem.allocate("a", (5, 5, 5))
        mem.free(a)
        with pytest.raises(DeviceMemoryError, match="double free"):
            mem.free(a)

    def test_live_arrays(self):
        mem = DeviceMemory(100_000)
        a = mem.allocate("a", (5, 5, 5))
        b = mem.allocate("b", (5, 5, 5))
        mem.free(a)
        assert mem.live_arrays() == (b,)

    def test_paper_sizing_fits_both_devices(self):
        """The paper's two 420^3 state arrays fit both GPUs' memories."""
        for gb in (3, 4):  # C2050, C1060
            mem = DeviceMemory(int(gb * 1e9))
            mem.allocate("u", (422, 422, 422))
            mem.allocate("unew", (422, 422, 422))

    def test_larger_domain_does_not_fit_c2050(self):
        """Doubling each dimension (8x memory) blows the 3 GB budget."""
        mem = DeviceMemory(int(3e9))
        mem.allocate("u", (674, 674, 674))  # ~2.45 GB
        with pytest.raises(DeviceMemoryError):
            mem.allocate("unew", (674, 674, 674))


class TestDeviceArray:
    def test_shadow_has_no_payload(self):
        mem = DeviceMemory(10_000)
        a = mem.allocate("a", (4, 4, 4), functional=False)
        assert not a.functional and a.data is None

    def test_functional_payload(self):
        mem = DeviceMemory(10_000)
        a = mem.allocate("a", (4, 4, 4), functional=True)
        assert a.functional
        assert a.data.shape == (4, 4, 4)
        assert a.data.sum() == 0.0
