"""Device memory: allocations tracked against GPU capacity.

The paper chooses the 420^3 problem "to just fit within the memory of a
single GPU" — capacity is a real constraint the simulator must enforce, so
experiments that would not fit on a C2050 (3 GB) fail loudly here too.

A :class:`DeviceArray` may carry a real NumPy payload (functional mode) or
just a shape (shadow mode); host code must go through explicit H2D/D2H
copies on a :class:`~repro.simgpu.device.Gpu` to move data, mirroring the
CUDA programming model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["DeviceMemoryError", "DeviceArray", "DeviceMemory"]

_ITEMSIZE = 8  # double precision throughout, as in the paper


class DeviceMemoryError(RuntimeError):
    """Raised on out-of-memory or invalid device-memory operations."""


@dataclass
class DeviceArray:
    """An allocation in GPU global memory.

    ``data`` is the functional payload (present only in functional mode);
    ``shape`` and ``nbytes`` are always valid. Device arrays are created via
    :meth:`DeviceMemory.allocate` so capacity is always accounted.
    """

    name: str
    shape: Tuple[int, ...]
    nbytes: int
    data: Optional[np.ndarray] = None
    freed: bool = False
    #: Registered with the NIC for GPUDirect RDMA: the interconnect may
    #: DMA this allocation directly, skipping the host staging hop.  Set
    #: by the GPU+MPI implementations when the machine's interconnect is
    #: ``gpudirect``; purely descriptive for accounting/tests (the time
    #: model lives in the implementations' staging skips).
    registered: bool = False

    @property
    def functional(self) -> bool:
        """True when this array carries real values."""
        return self.data is not None



class DeviceMemory:
    """Allocator for one GPU's global memory."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.used_bytes = 0
        self._live: list[DeviceArray] = []

    @property
    def free_bytes(self) -> int:
        """Unallocated capacity."""
        return self.capacity_bytes - self.used_bytes

    def allocate(
        self,
        name: str,
        shape: Sequence[int],
        functional: bool = False,
        registered: bool = False,
    ) -> DeviceArray:
        """Allocate a device array; raises :class:`DeviceMemoryError` if full.

        ``registered=True`` marks the allocation as NIC-registered for
        GPUDirect RDMA (see :attr:`DeviceArray.registered`).
        """
        shape = tuple(int(s) for s in shape)
        nbytes = math.prod(shape) * _ITEMSIZE
        if nbytes > self.free_bytes:
            raise DeviceMemoryError(
                f"allocating {name!r} ({nbytes / 1e9:.2f} GB) exceeds device "
                f"memory: {self.used_bytes / 1e9:.2f} of "
                f"{self.capacity_bytes / 1e9:.2f} GB in use"
            )
        data = np.zeros(shape) if functional else None
        arr = DeviceArray(
            name=name, shape=shape, nbytes=nbytes, data=data,
            registered=registered,
        )
        self.used_bytes += nbytes
        self._live.append(arr)
        return arr

    @property
    def registered_bytes(self) -> int:
        """Bytes of live allocations registered for GPUDirect RDMA."""
        return sum(a.nbytes for a in self._live if a.registered)

    def free(self, arr: DeviceArray) -> None:
        """Release an allocation."""
        if arr.freed:
            raise DeviceMemoryError(f"double free of device array {arr.name!r}")
        arr.freed = True
        self._live.remove(arr)
        self.used_bytes -= arr.nbytes

    def live_arrays(self) -> Tuple[DeviceArray, ...]:
        """Currently live allocations (for tests and leak checks)."""
        return tuple(self._live)
