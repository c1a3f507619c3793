"""Reusable scratch-buffer arena for the separable stencil engine.

The separable execution path in :mod:`repro.stencil.kernels` sweeps each
block as one flat buffer: a copy of the padded block (``sep.a``, skipped
when a whole C-ordered field is read in place), ping-pong sweep outputs
(``sep.b``, then ``sep.a`` again) and one tap buffer (``sep.tap``) for
in-place fused multiply-accumulate emulation (``np.multiply(..., out=tap)``
followed by ``np.add(acc, tap, out=acc)``). Each lease is 1-D and as long
as the sweep output it holds. Allocating those per call would dominate
the runtime of the functional kernels (a 256^3 haloed double field is
~137 MB), so all scratch space is leased from a :class:`ScratchArena`.

Each name owns one flat, grow-only buffer. A lease carves the requested
shape out of its front, so blocks of many shapes share one allocation per
name and the steady-state time step allocates nothing once the largest
block has been seen. Buffers are handed out *uninitialized* (contents are
whatever the previous lease left behind); callers must fully overwrite the
region they read back, and a new lease under a name invalidates the
previous one.

A process-wide default arena (:func:`default_arena`) backs the public kernel
entry points when no explicit arena is passed. The simulator executes rank
programs sequentially inside one discrete-event loop, so sharing the default
arena across simulated ranks is safe — a sweep never spans two events — and
is what keeps the memory footprint bounded by the largest field shape rather
than by the rank count. Code that wants isolation (or deterministic
accounting, like :class:`repro.core.data.RankData` and the GPU
implementations) can carry its own arena instance.
"""

from __future__ import annotations

from math import prod
from typing import Dict, Hashable, Tuple

import numpy as np

__all__ = ["ScratchArena", "default_arena", "reset_default_arena"]


class ScratchArena:
    """Named, grow-only flat buffers carved into shaped scratch arrays.

    ``get(name, shape)`` returns a C-contiguous array carved from the front
    of ``name``'s flat buffer. Asking again with the shape and dtype of the
    previous lease returns that same array object; any other request that
    fits is carved from the existing buffer, and only a request larger
    than the buffer allocates (the buffer grows to the new size and the
    old one is released). ``misses`` counts those allocations, ``hits``
    every lease served without one.
    """

    __slots__ = ("_flat", "_last", "hits", "misses")

    def __init__(self) -> None:
        #: name -> flat byte buffer
        self._flat: Dict[Hashable, np.ndarray] = {}
        #: name -> the most recent lease carved from it
        self._last: Dict[Hashable, np.ndarray] = {}
        #: number of get() calls served from capacity / requiring allocation
        self.hits = 0
        self.misses = 0

    def get(
        self,
        name: Hashable,
        shape: Tuple[int, ...],
        dtype: np.dtype = np.float64,
    ) -> np.ndarray:
        """Lease ``shape`` from the scratch buffer ``name`` (uninitialized)."""
        last = self._last.get(name)
        if last is not None and last.shape == shape and last.dtype == dtype:
            self.hits += 1
            return last
        shape = tuple(map(int, shape))
        dtype = np.dtype(dtype)
        size = prod(shape) * dtype.itemsize
        flat = self._flat.get(name)
        if flat is not None and flat.size >= size:
            self.hits += 1
        else:
            self.misses += 1
            flat = self._flat[name] = np.empty(size, dtype=np.uint8)
        buf = np.ndarray(shape, dtype, buffer=flat)
        self._last[name] = buf
        return buf

    def __len__(self) -> int:
        return len(self._flat)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(b.nbytes for b in self._flat.values())

    def clear(self) -> None:
        """Release every buffer (and reset the hit/miss counters)."""
        self._flat.clear()
        self._last.clear()
        self.hits = 0
        self.misses = 0


_DEFAULT = ScratchArena()


def default_arena() -> ScratchArena:
    """The process-wide arena used when kernels receive ``arena=None``."""
    return _DEFAULT


def reset_default_arena() -> None:
    """Drop all buffers held by the process-wide arena (tests, memory pressure)."""
    _DEFAULT.clear()
