"""Reusable scratch-buffer arena for the separable stencil engine.

The separable execution path in :mod:`repro.stencil.kernels` sweeps each
block as one flat buffer: a copy of the padded block (``sep.a``, skipped
when a whole C-ordered field is read in place), ping-pong sweep outputs
(``sep.b``, then ``sep.a`` again) and one tap buffer (``sep.tap``) for
in-place fused multiply-accumulate emulation (``np.multiply(..., out=tap)``
followed by ``np.add(acc, tap, out=acc)``). Allocating those per call would
dominate the runtime of the functional kernels (a 256^3 haloed double field
is ~137 MB), so all scratch space is leased from a :class:`ScratchArena`.

Each name owns one grow-only float64 buffer, and a lease of ``n`` elements
is the slice ``buf[:n]``: blocks of every extent share one allocation per
name, and the steady-state time step allocates nothing once the longest
lease has been seen. A caller that wants a shape reshapes the lease. The
sweeps hold every lease to :data:`repro.stencil.kernels.SCRATCH_BUDGET`
points (1 MiB) by sweeping larger blocks in chunks of outer planes, so a
thread's arena is bounded by the budget, about 3 MB over its three names,
not by the largest block it ever swept.
Buffers are handed out *uninitialized* (contents are whatever the previous
lease left behind); callers must fully overwrite the region they read back,
and a new lease under a name invalidates the previous one.

Every OS thread has its own default arena (:func:`default_arena`), which
backs the kernel entry points when no explicit arena is passed. The
simulator executes rank programs one at a time inside one discrete-event
loop, and a sweep never spans two events, so every simulated rank (and
every simulated device) on a thread shares that thread's arena: scratch is
bounded by the budget rather than by the rank count, and it is hot when
the next rank sweeps. Runs on other threads (the scheduler's inline
configs under the serve daemon's executor) lease from their own arenas,
so concurrent runs never share a buffer; a thread's arena lives as long
as the thread. Code that wants isolation or exact accounting (tests,
benchmarks) can pass its own arena instance.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable

import numpy as np

__all__ = ["ScratchArena", "default_arena", "reset_default_arena"]


class ScratchArena:
    """Named, grow-only float64 buffers leased as flat slices.

    ``get(name, n)`` returns the first ``n`` elements of ``name``'s buffer.
    Only a request longer than the buffer allocates (the buffer grows to
    the new length and the old one is released). ``misses`` counts those
    allocations, ``hits`` every lease served without one.
    """

    __slots__ = ("_bufs", "hits", "misses")

    def __init__(self) -> None:
        #: name -> flat float64 buffer
        self._bufs: Dict[Hashable, np.ndarray] = {}
        #: number of get() calls served from capacity / requiring allocation
        self.hits = 0
        self.misses = 0

    def get(self, name: Hashable, n: int) -> np.ndarray:
        """Lease ``n`` float64 elements of the scratch buffer ``name``
        (uninitialized, 1-D, C-contiguous)."""
        buf = self._bufs.get(name)
        if buf is not None and buf.size >= n:
            self.hits += 1
            return buf[:n]
        self.misses += 1
        buf = self._bufs[name] = np.empty(n)
        return buf

    def __len__(self) -> int:
        return len(self._bufs)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(b.nbytes for b in self._bufs.values())

    def clear(self) -> None:
        """Release every buffer (and reset the hit/miss counters)."""
        self._bufs.clear()
        self.hits = 0
        self.misses = 0


_LOCAL = threading.local()


def default_arena() -> ScratchArena:
    """The calling thread's arena, used when kernels receive ``arena=None``."""
    try:
        return _LOCAL.arena
    except AttributeError:
        arena = _LOCAL.arena = ScratchArena()
        return arena


def reset_default_arena() -> None:
    """Drop all buffers held by the calling thread's default arena (tests,
    memory pressure)."""
    default_arena().clear()
