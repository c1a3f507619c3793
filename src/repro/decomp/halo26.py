"""Direct 26-neighbor halo exchange regions (extension).

The paper's protocol serializes dimensions to route corner data through
faces (6 messages). The classic alternative sends to all 26 logical
neighbors directly — 6 faces + 12 edges + 8 corners — with no serialization
but 26 latencies and per-message overheads. This module provides the
region geometry and pack/unpack for that protocol; the
``bulk_direct`` implementation and the ``protocols`` experiment compare
the two (see DESIGN.md §7).

Offsets ``d`` are vectors in {-1, 0, +1}^3 minus the origin. For offset
``d`` a rank *sends* its boundary region toward ``d`` (the points the
``d``-neighbor needs as halo) and *receives* its halo region at ``d`` from
that same neighbor. Regions exclude halo rims entirely — corners travel in
their own messages.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "OFFSETS26",
    "offset_tag",
    "region_points",
    "region_bytes",
    "pack_region",
    "unpack_region",
    "total_exchange_bytes",
]

#: The 26 neighbor offsets, deterministic order (faces, then edges, corners).
OFFSETS26: Tuple[Tuple[int, int, int], ...] = tuple(
    sorted(
        (
            (dx, dy, dz)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dz in (-1, 0, 1)
            if (dx, dy, dz) != (0, 0, 0)
        ),
        key=lambda d: (sum(map(abs, d)), d),
    )
)

#: Tag space distinct from the serialized protocol's 6 halo tags.
_TAG_BASE = 100


def offset_tag(d: Sequence[int]) -> int:
    """Unique tag for offset ``d``."""
    return _TAG_BASE + (d[0] + 1) * 9 + (d[1] + 1) * 3 + (d[2] + 1)


def _send_slices(shape: Sequence[int], d: Sequence[int]) -> Tuple[slice, ...]:
    """Haloed-array slices of the boundary region sent toward ``d``."""
    out = []
    for n, dd in zip(shape, d):
        if dd == -1:
            out.append(slice(1, 2))
        elif dd == 1:
            out.append(slice(n, n + 1))
        else:
            out.append(slice(1, n + 1))
    return tuple(out)


def _recv_slices(shape: Sequence[int], d: Sequence[int]) -> Tuple[slice, ...]:
    """Haloed-array slices of the halo region at offset ``d``."""
    out = []
    for n, dd in zip(shape, d):
        if dd == -1:
            out.append(slice(0, 1))
        elif dd == 1:
            out.append(slice(n + 1, n + 2))
        else:
            out.append(slice(1, n + 1))
    return tuple(out)


def region_points(shape: Sequence[int], d: Sequence[int]) -> int:
    """Points in the region exchanged for offset ``d``."""
    pts = 1
    for n, dd in zip(shape, d):
        pts *= 1 if dd else int(n)
    return pts


def region_bytes(shape: Sequence[int], d: Sequence[int], itemsize: int = 8) -> int:
    """Bytes of one direct-exchange message."""
    return region_points(shape, d) * itemsize


def total_exchange_bytes(shape: Sequence[int], itemsize: int = 8) -> int:
    """Bytes a rank sends per step under the direct protocol."""
    return sum(region_bytes(shape, d, itemsize) for d in OFFSETS26)


def pack_region(field: np.ndarray, d: Sequence[int]) -> np.ndarray:
    """Contiguous copy of the boundary region sent toward ``d``."""
    shape = tuple(s - 2 for s in field.shape)
    return field[_send_slices(shape, d)].copy()


def unpack_region(field: np.ndarray, d: Sequence[int], buf: np.ndarray) -> None:
    """Store a received region into the halo at offset ``d``."""
    shape = tuple(s - 2 for s in field.shape)
    target = field[_recv_slices(shape, d)]
    if buf.shape != target.shape:
        raise ValueError(f"region buffer {buf.shape} != halo region {target.shape}")
    target[...] = buf
