"""Shared geometry and functional helpers for the GPU implementations.

Device fields mirror the host halo convention (one-point halo, interior at
``[1:-1]``). For the hybrid implementations the device array covers only the
GPU *block* of Fig. 1; :func:`host_to_dev` maps interior coordinates of the
task subdomain onto device-array coordinates.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.decomp.boxdecomp import BoxDecomposition

__all__ = [
    "box_points",
    "slab_normal_split",
    "inner_boundary_slabs",
    "inner_halo_slabs",
    "host_to_dev",
    "copy_box_host_to_dev",
    "copy_box_dev_to_host",
]

Box = Tuple[Tuple[int, int, int], Tuple[int, int, int]]


def box_points(box: Box) -> int:
    """Point count of an interior box ``(lo, hi)``."""
    lo, hi = box
    return max(0, hi[0] - lo[0]) * max(0, hi[1] - lo[1]) * max(0, hi[2] - lo[2])


def _shell(lo: Tuple[int, int, int], hi: Tuple[int, int, int]) -> List[Tuple[int, Box]]:
    """Six non-overlapping one-thick slabs covering the shell of [lo, hi).

    Returns ``(normal_dim, box)`` pairs; x slabs span full y/z, y slabs are
    shaved in x, z slabs shaved in x and y (same convention as
    :meth:`repro.core.data.RankData.boundary_slabs`).
    """
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    slabs = [
        (0, ((x0, y0, z0), (x0 + 1, y1, z1))),
        (0, ((x1 - 1, y0, z0), (x1, y1, z1))),
        (1, ((x0 + 1, y0, z0), (x1 - 1, y0 + 1, z1))),
        (1, ((x0 + 1, y1 - 1, z0), (x1 - 1, y1, z1))),
        (2, ((x0 + 1, y0 + 1, z0), (x1 - 1, y1 - 1, z0 + 1))),
        (2, ((x0 + 1, y0 + 1, z1 - 1), (x1 - 1, y1 - 1, z1))),
    ]
    # A one-point extent makes the two slabs of that dimension coincide;
    # keep one so points are neither double-counted nor double-computed.
    out, seen = [], set()
    for dim, box in slabs:
        if box_points(box) == 0 or box in seen:
            continue
        seen.add(box)
        out.append((dim, box))
    return out


def slab_normal_split(slabs: Iterable[Tuple[int, Box]]):
    """Group shell slabs by normal dimension -> total points."""
    totals = {0: 0, 1: 0, 2: 0}
    for dim, box in slabs:
        totals[dim] += box_points(box)
    return totals


def inner_boundary_slabs(box: BoxDecomposition) -> List[Tuple[int, Box]]:
    """The GPU block's outermost layer (D2H'd for the CPU walls)."""
    return _shell(box.block_lo, box.block_hi)


def inner_halo_slabs(box: BoxDecomposition) -> List[Tuple[int, Box]]:
    """The CPU layer just outside the block (H2D'd as the block's halo)."""
    lo = tuple(v - 1 for v in box.block_lo)
    hi = tuple(v + 1 for v in box.block_hi)
    return _shell(lo, hi)


def host_to_dev(box: BoxDecomposition):
    """Offset mapping interior coords -> device-array (haloed) coords.

    ``dev_index = interior_coord - (block_lo - 1)`` per dimension, so the
    block's halo layer lands on device indices 0 and -1.
    """
    return tuple(l - 1 for l in box.block_lo)


def copy_box_host_to_dev(
    host: Optional[np.ndarray],
    dev: Optional[np.ndarray],
    box: BoxDecomposition,
    slab: Box,
) -> None:
    """Copy interior box ``slab`` from host field into the device block."""
    if host is None or dev is None:
        return
    off = host_to_dev(box)
    lo, hi = slab
    hsl = tuple(slice(1 + l, 1 + h) for l, h in zip(lo, hi))
    dsl = tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, off))
    dev[dsl] = host[hsl]


def copy_box_dev_to_host(
    dev: Optional[np.ndarray],
    host: Optional[np.ndarray],
    box: BoxDecomposition,
    slab: Box,
) -> None:
    """Copy interior box ``slab`` from the device block into the host field."""
    if host is None or dev is None:
        return
    off = host_to_dev(box)
    lo, hi = slab
    hsl = tuple(slice(1 + l, 1 + h) for l, h in zip(lo, hi))
    dsl = tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, off))
    host[hsl] = dev[dsl]
