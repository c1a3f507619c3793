"""Serialized 6-exchange halo protocol (paper §IV-B).

Each task exchanges with its 26 logical neighbors using only 6 messages by
serializing the dimensions: x faces first, then y faces (whose planes now
carry the freshly filled x halos, delivering x-y corner data), then z faces
(carrying x and y halos). This is the paper's "well-established strategy
[that] reduces the number of neighbor exchanges from 26 to 6".

The face planes are packed *with* the halo rims of the other dimensions:
when exchanging dimension ``d``, the plane spans the full haloed extent of
every other dimension. Rim entries that have not been filled yet are
harmless garbage that later exchanges overwrite; rim entries filled by
earlier exchanges are exactly the corner values that must propagate.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["pack_face", "unpack_face", "face_message_bytes", "halo_tag", "HALO_TAGS"]

#: Exchange order; must be ascending for corner propagation to work.
EXCHANGE_ORDER: Tuple[int, int, int] = (0, 1, 2)


def halo_tag(dim: int, travel: int) -> int:
    """Tag for a halo message in ``dim`` traveling toward side ``travel``.

    A rank sends its ``-x`` boundary to the ``-x`` neighbor with
    ``halo_tag(0, -1)`` and receives data traveling ``-x`` from its ``+x``
    neighbor under the same tag — the pairing the mirror backend exploits.
    """
    if travel not in (-1, 1):
        raise ValueError("travel must be -1 or +1")
    return dim * 2 + (0 if travel < 0 else 1)


#: All six halo tags in serialized exchange order (x-, x+, y-, y+, z-, z+).
HALO_TAGS = tuple(halo_tag(d, s) for d in range(3) for s in (-1, 1))


def _boundary_plane_index(field: np.ndarray, dim: int, side: int) -> int:
    """Index along ``dim`` of the interior boundary plane on ``side``."""
    return 1 if side == -1 else field.shape[dim] - 2


def _halo_plane_index(field: np.ndarray, dim: int, side: int) -> int:
    """Index along ``dim`` of the halo plane on ``side``."""
    return 0 if side == -1 else field.shape[dim] - 1


def pack_face(field: np.ndarray, dim: int, side: int) -> np.ndarray:
    """Copy the boundary plane to be sent to the ``(dim, side)`` neighbor.

    Returns a contiguous 2-D array spanning the full haloed extent of the
    other two dimensions.
    """
    if side not in (-1, 1):
        raise ValueError("side must be -1 or +1")
    idx: list = [slice(None)] * 3
    idx[dim] = _boundary_plane_index(field, dim, side)
    return field[tuple(idx)].copy()


def unpack_face(field: np.ndarray, dim: int, side: int, buf: np.ndarray) -> None:
    """Store a received plane into the halo on ``side`` of ``dim``."""
    if side not in (-1, 1):
        raise ValueError("side must be -1 or +1")
    idx: list = [slice(None)] * 3
    idx[dim] = _halo_plane_index(field, dim, side)
    target = field[tuple(idx)]
    if buf.shape != target.shape:
        raise ValueError(f"face buffer shape {buf.shape} != halo plane {target.shape}")
    target[...] = buf


def face_message_bytes(shape: Sequence[int], dim: int, itemsize: int = 8) -> int:
    """Bytes in one face message for an interior ``shape`` subdomain.

    Planes include the halo rims of the other dimensions (extent + 2).
    """
    full = [int(s) + 2 for s in shape]
    del full[dim]
    return full[0] * full[1] * itemsize
