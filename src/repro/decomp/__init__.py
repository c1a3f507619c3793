"""Domain decomposition (paper §IV-B, §IV-H, Fig. 1).

* :mod:`~repro.decomp.partition` — the paper's data-distribution algorithm:
  subdomains as equal-sized and as cubic as possible, no empty subdomains,
  largest extent in x / smallest in z, at most one point of imbalance per
  dimension; rank/coordinate maps and the 6 face neighbors.
* :mod:`~repro.decomp.halo` — the serialized 6-exchange halo protocol that
  routes the 26 logical neighbors through 6 messages (x corners travel via
  y neighbors; x and y via z), with functional pack/unpack and byte counts.
* :mod:`~repro.decomp.boxdecomp` — the CPU-box / GPU-block split of Fig. 1
  with tunable wall thickness, wall slabs per dimension, and the inner
  halo/boundary exchange surfaces between CPU and GPU.
"""

from repro.decomp.boxdecomp import BoxDecomposition, Wall
from repro.decomp.halo import (
    face_message_bytes,
    pack_face,
    unpack_face,
)
from repro.decomp.partition import (
    Decomposition,
    Subdomain,
    block_range,
    choose_task_grid,
)

__all__ = [
    "BoxDecomposition",
    "Decomposition",
    "Subdomain",
    "Wall",
    "block_range",
    "choose_task_grid",
    "face_message_bytes",
    "pack_face",
    "unpack_face",
]
