"""Shared setup/teardown of the Fig. 1 hybrid implementations."""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from repro.core.base import Implementation
from repro.core.config import RunConfig
from repro.core.context import RankContext
from repro.core.gpu_common import (
    box_points,
    copy_box_dev_to_host,
    copy_box_host_to_dev,
    inner_boundary_slabs,
    inner_halo_slabs,
    slab_normal_split,
)
from repro.decomp.boxdecomp import BoxDecomposition
from repro.decomp.partition import shared_decomposition

__all__ = [
    "HybridGeometry", "hybrid_geometry", "hybrid_validate", "hybrid_setup",
    "hybrid_drain",
]


class HybridGeometry:
    """Every per-step geometry fact of one rank's box decomposition.

    The slab lists, point sums, byte counts and wall boxes the steps read
    depend only on the subdomain shape and the box thickness, so
    :func:`hybrid_geometry` builds them once per process and every run of
    that pair shares them (all integers: nothing can drift). Shared, so
    read-only: every table is a tuple and attributes cannot be rebound.
    """

    __slots__ = (
        "box", "in_slabs", "out_slabs", "in_split", "out_split", "shell_points",
        "h2d_bytes", "d2h_bytes", "walls", "wall_interior_boxes",
        "wall_interior_points",
    )

    def __init__(self, box: BoxDecomposition):
        put = object.__setattr__
        put(self, "box", box)
        #: the CPU layer just outside the block (H2D'd as its halo) and the
        #: block's outermost layer (D2H'd for the walls), as (dim, box).
        put(self, "in_slabs", tuple(inner_halo_slabs(box)))
        put(self, "out_slabs", tuple(inner_boundary_slabs(box)))
        #: (dim, points) per normal dim, x first
        put(self, "in_split", tuple(slab_normal_split(self.in_slabs).items()))
        put(self, "out_split", tuple(slab_normal_split(self.out_slabs).items()))
        put(self, "shell_points", sum(pts for _, pts in self.out_split))
        h2d_bytes, d2h_bytes = box.inner_exchange_bytes()
        put(self, "h2d_bytes", h2d_bytes)
        put(self, "d2h_bytes", d2h_bytes)
        put(self, "walls", tuple(box.walls()))
        #: per exchange dim: the two walls' boxes clear of the outer halo,
        #: and their point total.
        boxes = tuple(
            tuple(box.wall_interior_box(w) for w in self.walls if w.dim == dim)
            for dim in range(3)
        )
        put(self, "wall_interior_boxes", boxes)
        put(self, "wall_interior_points",
            tuple(sum(box_points(b) for b in dim_boxes) for dim_boxes in boxes))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            f"HybridGeometry is shared between runs; cannot set {name!r}"
        )


@lru_cache(maxsize=256)
def hybrid_geometry(shape: Tuple[int, int, int], thickness: int) -> HybridGeometry:
    """The process-wide :class:`HybridGeometry` of one subdomain shape and
    box thickness; raises ``ValueError`` when the thickness leaves no GPU
    block (nothing is memoized then).
    """
    return HybridGeometry(BoxDecomposition(shape, thickness))


def hybrid_validate(impl: Implementation, cfg: RunConfig) -> None:
    """Base checks plus eager box-decomposition feasibility.

    The smallest subdomain bounds feasibility (``min(shape) > 2T``), so a
    thickness that would raise inside :func:`hybrid_setup` is rejected
    here — before any simulation — which lets sweep drivers classify
    invalid (threads, thickness) points without running them.
    """
    Implementation.validate(impl, cfg)
    decomp = shared_decomposition(cfg.ntasks, tuple(cfg.domain))
    # A bare box, not the shared geometry: a sweep validates thicknesses
    # that no run sets up (and a warm regeneration sets up none), and the
    # box check is ~40x cheaper than building a HybridGeometry.
    BoxDecomposition(decomp.min_subdomain_shape(), cfg.box_thickness)


def hybrid_setup(impl: Implementation, ctx: RankContext):
    """Common §IV-H/I setup: box decomposition, device block, buffers."""
    gpu = ctx.gpu
    st = ctx.state
    geom = st["geom"] = hybrid_geometry(ctx.sub.shape, ctx.cfg.box_thickness)
    box = geom.box
    st["s1"] = gpu.stream("block")
    st["s2"] = gpu.stream("edges")
    shape = [s + 2 for s in box.block_shape]
    st["u"] = gpu.memory.allocate(f"blk{ctx.sub.rank}", shape, ctx.cfg.functional)
    st["unew"] = gpu.memory.allocate(f"blknew{ctx.sub.rank}", shape, ctx.cfg.functional)
    if ctx.cfg.functional:
        # Initial H2D of the block (outside the measurement).
        copy_box_host_to_dev(
            ctx.data.u, st["u"].data, box, (box.block_lo, box.block_hi)
        )
        yield ctx.h2d(st["s1"], st["u"].nbytes)
    yield ctx.gpu.synchronize()


def hybrid_drain(impl: Implementation, ctx: RankContext):
    """Common drain: pull the final block state back to the host field."""
    if ctx.cfg.functional:
        st = ctx.state
        box = st["geom"].box
        yield ctx.gpu.synchronize()
        yield ctx.d2h(st["s1"], st["u"].nbytes)
        copy_box_dev_to_host(st["u"].data, ctx.data.u, box, (box.block_lo, box.block_hi))
