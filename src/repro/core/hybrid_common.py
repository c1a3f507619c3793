"""Shared setup/teardown of the Fig. 1 hybrid implementations."""

from __future__ import annotations

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
from repro.stencil.arena import ScratchArena

__all__ = ["HybridGeometry", "hybrid_validate", "hybrid_setup", "hybrid_drain"]


class HybridGeometry:
    """Every per-step geometry fact of one rank's box decomposition.

    The box is fixed for the run, so the slab lists, point sums, byte
    counts and wall boxes the steps read are computed once in
    :func:`hybrid_setup` (all integers: nothing can drift).
    """

    __slots__ = (
        "box", "in_slabs", "out_slabs", "in_split", "out_split", "shell_points",
        "h2d_bytes", "d2h_bytes", "walls", "wall_interior_boxes",
        "wall_interior_points",
    )

    def __init__(self, box: BoxDecomposition):
        self.box = box
        #: the CPU layer just outside the block (H2D'd as its halo) and the
        #: block's outermost layer (D2H'd for the walls), as (dim, box).
        self.in_slabs = inner_halo_slabs(box)
        self.out_slabs = inner_boundary_slabs(box)
        self.in_split = slab_normal_split(self.in_slabs)
        self.out_split = slab_normal_split(self.out_slabs)
        self.shell_points = sum(self.out_split.values())
        self.h2d_bytes, self.d2h_bytes = box.inner_exchange_bytes()
        self.walls = box.walls()
        #: per exchange dim: the two walls' boxes clear of the outer halo,
        #: and their point total.
        self.wall_interior_boxes = [
            [box.wall_interior_box(w) for w in self.walls if w.dim == dim]
            for dim in range(3)
        ]
        self.wall_interior_points = [
            sum(box_points(b) for b in boxes) for boxes in self.wall_interior_boxes
        ]


def hybrid_validate(impl: Implementation, cfg: RunConfig) -> None:
    """Base checks plus eager box-decomposition feasibility.

    The smallest subdomain bounds feasibility (``min(shape) > 2T``), so a
    thickness that would raise inside :func:`hybrid_setup` is rejected
    here — before any simulation — which lets sweep drivers classify
    invalid (threads, thickness) points without running them.
    """
    Implementation.validate(impl, cfg)
    from repro.decomp.partition import Decomposition

    decomp = Decomposition(cfg.ntasks, cfg.domain)
    BoxDecomposition(decomp.min_subdomain_shape(), cfg.box_thickness)


def hybrid_setup(impl: Implementation, ctx: RankContext):
    """Common §IV-H/I setup: box decomposition, device block, buffers."""
    gpu = ctx.gpu
    st = ctx.state
    box = BoxDecomposition(ctx.sub.shape, ctx.cfg.box_thickness)
    st["geom"] = HybridGeometry(box)
    st["s1"] = gpu.stream("block")
    st["s2"] = gpu.stream("edges")
    # Device-side scratch arena for the separable sweeps over the GPU block
    # (the CPU walls use the rank's own arena via ctx.data.apply_block).
    st["arena"] = ScratchArena()
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
