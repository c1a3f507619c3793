"""The per-device block table against a brute-force block sweep.

``best_block`` scores blocks from a table of shape-free factors built once
per :class:`GpuSpec`; the brute force below scores every admissible block
through :func:`block_efficiency`. The winner and its efficiency must agree
bit for bit, on catalog GPUs, on GPUs rebuilt with ``dataclasses.replace``
(as the sensitivity experiment builds them), and on odd or sub-warp tiles.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import MACHINES
from repro.simgpu.blockmodel import (
    _best_block_cached,
    _block_table,
    admissible_blocks,
    best_block,
    block_efficiency,
)

CATALOG_GPUS = sorted(
    {m.gpu for m in MACHINES.values() if m.gpu is not None}, key=lambda g: g.name
)


def brute_force(gpu, shape):
    best, best_eff = None, 0.0
    for blk in admissible_blocks(gpu):
        eff = block_efficiency(gpu, blk, shape)
        if eff > best_eff:
            best, best_eff = blk, eff
    return best, best_eff


def assert_table_agrees(gpu, shape):
    want, want_eff = brute_force(gpu, shape)
    if want is None:
        with pytest.raises(ValueError, match="no admissible block"):
            best_block(gpu, shape)
        return
    got, got_eff = _best_block_cached(gpu, shape)
    assert got == want == best_block(gpu, shape)
    assert got_eff.hex() == want_eff.hex()


extents = st.integers(min_value=1, max_value=600)
shapes = st.tuples(extents, extents, st.integers(min_value=1, max_value=64))

#: Device fields the block model reads, with ranges around the catalog.
gpu_overrides = st.fixed_dictionaries(
    {},
    optional={
        "max_threads_per_block": st.sampled_from([256, 512, 768, 1024]),
        "max_threads_per_sm": st.sampled_from([768, 1024, 1536, 2048]),
        "max_blocks_per_sm": st.integers(min_value=1, max_value=32),
        "shared_mem_per_sm_kb": st.sampled_from([1.0, 16.0, 48.0, 100.0, 164.0]),
        "register_file_size": st.sampled_from([8192, 16384, 32768, 65536]),
        "regs_per_thread": st.integers(min_value=8, max_value=64),
        "by_sweet_spot": st.floats(min_value=1.0, max_value=32.0),
        "by_sweet_amp": st.floats(min_value=0.0, max_value=0.5),
        "by_sweet_tol": st.floats(min_value=0.5, max_value=8.0),
        # Not read by the block model, but a new GpuSpec all the same: the
        # sensitivity experiment scales calibrated rates this way.
        "stencil_gflops_best": st.floats(min_value=10.0, max_value=500.0),
    },
)


class TestBlockTable:
    @pytest.mark.parametrize("gpu", CATALOG_GPUS, ids=lambda g: g.name)
    def test_catalog_gpus_at_paper_and_fast_shapes(self, gpu):
        for shape in ((420, 420, 420), (96, 96, 96), (16, 16, 16), (31, 7, 5)):
            assert_table_agrees(gpu, shape)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(CATALOG_GPUS), gpu_overrides, shapes)
    def test_matches_brute_force(self, gpu, overrides, shape):
        assert_table_agrees(replace(gpu, **overrides), shape)

    @pytest.mark.parametrize("gpu", CATALOG_GPUS, ids=lambda g: g.name)
    def test_table_holds_every_scoring_block(self, gpu):
        """The table keeps exactly the blocks with nonzero efficiency, in
        sweep order (the argmax keeps the first of equal scores)."""
        bxs, bys, _heads, _sweets = _block_table(gpu)
        kept = list(zip(bxs, bys))
        scoring = [b for b in admissible_blocks(gpu) if block_efficiency(gpu, b) > 0.0]
        assert kept == scoring
