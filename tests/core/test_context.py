"""Unit tests for RankContext's cost helpers."""

import pytest

from repro.core.config import RunConfig
from repro.core.context import FACE_KERNEL_MULTIPLIER, RankContext
from repro.core.data import RankData
from repro.decomp.partition import Decomposition
from repro.des import Environment
from repro.machines import JAGUARPF, YONA
from repro.simgpu.device import Gpu
from repro.stencil.coefficients import FLOPS_PER_POINT


def make_ctx(machine=YONA, gpu=True, gpu_share=1, **cfg_kw):
    kw = dict(machine=machine, implementation="bulk", cores=machine.node.cores,
              threads_per_task=6, domain=(32, 32, 32))
    kw.update(cfg_kw)
    cfg = RunConfig(**kw)
    env = Environment()
    decomp = Decomposition(cfg.ntasks, cfg.domain)
    sub = decomp.subdomain(0)
    g = Gpu(env, machine.gpu) if (gpu and machine.gpu) else None
    return RankContext(env, cfg, sub, decomp, None, RankData(cfg, sub), g, gpu_share)


def run_for(ctx, gen):
    p = ctx.env.process(gen)
    ctx.env.run()
    return ctx.env.now


class TestCpuCosts:
    def test_compute_charges_phase(self):
        ctx = make_ctx(machine=JAGUARPF, gpu=False)

        def prog():
            yield ctx.compute(10_000)

        run_for(ctx, prog())
        assert ctx.phases["compute"] > 0

    def test_pieces_add_region_overheads(self):
        ctx1 = make_ctx(machine=JAGUARPF, gpu=False)
        ctx6 = make_ctx(machine=JAGUARPF, gpu=False)

        def prog(ctx, pieces):
            yield ctx.compute(10_000, boundary=True, pieces=pieces)

        t1 = run_for(ctx1, prog(ctx1, 1))
        t6 = run_for(ctx6, prog(ctx6, 6))
        assert t6 > t1

    def test_zero_points_free(self):
        ctx = make_ctx(machine=JAGUARPF, gpu=False)

        def prog():
            yield ctx.compute(0)

        assert run_for(ctx, prog()) == 0.0

    def test_compute_seconds_matches_compute(self):
        ctx = make_ctx(machine=JAGUARPF, gpu=False)
        expected = ctx.compute_seconds(50_000)

        def prog():
            yield ctx.compute(50_000, phase="x")

        # compute() adds the parallel-region overhead on top
        assert run_for(ctx, prog()) >= expected


class TestGpuCosts:
    def test_face_kernel_multipliers_ordered(self):
        """x faces slowest, z faces fastest (see FACE_KERNEL_MULTIPLIER)."""
        times = {}
        for dim in range(3):
            ctx = make_ctx()
            s = ctx.gpu.stream()

            def prog(ctx=ctx, s=s, dim=dim):
                ev = ctx.face_kernel(s, 100_000, dim)
                yield ev

            times[dim] = run_for(ctx, prog())
        assert times[0] > times[1] > times[2]
        assert times[0] / times[1] == pytest.approx(
            FACE_KERNEL_MULTIPLIER[1] / FACE_KERNEL_MULTIPLIER[0]
        )

    def test_thin_kernel_rate(self):
        ctx = make_ctx()
        s = ctx.gpu.stream()

        def prog():
            yield ctx.thin_kernel(s, 100_000)

        t = run_for(ctx, prog())
        spec = YONA.gpu
        expected = 100_000 * FLOPS_PER_POINT / (
            spec.stencil_gflops_best * spec.thin_slab_efficiency * 1e9
        )
        assert t == pytest.approx(expected)

    def test_gpu_share_scales_kernels(self):
        t1 = None
        for share, out in ((1, {}), (3, {})):
            ctx = make_ctx(gpu_share=share)
            s = ctx.gpu.stream()

            def prog(ctx=ctx, s=s):
                yield ctx.stencil_kernel(s, 1_000_000)

            t = run_for(ctx, prog())
            if t1 is None:
                t1 = t
            else:
                assert t == pytest.approx(3 * t1)

    def test_pcie_sync_serializes_on_lock(self):
        ctx = make_ctx()
        nbytes = int(1e-3 * YONA.gpu.pcie_unpinned_gbs * 1e9)

        def prog():
            a = ctx.pcie_sync(nbytes)
            b = ctx.pcie_sync(nbytes)
            yield ctx.env.all_of([a, b])

        t = run_for(ctx, prog())
        single = YONA.gpu.pcie_latency_s + 1e-3
        assert t == pytest.approx(2 * single, rel=0.01)

    def test_device_copy_strided_slower_than_plane(self):
        tx, tz = None, None
        for dim in (0, 2):
            ctx = make_ctx()
            s = ctx.gpu.stream()

            def prog(ctx=ctx, s=s, dim=dim):
                yield ctx.device_copy_kernel(s, 10**6, dim)

            t = run_for(ctx, prog())
            if dim == 0:
                tx = t
            else:
                tz = t
        assert tx > tz

    def test_require_gpu_error(self):
        ctx = make_ctx(machine=JAGUARPF, gpu=False)
        with pytest.raises(RuntimeError, match="no GPU"):
            ctx.launch_cost()

    def test_launch_cost_scales(self):
        ctx = make_ctx()

        def prog():
            yield ctx.launch_cost(5)

        t = run_for(ctx, prog())
        assert t == pytest.approx(5 * YONA.gpu.kernel_launch_us * 1e-6)


class TestTopologyHelpers:
    def test_neighbor_delegates_to_decomp(self):
        ctx = make_ctx(machine=JAGUARPF, gpu=False, cores=12, threads_per_task=2)
        assert ctx.neighbor(2, 1) == ctx.decomp.neighbor(0, 2, 1)

    def test_memoized_neighbor_still_rejects_bad_sides(self):
        ctx = make_ctx(machine=JAGUARPF, gpu=False, cores=12, threads_per_task=2)
        for _ in range(2):  # the second pass reads the memo
            for dim in range(3):
                for side in (-1, 1):
                    assert ctx.neighbor(dim, side) == ctx.decomp.neighbor(0, dim, side)
            with pytest.raises(ValueError, match="side"):
                ctx.neighbor(0, 0)

    def test_face_bytes(self):
        ctx = make_ctx(machine=JAGUARPF, gpu=False)
        from repro.decomp.halo import face_message_bytes

        for dim in range(3):
            assert ctx.face_bytes(dim) == face_message_bytes(ctx.sub.shape, dim)
