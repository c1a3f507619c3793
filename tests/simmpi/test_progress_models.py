"""Progress-model semantics on both MPI backends.

The paper's machines only advance wire work inside MPI calls (manual
poll); modern fabrics progress it autonomously. These tests pin the
contract of :meth:`InterconnectSpec.background_fraction` and its effect
on both backends: hardware offload never waits longer than manual poll,
background wire time moves to the "progress" lane, and multi-NIC nodes
build one wire per NIC.
"""

from dataclasses import replace

import pytest

from repro.des import Environment
from repro.machines import JAGUARPF, YONA
from repro.machines.spec import InterconnectSpec, ProgressModel
from repro.obs import Tracer
from repro.simmpi import World
from repro.simmpi.mirror import MirrorComm, MirrorProfile


@pytest.fixture
def env():
    return Environment()


def with_progress(ic, model, **kw):
    return replace(ic, progress=model, **kw)


RENDEZVOUS_BYTES = 10_000_000  # far above every eager threshold


def elapsed_nonblocking_full(ic, nbytes=RENDEZVOUS_BYTES, overlap_s=5e-3):
    """Time for isend/irecv + simulated compute + wait on the full backend."""
    env = Environment()
    w = World(env, 2, ic, JAGUARPF.node, tasks_per_node=1)

    def sender():
        comm = w.comm(0)
        req = yield from comm.isend(1, tag=1, nbytes=nbytes)
        yield env.timeout(overlap_s)  # compute while the wire works
        yield from comm.wait(req)

    def receiver():
        comm = w.comm(1)
        req = yield from comm.irecv(0, tag=1, nbytes=nbytes)
        yield env.timeout(overlap_s)
        yield from comm.wait(req)

    procs = [env.process(p()) for p in (sender, receiver)]
    env.run()
    return env.now


def elapsed_nonblocking_mirror(ic, nbytes=RENDEZVOUS_BYTES, overlap_s=5e-3):
    env = Environment()
    profile = MirrorProfile(
        interconnect=ic, node=JAGUARPF.node, nranks=2, tasks_per_node=1
    )
    comm = MirrorComm(env, profile)

    def program():
        req = yield from comm.irecv(0, tag=1, nbytes=nbytes)
        sreq = yield from comm.isend(0, tag=1, nbytes=nbytes)
        yield env.timeout(overlap_s)
        yield from comm.wait(req)
        yield from comm.wait(sreq)

    env.process(program())
    env.run()
    return env.now


class TestBackgroundFraction:
    def test_manual_poll_matches_legacy(self):
        ic = JAGUARPF.interconnect
        assert ic.progress is ProgressModel.MANUAL_POLL
        assert ic.background_fraction(eager=True) == 0.0
        assert ic.background_fraction(eager=False) == ic.overlap_fraction

    def test_explicit_manual_poll_run_matches_default(self):
        from repro.core.config import RunConfig
        from repro.core.runner import run

        explicit = replace(YONA, interconnect=with_progress(
            YONA.interconnect, ProgressModel.MANUAL_POLL))

        def result(machine):
            r = run(RunConfig(machine=machine, implementation="hybrid_overlap",
                              cores=12, threads_per_task=6, box_thickness=3,
                              network="full"))
            return r.elapsed_s, r.phases, r.comm_stats

        assert result(explicit) == result(YONA)

    def test_progress_thread(self):
        ic = with_progress(
            JAGUARPF.interconnect, ProgressModel.PROGRESS_THREAD,
            progress_overlap_fraction=0.9,
        )
        assert ic.background_fraction(eager=True) == 0.9
        assert ic.background_fraction(eager=False) == 0.9
        assert ic.progress_tax == ic.progress_host_tax > 0.0

    def test_hardware_offload(self):
        ic = with_progress(JAGUARPF.interconnect, ProgressModel.HARDWARE_OFFLOAD)
        assert ic.background_fraction(eager=True) == 1.0
        assert ic.background_fraction(eager=False) == 1.0
        assert ic.progress_tax == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(JAGUARPF.interconnect, progress_overlap_fraction=1.5)
        with pytest.raises(ValueError):
            replace(JAGUARPF.interconnect, progress_host_tax=-0.1)
        with pytest.raises(ValueError):
            replace(JAGUARPF.interconnect, nics_per_node=0)
        with pytest.raises(ValueError):
            replace(JAGUARPF.interconnect, progress="polling-harder")

    def test_string_coerces_to_enum(self):
        ic = replace(JAGUARPF.interconnect, progress="hardware-offload")
        assert ic.progress is ProgressModel.HARDWARE_OFFLOAD


class TestOffloadNeverSlower:
    """Hardware offload hides at least as much wire time as manual poll."""

    def test_full_backend(self):
        manual = elapsed_nonblocking_full(JAGUARPF.interconnect)
        offload = elapsed_nonblocking_full(
            with_progress(JAGUARPF.interconnect, ProgressModel.HARDWARE_OFFLOAD)
        )
        assert offload <= manual

    def test_full_backend_strict_when_overlap_imperfect(self):
        ic = replace(JAGUARPF.interconnect, overlap_fraction=0.3)
        manual = elapsed_nonblocking_full(ic)
        offload = elapsed_nonblocking_full(
            with_progress(ic, ProgressModel.HARDWARE_OFFLOAD)
        )
        assert offload < manual

    def test_mirror_backend(self):
        manual = elapsed_nonblocking_mirror(JAGUARPF.interconnect)
        offload = elapsed_nonblocking_mirror(
            with_progress(JAGUARPF.interconnect, ProgressModel.HARDWARE_OFFLOAD)
        )
        assert offload <= manual

    def test_eager_messages_hidden_only_with_progress(self):
        """Eager sends are fully exposed under manual poll (the library
        moves the bytes inside the wait) but hidden under offload."""
        ic = JAGUARPF.interconnect
        nbytes = ic.eager_threshold_bytes  # at the threshold: still eager
        manual = elapsed_nonblocking_full(ic, nbytes=nbytes)
        offload = elapsed_nonblocking_full(
            with_progress(ic, ProgressModel.HARDWARE_OFFLOAD), nbytes=nbytes
        )
        assert offload <= manual


class TestProgressLane:
    def run_traced(self, ic):
        env = Environment()
        w = World(env, 2, ic, JAGUARPF.node, tasks_per_node=1)
        tracer = Tracer()
        w.tracer = tracer

        def sender():
            comm = w.comm(0)
            req = yield from comm.isend(1, tag=1, nbytes=RENDEZVOUS_BYTES)
            yield from comm.wait(req)

        def receiver():
            comm = w.comm(1)
            req = yield from comm.irecv(0, tag=1, nbytes=RENDEZVOUS_BYTES)
            yield from comm.wait(req)

        for p in (sender, receiver):
            env.process(p())
        env.run()
        return tracer

    def test_manual_poll_has_no_progress_lane(self):
        tracer = self.run_traced(JAGUARPF.interconnect)
        lanes = {lane for _, lane in tracer.lane_keys()}
        assert "progress" not in lanes
        assert "mpi" in lanes

    def test_offload_moves_background_to_progress_lane(self):
        tracer = self.run_traced(
            with_progress(JAGUARPF.interconnect, ProgressModel.HARDWARE_OFFLOAD)
        )
        lanes = {lane for _, lane in tracer.lane_keys()}
        assert "progress" in lanes

    def test_local_messages_stay_on_mpi_lane(self):
        """Intra-node traffic is a memcpy; no NIC ever progresses it."""
        ic = with_progress(JAGUARPF.interconnect, ProgressModel.HARDWARE_OFFLOAD)
        env = Environment()
        w = World(env, 2, ic, JAGUARPF.node, tasks_per_node=2)  # same node
        tracer = Tracer()
        w.tracer = tracer

        def sender():
            comm = w.comm(0)
            req = yield from comm.isend(1, tag=1, nbytes=RENDEZVOUS_BYTES)
            yield from comm.wait(req)

        def receiver():
            comm = w.comm(1)
            req = yield from comm.irecv(0, tag=1, nbytes=RENDEZVOUS_BYTES)
            yield from comm.wait(req)

        for p in (sender, receiver):
            env.process(p())
        env.run()
        lanes = {lane for _, lane in tracer.lane_keys()}
        assert "progress" not in lanes


class TestMultiNic:
    def test_one_wire_per_nic(self, env):
        ic = replace(JAGUARPF.interconnect, nics_per_node=4)
        w = World(env, 4, ic, JAGUARPF.node, tasks_per_node=2)  # 2 nodes
        names = [nic.name for nic in w.nics]
        assert names == [
            "nic0:0", "nic0:1", "nic0:2", "nic0:3",
            "nic1:0", "nic1:1", "nic1:2", "nic1:3",
        ]

    def test_single_nic_keeps_legacy_names(self, env):
        w = World(env, 4, JAGUARPF.interconnect, JAGUARPF.node, tasks_per_node=2)
        assert [nic.name for nic in w.nics] == ["nic0", "nic1"]

    def test_more_nics_relieve_congestion(self):
        """Two same-node senders share one NIC but get a rail each at npn=2."""
        def elapsed(npn):
            ic = replace(JAGUARPF.interconnect, nics_per_node=npn)
            env = Environment()
            w = World(env, 4, ic, JAGUARPF.node, tasks_per_node=2)

            def sender(rank, peer):
                comm = w.comm(rank)
                req = yield from comm.isend(peer, tag=1, nbytes=RENDEZVOUS_BYTES)
                yield from comm.wait(req)

            def receiver(rank, peer):
                comm = w.comm(rank)
                req = yield from comm.irecv(peer, tag=1, nbytes=RENDEZVOUS_BYTES)
                yield from comm.wait(req)

            # both node-0 ranks send cross-node concurrently
            env.process(sender(0, 2))
            env.process(sender(1, 3))
            env.process(receiver(2, 0))
            env.process(receiver(3, 1))
            env.run()
            return env.now

        # wire-dominated rendezvous transfers: a private rail is strictly
        # faster than sharing the node's single NIC
        assert elapsed(2) < elapsed(1)

    def test_mirror_divides_nic_share(self):
        ic = replace(YONA.interconnect, nics_per_node=2)
        base = MirrorProfile(
            interconnect=YONA.interconnect, node=YONA.node, nranks=8,
            tasks_per_node=4,
        )
        multi = MirrorProfile(interconnect=ic, node=YONA.node, nranks=8,
                              tasks_per_node=4)
        env1, env2 = Environment(), Environment()
        c1 = MirrorComm(env1, base)
        c2 = MirrorComm(env2, multi)
        # halving the contenders per rail raises the per-rank wire rate
        assert c2._price(1, 10**6).rate > c1._price(1, 10**6).rate
