"""Tests for the mirror backend and its cross-validation against the full one."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import RunConfig
from repro.core.runner import run
from repro.decomp.partition import Decomposition
from repro.des import Environment, SimulationError
from repro.machines import JAGUARPF, HOPPER, ProgressModel
from repro.obs.tracer import Tracer
from repro.perturb.model import Perturbation
from repro.perturb.spec import NoiseSpec
from repro.simmpi import MirrorComm, MirrorProfile, halo_tag


def make_comm(ntasks=64, tasks_per_node=4, machine=JAGUARPF):
    env = Environment()
    d = Decomposition(ntasks, (420, 420, 420))
    profile = MirrorProfile.for_decomposition(machine, d, tasks_per_node)
    return env, MirrorComm(env, profile), profile


class TestProfile:
    def test_onnode_x_neighbors(self):
        _, _, prof = make_comm(64, 4)  # grid (4,4,4); 4 x-ranks per node
        assert not prof.is_offnode(halo_tag(0, -1))
        assert prof.is_offnode(halo_tag(1, -1))
        assert prof.is_offnode(halo_tag(2, 1))

    def test_nic_share_counts_concurrent_senders(self):
        _, _, prof = make_comm(64, 4)
        # all 4 node ranks send both y sides -> 8 concurrent transfers
        assert prof.nic_share(halo_tag(1, -1)) == 8.0

    def test_single_task_per_node_all_offnode(self):
        _, _, prof = make_comm(64, 1)
        assert all(prof.is_offnode(halo_tag(d, s)) for d in range(3) for s in (-1, 1))

    def test_representative_is_comm_heaviest(self):
        _, _, prof = make_comm(64, 4)
        assert 0 <= prof.representative_rank < 4


def _brute_profile_tables(d, tasks_per_node):
    """The literal per-run node-0 scan the memoized helper replaced."""
    tpn = min(tasks_per_node, d.ntasks)
    node_ranks = list(range(tpn))
    off = {r: d.offnode_dims(r, tpn) for r in node_ranks}
    rep = max(node_ranks,
              key=lambda r: sum(int(b) for dd in off[r].values() for b in dd))
    offnode, share = {}, {}
    for dim in range(3):
        node_sends = sum(int(b) for r in node_ranks for b in off[r][dim])
        for side in (-1, 1):
            tag = halo_tag(dim, side)
            offnode[tag] = off[rep][dim][0 if side < 0 else 1]
            share[tag] = max(1.0, float(node_sends))
    return rep, offnode, share


@st.composite
def _layouts(draw):
    domain = tuple(draw(st.integers(1, 9)) for _ in range(3))
    ntasks = draw(st.integers(1, min(96, domain[0] * domain[1] * domain[2])))
    return domain, ntasks, draw(st.integers(1, 24))


class TestMemoizedScan:
    """The cached node-0 scan against the per-run scan it replaced."""

    @given(layout=_layouts())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_scan(self, layout):
        domain, ntasks, tpn = layout
        try:
            d = Decomposition(ntasks, domain)
        except ValueError:
            assume(False)  # no valid task grid for this domain
        prof = MirrorProfile.for_decomposition(JAGUARPF, d, tpn)
        rep, offnode, share = _brute_profile_tables(d, tpn)
        assert prof.representative_rank == rep
        assert prof.offnode_by_tag == offnode
        assert list(prof.offnode_by_tag) == list(offnode)
        assert prof.nic_share_by_tag == share
        assert prof.tasks_per_node == min(tpn, ntasks)

    def test_paper_scale_layouts(self):
        for ntasks in (24, 384, 4096, 24576):
            d = Decomposition(ntasks, (420, 420, 420))
            for tpn in (1, 2, 6, 12, 24):
                prof = MirrorProfile.for_decomposition(JAGUARPF, d, tpn)
                rep, offnode, share = _brute_profile_tables(d, tpn)
                assert (prof.representative_rank, prof.offnode_by_tag,
                        prof.nic_share_by_tag) == (rep, offnode, share)

    def test_tables_do_not_leak_between_runs(self):
        d = Decomposition(64, (420, 420, 420))
        first = MirrorProfile.for_decomposition(JAGUARPF, d, 4)
        want_off, want_share = dict(first.offnode_by_tag), dict(first.nic_share_by_tag)
        first.offnode_by_tag[halo_tag(0, -1)] = True
        first.offnode_by_tag[99] = False
        first.nic_share_by_tag.clear()
        second = MirrorProfile.for_decomposition(JAGUARPF, d, 4)
        assert second.offnode_by_tag == want_off
        assert second.nic_share_by_tag == want_share
        assert second.offnode_by_tag is not first.offnode_by_tag


class TestMirrorComm:
    def test_payload_rejected(self):
        env, comm, _ = make_comm()

        def prog():
            yield from comm.isend(1, halo_tag(0, -1), 100, payload=[1])

        env.process(prog())
        with pytest.raises(ValueError, match="payload"):
            env.run()

    def test_exchange_completes(self):
        env, comm, _ = make_comm()

        def prog():
            t = halo_tag(1, -1)
            rreq = yield from comm.irecv(7, t, 50_000)
            sreq = yield from comm.isend(8, t, 50_000)
            yield from comm.wait(rreq)
            yield from comm.wait(sreq)
            return env.now

        p = env.process(prog())
        assert env.run(until=p) > 0

    def test_repeated_steps_fifo_pairing(self):
        """Multiple steps reuse the same tags without cross-talk."""
        env, comm, _ = make_comm()
        times = []

        def prog():
            t = halo_tag(2, 1)
            for _ in range(4):
                rreq = yield from comm.irecv(7, t, 100_000)
                sreq = yield from comm.isend(8, t, 100_000)
                yield from comm.wait(rreq)
                yield from comm.wait(sreq)
                times.append(env.now)

        env.process(prog())
        env.run()
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(d == pytest.approx(deltas[0], rel=1e-6) for d in deltas)

    def test_same_tag_posts_pair_fifo_and_are_not_retained(self):
        """Sends and receives of one tag pair oldest-first; paired ones go."""
        env, comm, _ = make_comm()
        t = halo_tag(1, 1)
        sizes = (100_000, 200_000, 300_000)  # rendezvous: both sides post

        def prog():
            sends, recvs = [], []
            for n in sizes:
                sends.append((yield from comm.isend(8, t, n)))
            assert [len(q) for q in comm._awaiting["recv"].values()] == [3]
            for n in sizes:
                recvs.append((yield from comm.irecv(7, t, n)))
            for s, r in zip(sends, recvs):
                assert r._xfer is s._xfer and r._xfer.nbytes == r.nbytes
            recv_first = yield from comm.irecv(7, t, 400_000)
            send_after = yield from comm.isend(8, t, 400_000)
            assert send_after._xfer is recv_first._xfer
            for req in sends + recvs + [recv_first, send_after]:
                yield from comm.wait(req)

        env.process(prog())
        env.run()
        for side in ("send", "recv"):
            assert all(not q for q in comm._awaiting[side].values())

    @pytest.mark.parametrize("dim", [0, 1])  # on-node and off-node
    def test_eager_send_before_its_recv_starts_once(self, dim):
        """A send that needs no recv to start must not start again on it."""
        env, comm, prof = make_comm(64, 4)
        t = halo_tag(dim, -1)
        assert prof.is_offnode(t) == bool(dim)

        def prog():
            sreq = yield from comm.isend(8, t, 1_000)
            rreq = yield from comm.irecv(7, t, 1_000)
            yield from comm.wait(sreq)
            yield from comm.wait(rreq)
            return env.now

        assert env.run(until=env.process(prog())) > 0

    def test_onnode_cheaper_than_offnode(self):
        env, comm, prof = make_comm(64, 4)
        durations = {}

        def prog():
            for name, tag in (("on", halo_tag(0, -1)), ("off", halo_tag(1, -1))):
                t0 = env.now
                rreq = yield from comm.irecv(7, tag, 200_000)
                sreq = yield from comm.isend(8, tag, 200_000)
                yield from comm.wait(rreq)
                yield from comm.wait(sreq)
                durations[name] = env.now - t0

        env.process(prog())
        env.run()
        assert durations["on"] < durations["off"]

    def test_barrier_and_allreduce_cost_scale_with_ranks(self):
        def barrier_time(ntasks):
            env, comm, _ = make_comm(ntasks, 4)

            def prog():
                yield from comm.barrier()
                return env.now

            return env.run(until=env.process(prog()))

        assert barrier_time(4096) > barrier_time(8)

    def test_allreduce_returns_own_value(self):
        env, comm, _ = make_comm()

        def prog():
            v = yield from comm.allreduce_max(3.5)
            return v

        assert env.run(until=env.process(prog())) == 3.5


#: (message kind, halo tag, bytes) on JaguarPF's (4,4,4) grid with 4 tasks
#: per node: x faces stay on-node, y faces cross the NIC.
_MESSAGES = [
    ("on-node", halo_tag(0, -1), 100_000),
    ("eager", halo_tag(1, -1), 1_000),
    ("rendezvous", halo_tag(1, -1), 100_000),
]


class TestCompletionTimes:
    """A receive's wait returns at the hand-computed completion time."""

    @pytest.mark.parametrize("progress", list(ProgressModel))
    @pytest.mark.parametrize("kind,tag,nbytes", _MESSAGES)
    def test_recv_wait_returns_at_hand_computed_time(self, progress, kind, tag, nbytes):
        ic = replace(JAGUARPF.interconnect, progress=progress)
        env, comm, prof = make_comm(machine=replace(JAGUARPF, interconnect=ic))
        local, eager = kind == "on-node", kind == "eager"
        assert prof.is_offnode(tag) is not local
        assert local or (nbytes <= ic.eager_threshold_bytes) is eager
        memcpy_rate = JAGUARPF.node.memcpy_bandwidth_gbs * 1e9
        overhead = ic.per_message_cpu_us * 1e-6
        if local:
            lat, frac, rate = 0.5e-6, 1.0, memcpy_rate
        else:
            lat = ic.latency_s if eager else 2.0 * ic.latency_s
            frac = ic.background_fraction(eager)
            rate = ic.bandwidth_bps / prof.nic_share(tag)
        seen = {}

        def prog():
            sreq = yield from comm.isend(8, tag, nbytes)
            seen["send"] = env.now
            rreq = yield from comm.irecv(7, tag, nbytes)
            seen["recv"] = env.now
            yield from comm.wait(rreq)
            seen["done"] = env.now
            # Waiting again on the finished transfer, from either side,
            # yields nothing and leaves the clock alone.
            assert list(comm.wait(rreq)) == [] and list(comm.wait(sreq)) == []
            assert sreq.completed and rreq.completed

        env.run(until=env.process(prog()))
        assert seen["send"] == overhead
        assert seen["recv"] == overhead + overhead
        # Eager and on-node transfers start at the send; rendezvous needs
        # both sides posted.
        start = seen["recv"] if not (local or eager) else seen["send"]
        bg_end = start + lat
        if frac > 0:
            bg_end = bg_end + frac * nbytes / rate
        t = max(seen["recv"], bg_end)
        remainder = (1.0 - frac) * nbytes
        if not local and remainder > 0:
            t = t + remainder / rate
        if local or eager:
            t = t + nbytes / memcpy_rate  # the receive-side copy
        assert seen["done"] == t  # exact: the same float arithmetic

    @pytest.mark.parametrize("progress", list(ProgressModel))
    @pytest.mark.parametrize("tag", [halo_tag(0, -1), halo_tag(1, -1)])
    def test_one_tag_at_several_sizes_is_priced_per_size(self, progress, tag):
        """Sends are priced per (tag, nbytes): a tag reused at another size,
        across the eager threshold and back, is timed by its own size."""
        ic = replace(JAGUARPF.interconnect, progress=progress)
        env, comm, prof = make_comm(machine=replace(JAGUARPF, interconnect=ic))
        memcpy_rate = JAGUARPF.node.memcpy_bandwidth_gbs * 1e9
        overhead = ic.per_message_cpu_us * 1e-6
        local = not prof.is_offnode(tag)
        sizes = (1_000, 100_000, 1_000, 0, 100_000)
        seen = []

        def prog():
            for nbytes in sizes:
                t0 = env.now
                yield from comm.isend(8, tag, nbytes)
                rreq = yield from comm.irecv(7, tag, nbytes)
                yield from comm.wait(rreq)
                seen.append((t0, env.now))

        env.run(until=env.process(prog()))
        for nbytes, (t0, done) in zip(sizes, seen):
            eager = nbytes <= ic.eager_threshold_bytes
            if local:
                lat, frac, rate = 0.5e-6, 1.0, memcpy_rate
            else:
                lat = ic.latency_s if eager else 2.0 * ic.latency_s
                frac = ic.background_fraction(eager)
                rate = ic.bandwidth_bps / prof.nic_share(tag)
            send_t = t0 + overhead
            recv_t = send_t + overhead
            bg_end = (send_t if local or eager else recv_t) + lat
            if frac > 0:
                bg_end = bg_end + frac * nbytes / rate
            t = max(recv_t, bg_end)
            remainder = (1.0 - frac) * nbytes
            if not local and remainder > 0:
                t = t + remainder / rate
            if local or eager:
                t = t + nbytes / memcpy_rate
            assert done == t, nbytes

    @pytest.mark.parametrize("kind,tag,nbytes", _MESSAGES)
    def test_recv_wait_before_send_posted_raises(self, kind, tag, nbytes):
        env, comm, _ = make_comm()

        def prog():
            rreq = yield from comm.irecv(7, tag, nbytes)
            yield from comm.wait(rreq)

        env.process(prog())
        with pytest.raises(SimulationError, match=f"recv of tag {tag} before its matching send"):
            env.run()

    def test_rendezvous_send_wait_before_recv_posted_raises(self):
        env, comm, _ = make_comm()
        tag = halo_tag(1, -1)

        def prog():
            sreq = yield from comm.isend(8, tag, 100_000)
            yield from comm.wait(sreq)

        env.process(prog())
        with pytest.raises(SimulationError, match=f"send of tag {tag} before its matching recv"):
            env.run()


#: Tags on JaguarPF's (4,4,4) grid with 4 tasks per node: x faces stay
#: on-node, y and z faces cross the NIC.
_BATCH_TAGS = (halo_tag(0, -1), halo_tag(0, 1), halo_tag(1, -1), halo_tag(2, 1))
_EAGER_MAX = JAGUARPF.interconnect.eager_threshold_bytes
#: zero-byte, eager, threshold-edge and rendezvous sizes.
_BATCH_SIZES = (0, 1_000, _EAGER_MAX, _EAGER_MAX + 1, 100_000)


@st.composite
def _batch_cases(draw):
    n = draw(st.integers(1, 6))
    msgs = [
        (draw(st.sampled_from(_BATCH_TAGS)), draw(st.sampled_from(_BATCH_SIZES)))
        for _ in range(n)
    ]
    return {
        "msgs": msgs,
        "send_order": draw(st.permutations(range(n))),
        "wait_order": draw(st.permutations(range(2 * n))),
        "recv_first": draw(st.booleans()),
        "gap": draw(st.sampled_from((0.0, 1e-6, 1e-4))),
        "progress": draw(st.sampled_from(list(ProgressModel))),
        "noise": draw(st.sampled_from((None, "low", "high"))),
        "traced": draw(st.booleans()),
    }


def _exchange(case, batched):
    """Post, (optionally) compute, then complete one exchange; observe it.

    Returns the clock after each phase, the comm statistics, every
    perturbation stream's draw index and the traced intervals.
    """
    ic = replace(JAGUARPF.interconnect, progress=case["progress"])
    env, comm, _ = make_comm(machine=replace(JAGUARPF, interconnect=ic))
    tracer = Tracer() if case["traced"] else None
    comm.tracer = tracer
    if case["noise"] is not None:
        comm.perturb = Perturbation(11, NoiseSpec.preset(case["noise"]))
        comm.perturb.tracer = tracer
    recv_plan = [(7, tag, n) for tag, n in case["msgs"]]
    send_plan = [(8, *case["msgs"][i]) for i in case["send_order"]]
    times = []

    def post(kind, plan):
        if batched:
            reqs = yield from (comm.irecv_all(plan) if kind == "recv"
                               else comm.isend_all(plan))
        else:
            reqs = []
            one = comm.irecv if kind == "recv" else comm.isend
            for peer, tag, n in plan:
                reqs.append((yield from one(peer, tag, n)))
        times.append(env.now)
        return reqs

    def prog():
        if case["recv_first"]:
            recvs = yield from post("recv", recv_plan)
            sends = yield from post("send", send_plan)
        else:
            sends = yield from post("send", send_plan)
            recvs = yield from post("recv", recv_plan)
        yield env.timeout(case["gap"])
        reqs = [(recvs + sends)[i] for i in case["wait_order"]]
        if batched:
            assert (yield from comm.waitall(reqs)) == [None] * len(reqs)
        else:
            for req in reqs:
                yield from comm.wait(req)
        times.append(env.now)
        assert all(r.completed for r in reqs)

    env.run(until=env.process(prog()))
    stats = (comm.messages_sent, comm.bytes_sent,
             comm.messages_received, comm.bytes_received)
    draws = ({k: s.index for k, s in comm.perturb._streams.items()}
             if comm.perturb is not None else None)
    return times, stats, draws, (tracer.events if tracer is not None else None)


class TestBatches:
    """The closed-form batch calls against batches of one."""

    @given(case=_batch_cases())
    @settings(max_examples=300, deadline=None)
    def test_one_batch_matches_batches_of_one(self, case):
        batched = _exchange(case, batched=True)
        single = _exchange(case, batched=False)
        assert batched == single  # exact: times, stats, draws, intervals
        offnode = any(tag // 2 != 0 for tag, _ in case["msgs"])
        if case["noise"] is not None and offnode:
            assert any(batched[2].values())  # the streams really drew

    def test_waitall_with_unmatched_request_raises_naming_the_tag(self):
        env, comm, _ = make_comm()
        paired, lonely = halo_tag(1, -1), halo_tag(2, 1)

        def prog():
            recvs = yield from comm.irecv_all([(7, paired, 1_000), (7, lonely, 1_000)])
            sends = yield from comm.isend_all([(8, paired, 1_000)])
            yield from comm.waitall(recvs + sends)

        env.process(prog())
        with pytest.raises(
            SimulationError, match=f"recv of tag {lonely} before its matching send"
        ):
            env.run()

    def test_empty_batches_take_no_time(self):
        env, comm, _ = make_comm()

        def prog():
            assert (yield from comm.irecv_all([])) == []
            assert (yield from comm.isend_all([])) == []
            assert (yield from comm.waitall([])) == []
            return env.now

        assert env.run(until=env.process(prog())) == 0.0

    @pytest.mark.parametrize("extras", [0, 2])
    def test_spmv_gather_timeouts_do_not_grow_with_peers(self, monkeypatch, extras):
        """One SpMV step makes the same number of Timeouts at 2 peers as at
        dozens: each gather batch is one engine wait, not one per message."""
        from repro.des import engine
        from repro.workloads.spmv import spmv_problem

        made = []
        for name in ("timeout", "timeout_at"):
            orig = getattr(engine.Environment, name)

            def counted(self, *a, _orig=orig, **kw):
                made.append(1)
                return _orig(self, *a, **kw)

            monkeypatch.setattr(engine.Environment, name, counted)

        def per_step(extras):
            counts = []
            for steps in (2, 3):
                cfg = RunConfig(
                    machine=JAGUARPF, implementation="bulk", cores=96,
                    threads_per_task=1, steps=steps, workload="spmv",
                    workload_params=(("rows", 1 << 12), ("band", 8),
                                     ("extras", extras)),
                )
                del made[:]
                run(cfg)
                counts.append(len(made))
            problem = spmv_problem(cfg)
            rep = problem.representative(cfg.tasks_per_node)
            return counts[1] - counts[0], len(problem.coupling(rep).peers)

        few, few_peers = per_step(0)
        many, many_peers = per_step(extras)
        assert few_peers == 2
        if extras:
            assert many_peers > 10 * few_peers
        assert many == few


class TestCrossValidation:
    """Mirror per-step times must track the full backend."""

    @pytest.mark.parametrize(
        "machine,cores,threads",
        [
            (JAGUARPF, 48, 6),
            (JAGUARPF, 96, 12),
            (HOPPER, 96, 12),
        ],
    )
    @pytest.mark.parametrize("impl", ["bulk", "nonblocking", "bulk_direct"])
    def test_mirror_vs_full(self, machine, cores, threads, impl):
        common = dict(
            machine=machine, implementation=impl, cores=cores,
            threads_per_task=threads, steps=2,
        )
        t_full = run(RunConfig(network="full", **common)).seconds_per_step
        t_mirror = run(RunConfig(network="mirror", **common)).seconds_per_step
        # The mirror models NIC contention statically and takes the
        # worst-case rank, so it may sit above the ensemble average; it must
        # stay within a tight band of the full simulation.
        assert t_mirror == pytest.approx(t_full, rel=0.30)
