"""Unit tests for the transfer engine (repro.core.engine).

The rig builds a real datapath — GPU allocations behind the Volta NIC,
a PMem region behind the server NIC, connected RC QPs — and drives a
:class:`TransferEngine` over it directly, so credit flow, striping,
stream limiting, and abort semantics are observable without the daemon
in the way.  The daemon-level behaviour (per-WR CPU charging, reply
fields, REGISTER negotiation) is tested end to end through
:class:`PaperCluster`.
"""

import pytest

from repro.core import protocol
from repro.core.engine import (ENGINE_CHUNK_BYTES, IngestLimiter,
                               TransferEngine, WorkItem, build_items,
                               stripe_items)
from repro.errors import ReproError, WorkRequestError
from repro.harness.cluster import PaperCluster
from repro.rdma.verbs import connect
from repro.units import kib, mib


def _runs(sizes, mr=None):
    """Synthetic whole-tensor work items with packed offsets."""
    runs = []
    offset = 0
    for index, size in enumerate(sizes):
        runs.append(WorkItem(f"t{index}", offset, 0x1000 + offset, 1, size,
                             mr))
        offset += size
    return runs


# -- build_items ---------------------------------------------------------------


def test_build_items_segments_large_tensors():
    chunk = kib(64)
    runs = _runs([kib(64) * 3 + 5, kib(64), 17], mr="region")
    items = build_items(runs, chunk)
    # t0 -> 4 parts (3 full + 5 B tail), t1 and t2 whole.
    assert [item.name for item in items] == \
        ["t0#0", "t0#1", "t0#2", "t0#3", "t1", "t2"]
    assert sum(item.size for item in items) == sum(run.size
                                                   for run in runs)
    # Every segment keeps its run's local MR.
    assert {item.mr for item in items} == {"region"}
    # Segments tile the tensor contiguously on both sides.
    parts = items[:4]
    for previous, part in zip(parts, parts[1:]):
        assert part.local_offset == previous.local_offset + previous.size
        assert part.remote_addr == previous.remote_addr + previous.size
    assert parts[-1].size == 5


def test_build_items_none_disables_segmentation():
    items = build_items(_runs([mib(64), kib(1)]), None)
    assert [item.size for item in items] == [mib(64), kib(1)]
    assert [item.name for item in items] == ["t0", "t1"]


# -- stripe_items --------------------------------------------------------------


def test_stripe_items_lpt_balances_bytes():
    items = _runs([100, 90, 80, 30, 20, 10, 10])
    queues = stripe_items(items, 3)
    loads = [sum(item.size for item in queue) for queue in queues]
    # LPT on this multiset: 100+10+10, 90+20, 80+30.
    assert sorted(loads) == [110, 110, 120]
    # Largest-first within each lane.
    for queue in queues:
        sizes = [item.size for item in queue]
        assert sizes == sorted(sizes, reverse=True)


def test_stripe_items_is_deterministic_on_ties():
    items = _runs([64] * 8)
    first = stripe_items(items, 3)
    second = stripe_items(items, 3)
    assert [[i.name for i in q] for q in first] == \
        [[i.name for i in q] for q in second]


# -- IngestLimiter -------------------------------------------------------------


def test_ingest_limiter_caps_and_queues():
    cluster = PaperCluster(seed=1, ampere_nodes=0, start_daemon=False)
    limiter = IngestLimiter(cluster.env, capacity=2)
    a, b, c = limiter.request("x"), limiter.request("x"), limiter.request("x")
    assert a.triggered and b.triggered and not c.triggered
    assert limiter.in_use == 2
    limiter.release(a)
    assert c.triggered
    limiter.release(b)
    limiter.release(c)
    assert limiter.in_use == 0


def test_ingest_limiter_grants_fair_share_across_owners():
    cluster = PaperCluster(seed=1, ampere_nodes=0, start_daemon=False)
    limiter = IngestLimiter(cluster.env, capacity=2)
    a1, a2 = limiter.request("a"), limiter.request("a")
    a3 = limiter.request("a")  # queued first...
    b1 = limiter.request("b")  # ...but b holds nothing
    assert not a3.triggered and not b1.triggered
    limiter.release(a1)
    # Owner-fair: the freed slot goes to b (zero held) over a's FIFO head.
    assert b1.triggered and not a3.triggered
    limiter.release(a2)
    assert a3.triggered


def test_ingest_limiter_cancel_queued_and_held():
    cluster = PaperCluster(seed=1, ampere_nodes=0, start_daemon=False)
    limiter = IngestLimiter(cluster.env, capacity=1)
    held = limiter.request("a")
    queued = limiter.request("b")
    queued.cancel()  # withdrawn from the wait queue
    follower = limiter.request("c")
    held.cancel()  # held token: cancel == release
    assert follower.triggered
    assert limiter.in_use == 1


# -- the engine over a real datapath -------------------------------------------


class _Rig:
    """A live GPU -> PMem datapath with *num_qps* server-side QPs."""

    def __init__(self, sizes, num_qps, seed=7):
        self.cluster = PaperCluster(seed=seed, ampere_nodes=0,
                                    start_daemon=False)
        self.sizes = sizes
        cluster = self.cluster

        def setup(env):
            total = sum(sizes)
            region = cluster.server.pmem_devdax.alloc(total, tag="rig")
            region_mr = yield from cluster.server.nic.register_mr(region)
            gpu = cluster.volta.gpus[0]
            runs = []
            offset = 0
            for index, size in enumerate(sizes):
                src = gpu.alloc(size, tag=f"rig-t{index}")
                mr = yield from cluster.volta.nic.register_mr(src)
                runs.append(WorkItem(f"t{index}", offset, mr.addr, mr.rkey,
                                     size, region_mr))
                offset += size
            server_qps = []
            for _lane in range(num_qps):
                _client_qp, server_qp = yield from connect(
                    env, cluster.volta.nic, cluster.server.nic)
                server_qps.append(server_qp)
            return runs, server_qps

        self.runs, self.qps = cluster.run(setup)

    def pull(self, chunk_bytes, **kwargs):
        engine = TransferEngine(self.cluster.env, self.qps, **kwargs)
        items = build_items(self.runs, chunk_bytes)
        holder = {}

        def scenario(env):
            holder["bytes"] = yield from engine.pull(items, "rig")

        self.cluster.run(scenario)
        return engine, holder["bytes"]


def test_engine_moves_every_byte_and_counts_wrs():
    sizes = [kib(256), kib(64), kib(7)]
    rig = _Rig(sizes, num_qps=2)
    engine, moved = rig.pull(depth=4, chunk_bytes=kib(64))
    assert moved == sum(sizes)
    assert engine.posted_wrs == 4 + 1 + 1
    nic = rig.cluster.server.nic
    assert nic.wrs_posted == engine.posted_wrs
    assert nic.wrs_completed == engine.posted_wrs
    assert nic.wrs_failed == 0
    assert nic.wrs_inflight == 0


def test_engine_peak_inflight_bounded_by_credits():
    rig = _Rig([kib(512)] * 2, num_qps=2)
    engine, _moved = rig.pull(depth=3, chunk_bytes=kib(16))
    # 64 items over 2 lanes, never more than depth per lane in flight.
    assert engine.posted_wrs == 64
    assert engine.peak_inflight <= 3 * 2
    # The sliding window actually fills its credits.
    assert engine.peak_inflight == 3 * 2


def test_engine_sliding_window_refills_each_credit_at_once():
    # Per-tensor WRs, largest first: six 512 KiB stragglers, then
    # eighteen 16 KiB tensors, four credits on one QP.  A returned
    # credit posts the next WR at once, so the small tensors ride in
    # behind the stragglers; a barrier between windows of four idles
    # the drained slots and takes 620,217 ns.  The simulation is
    # deterministic, so the sliding lane's time is pinned exactly.
    sizes = [kib(512), kib(16), kib(16), kib(16)] * 6
    rig = _Rig(sizes, num_qps=1)
    start = rig.cluster.env.now
    engine, moved = rig.pull(depth=4, chunk_bytes=None)
    assert moved == sum(sizes)
    assert engine.posted_wrs == len(sizes)
    assert rig.cluster.env.now - start == 602_217


def test_engine_stream_limit_caps_global_inflight():
    rig = _Rig([kib(512)] * 2, num_qps=4)
    limiter = IngestLimiter(rig.cluster.env, capacity=2)
    engine, moved = rig.pull(depth=8, chunk_bytes=kib(32),
                             stream_limit=limiter)
    assert moved == kib(512) * 2
    assert engine.peak_inflight <= 2
    assert limiter.in_use == 0  # every token returned


def test_engine_abort_flushes_every_qp_in_stripe_set():
    # Satellite 3: one failing WR must retire the in-flight WRs on ALL
    # lanes of the stripe set, not just the lane that saw the error.
    rig = _Rig([kib(256)] * 4, num_qps=4)
    nic = rig.cluster.server.nic
    state = {"reads": 0}

    def hook(kind, label, length):
        state["reads"] += 1
        if state["reads"] == 6:
            return WorkRequestError(f"{label}: injected")
        return None

    nic.fault_hook = hook
    epochs_before = [qp.epoch for qp in rig.qps]
    with pytest.raises(ReproError):
        rig.pull(depth=2, chunk_bytes=kib(32))
    for qp, before in zip(rig.qps, epochs_before):
        assert qp.epoch > before, "a lane of the stripe set was not flushed"


def test_engine_abort_rescues_hung_wrs_on_sibling_lanes():
    rig = _Rig([kib(256)] * 4, num_qps=4)
    nic = rig.cluster.server.nic
    state = {"reads": 0}

    def hook(kind, label, length):
        state["reads"] += 1
        if state["reads"] == 3:
            return "hang"  # a lost completion on one lane
        if state["reads"] == 9:
            return WorkRequestError(f"{label}: injected")
        return None

    nic.fault_hook = hook
    # Without the stripe-set flush the hung WR would park forever and
    # the run would deadlock instead of raising.
    with pytest.raises(ReproError):
        rig.pull(depth=2, chunk_bytes=kib(32))
    assert nic.wrs_inflight == 0


# -- daemon-level behaviour ----------------------------------------------------


def _segments(size):
    return -(-size // ENGINE_CHUNK_BYTES)


def test_striped_checkpoint_restore_roundtrip_bit_exact():
    cluster = PaperCluster(seed=40, client_num_qps=4,
                           daemon_kwargs={"max_pmem_streams": 4})

    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        model = session.model
        assert len(session.qps) == 4
        model.update_step(1)
        reply = yield from session.checkpoint(1)
        # Satellite 2: the DONE reply reports the bytes that crossed.
        assert reply["bytes_pulled"] == model.total_bytes
        for tensor in model.tensors:
            tensor.set_step(99)
        step = yield from session.restore()
        bad = [tensor.name for tensor in model.tensors
               if not tensor.content().equals(tensor.expected_content(1))]
        return step, bad

    step, bad = cluster.run(scenario)
    assert step == 1
    assert bad == []
    entry = cluster.daemon.model_map["alexnet"]
    assert len(entry.qps) == 4  # REGISTER negotiated the stripe set
    nic = cluster.server.nic
    assert nic.wrs_failed == 0
    assert nic.wrs_inflight == 0


def test_incremental_checkpoint_posts_only_dirty_wrs():
    # The per-WR CPU charge follows WRs actually posted: a head-only
    # dedup dump posts (and pays for) one WR per tensor piece of the
    # chunks the head dirtied, not one WQE per model layer.
    cluster = PaperCluster(seed=41)
    head = ["fc.weight", "fc.bias"]

    def scenario(env):
        session = yield from cluster.portus_register(
            "resnet50", dedup=True, chunk_bytes=mib(4))
        model = session.model
        model.update_step(1)
        yield from session.checkpoint(1)
        nic = cluster.server.nic
        posted_before = nic.wrs_posted
        model.update_step(2, only=head)
        reply = yield from session.checkpoint(2)
        return nic.wrs_posted - posted_before, reply, model

    posted, reply, model = cluster.run(scenario)
    spans = cluster.daemon.model_map["resnet50"].meta.layout.spans()
    dirtied = [span for span in spans
               if any(piece.tensor in head for piece in span.pieces)]
    assert reply["chunks_new"] == len(dirtied)
    assert posted == sum(len(span.pieces) for span in dirtied)
    assert posted < len(model.tensors)  # far fewer than one per layer


def test_full_checkpoint_wr_count_includes_segmentation():
    cluster = PaperCluster(seed=42)

    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        session.model.update_step(1)
        nic = cluster.server.nic
        posted_before = nic.wrs_posted
        yield from session.checkpoint(1)
        expected = sum(_segments(t.size_bytes)
                       for t in session.model.tensors)
        return nic.wrs_posted - posted_before, expected

    posted, expected = cluster.run(scenario)
    assert posted == expected


def test_restore_reply_reports_bytes_pushed():
    cluster = PaperCluster(seed=43)

    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        model = session.model
        model.update_step(1)
        yield from session.checkpoint(1)
        reply = yield from session._call(
            lambda: protocol.do_restore(model.name),
            protocol.OP_RESTORE_DONE)
        return reply, model.total_bytes

    reply, total = cluster.run(scenario)
    assert reply["bytes_pushed"] == total
    assert cluster.obs.metrics.value("daemon.bytes_pushed") == total


def test_unknown_engine_option_is_rejected():
    # The engine policy is two daemon keywords; a typo, the options that
    # once selected the barrier-window lane (the sliding window is the
    # only posting lane) and the old ``engine`` dict are all refused.
    for option in ("typo", "pipelined", "largest_first", "engine"):
        with pytest.raises(TypeError, match=option):
            PaperCluster(seed=44, daemon_kwargs={option: 1})
