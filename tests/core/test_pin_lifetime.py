"""MR lifetime end to end: the daemon, the client, the chunk store and
the fault paths all pin through the NICs' pin tables, so an MR lives
exactly as long as the memory it covers and the process that pinned it."""

import pytest

from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.errors import (ModelAlreadyRegistered, ReproError, RkeyViolation,
                          TenantQuotaExceeded, WorkRequestError)
from repro.faults import FaultInjector
from repro.harness.cluster import PaperCluster
from repro.pmem.chunks import ChunkStore
from repro.pmem.fsck import fsck
from repro.rdma import connect
from repro.rdma.nic import MR_PIN_NS_PER_BYTE, MR_REGISTER_LATENCY_NS
from repro.units import kib, secs, usecs

CHUNK = kib(256)
SPECS = [TensorSpec("backbone.weight", (256, 1024)),
         TensorSpec("backbone.bias", (1024,)),
         TensorSpec("head.weight", (64, 1024)),
         TensorSpec("head.bias", (64,))]
HEAD = ["head.weight", "head.bias"]


def count_registrations(monkeypatch, nic):
    """Patch *nic* to count raw registrations; returns the count list."""
    calls = []
    raw = nic.register_mr

    def counting(allocation):
        calls.append(allocation)
        return (yield from raw(allocation))

    monkeypatch.setattr(nic, "register_mr", counting)
    return calls


def remote_read(cluster, rkey, addr, length=64):
    """Process: a one-sided READ from the compute node against the
    storage NIC's *rkey* (raises what the completion raises)."""
    env = cluster.env
    local = cluster.volta.dram.alloc(length)
    [local_mr] = yield from cluster.volta.nic.pin_all([local])
    qp, _server_qp = yield from connect(env, cluster.volta.nic,
                                        cluster.server.nic)
    try:
        yield qp.read(local_mr, 0, rkey, addr, length)
    finally:
        local.free()


def test_restart_loop_keeps_both_nics_mr_counts_flat(monkeypatch):
    """Three daemon restarts, each followed by a re-register on the same
    client: the dead daemon's slot MRs die with it and the job's GPU
    memory stays pinned once (the parent grew 2->8 and 62->248)."""
    cluster = PaperCluster(seed=1, ampere_nodes=0)
    storage, compute = cluster.server.nic, cluster.volta.nic
    session = cluster.run(lambda env: cluster.portus_register("resnet18"))
    counts = (storage.registered_mrs, compute.registered_mrs)
    assert counts == (2, len(session.model.tensors))
    client = cluster.portus_client()
    storage_pins = count_registrations(monkeypatch, storage)
    compute_pins = count_registrations(monkeypatch, compute)
    for restart in range(1, 4):
        cluster.restart_daemon()
        cluster.run(lambda env: client.register(session.model))
        assert (storage.registered_mrs, compute.registered_mrs) == counts
        # The new daemon re-pins its two slots; the job pins nothing.
        assert (len(storage_pins), len(compute_pins)) == (2 * restart, 0)


def test_a_restarted_daemon_repins_before_its_clients_reattach():
    """The successor re-pins every recovered slot model's regions at
    once: the first re-attach waits at most one slot registration, and
    the later ones register nothing and wait for nothing."""
    cluster = PaperCluster(seed=1, ampere_nodes=0, tracing=True)
    names = ("alexnet", "resnet18", "resnet34")
    sessions = cluster.run(lambda env: _register_all(cluster, names))
    client = cluster.portus_client()
    tracer = cluster.obs.tracer

    def reattach_all(env):
        for session in sessions:
            yield from client.register(session.model)

    def reattach_spans():
        start = len(tracer.spans)
        cluster.run(reattach_all)
        return [span for span in tracer.spans[start:]
                if span.name == "daemon.REGISTER"]

    # On a live daemon a re-attach pins nothing: its dispatch cost.
    live = [span.duration_ns for span in reattach_spans()]
    cluster.restart_daemon()
    restarted = cluster.env.now
    spans = reattach_spans()
    repins = [span for span in tracer.named("mr.register")
              if span.start_ns >= restarted]
    assert len(repins) == 2 * len(names)
    assert {(span.start_ns, span.trace_id) for span in repins} == \
        {(restarted, None)}
    regions = [region for name in names for region in
               cluster.daemon.model_map[name].meta.layout.pinned_regions()]
    one = MR_REGISTER_LATENCY_NS + int(max(region.size for region in regions)
                                       * MR_PIN_NS_PER_BYTE)
    assert spans[0].duration_ns <= live[0] + one
    assert [span.duration_ns for span in spans[1:]] == live[1:]


def _register_all(cluster, names):
    sessions = []
    for gpu, name in enumerate(names):
        session = yield from cluster.portus_register(name, gpu=gpu)
        sessions.append(session)
    return sessions


def test_a_daemon_crashed_mid_registration_leaves_no_mr(monkeypatch):
    """A crash while a REGISTER's registrations are in flight cancels
    them: none completes over the dead daemon's memory."""
    cluster = PaperCluster(seed=1, ampere_nodes=0)
    storage = cluster.server.nic
    raw = storage.register_mr

    def crash_soon(allocation):
        monkeypatch.setattr(storage, "register_mr", raw)

        def kill(env):
            yield env.timeout(usecs(10))
            cluster.kill_daemon()

        cluster.env.process(kill(cluster.env))
        return (yield from raw(allocation))

    monkeypatch.setattr(storage, "register_mr", crash_soon)

    def scenario(env):
        with pytest.raises(ReproError):
            yield from cluster.portus_register("alexnet")
        yield env.timeout(secs(1))

    cluster.run(scenario)
    assert storage.registered_mrs == 0


def test_a_daemon_dead_before_its_register_ran_pins_nothing():
    """A REGISTER dispatched just before the daemon dies never starts its
    handler, so nothing pins the dead daemon's slots."""
    cluster = PaperCluster(seed=1, ampere_nodes=0, tracing=True)
    session = cluster.run(lambda env: cluster.portus_register("alexnet"))
    storage = cluster.server.nic

    def scenario(env):
        def kill_mid_dispatch(env):
            # Wait for the re-attach's dispatch to take its worker core.
            while not [span for span in cluster.obs.tracer.named(
                    "daemon.REGISTER") if span.end_ns is None]:
                yield env.timeout(usecs(1))
            cluster.kill_daemon()

        env.process(kill_mid_dispatch(env))
        with pytest.raises(ReproError):
            yield from cluster.portus_client().register(session.model)
        yield env.timeout(secs(1))

    cluster.run(scenario)
    assert storage.registered_mrs == 0


def test_a_refused_register_releases_its_pins():
    """Neither a quota refusal nor a cross-tenant refusal leaves the
    job's tensors pinned (no session is left to release them), nor the
    connection and QP the refused attach built."""
    cluster = PaperCluster(seed=19, ampere_nodes=0)
    compute = cluster.volta.nic

    def live_transport():
        """(daemon connections, live client QPs)."""
        return (len(cluster.daemon._conns),
                sum(1 for qp in compute.qps if qp.error is None))

    cluster.tenants.register_tenant("tiny", byte_quota=1)

    def scenario(env):
        with pytest.raises(TenantQuotaExceeded):
            yield from cluster.portus_register("alexnet", tenant="tiny")
        yield env.timeout(usecs(100))  # the close reaches the daemon
        assert compute.registered_mrs == 0
        assert live_transport() == (0, 0)
        yield from cluster.portus_register("alexnet", gpu=1, tenant="acme")
        # The owner's process dies; its model stays acme's.
        FaultInjector(env, cluster).kill_client("volta")
        yield env.timeout(usecs(100))
        assert compute.registered_mrs == 0
        assert live_transport() == (0, 0)
        with pytest.raises(ModelAlreadyRegistered):
            yield from cluster.portus_register("alexnet", tenant="evil")
        yield env.timeout(usecs(100))
        assert live_transport() == (0, 0)
        return True

    assert cluster.run(scenario)
    assert compute.registered_mrs == 0


def test_a_dead_daemons_slot_rkey_is_refused():
    cluster = PaperCluster(seed=1, ampere_nodes=0)
    cluster.run(lambda env: cluster.portus_register("alexnet"))
    region = cluster.daemon.model_map["alexnet"].meta.layout.regions[0]
    rkey = region.mr.rkey
    cluster.kill_daemon()
    assert region.mr is None

    def scenario(env):
        with pytest.raises(RkeyViolation):
            yield from remote_read(cluster, rkey, region.addr)
        return True

    assert cluster.run(scenario)


def test_reregistering_on_a_live_daemon_registers_no_mr(monkeypatch):
    cluster = PaperCluster(seed=1, ampere_nodes=0)
    session = cluster.run(lambda env: cluster.portus_register("alexnet"))
    storage_pins = count_registrations(monkeypatch, cluster.server.nic)
    compute_pins = count_registrations(monkeypatch, cluster.volta.nic)
    again = cluster.run(
        lambda env: cluster.portus_client().register(session.model))
    assert again.tensor_infos == session.tensor_infos
    assert storage_pins == compute_pins == []


def test_kill_client_unpins_the_jobs_tensors():
    cluster = PaperCluster(seed=1, ampere_nodes=0)
    session = cluster.run(lambda env: cluster.portus_register("alexnet"))
    before = cluster.volta.nic.registered_mrs
    FaultInjector(cluster.env, cluster).kill_client("volta")
    assert cluster.volta.nic.registered_mrs == \
        before - len(session.model.tensors)
    assert all(tensor.allocation.mr is None
               for tensor in session.model.tensors)


# -- the chunk layout ---------------------------------------------------------------


def _dedup_cluster():
    cluster = PaperCluster(seed=7, ampere_nodes=0)
    instance = ModelInstance.materialize("m", SPECS, cluster.volta.gpus[0],
                                         model_seed=77)
    return cluster, instance


def _dumps(session, steps):
    """Process: a full dump, then head-only dumps up to *steps*; returns
    how many chunks they stored."""
    stored = 0
    for step in range(1, steps + 1):
        session.model.update_step(step, only=None if step == 1 else HEAD)
        reply = yield from session.checkpoint(step)
        stored += reply["chunks_new"]
    return stored


def _live_chunk_extents(cluster):
    store = ChunkStore.attach(cluster.portus_pool)
    return [store.allocation_of(entry) for entry in store.entries()
            if entry.refcount > 0]


def _spares(cluster):
    store = ChunkStore.attach(cluster.portus_pool)
    return [entry for entry in store.entries() if entry.refcount == 0]


def test_the_store_pins_exactly_its_live_chunks():
    cluster, instance = _dedup_cluster()
    nic = cluster.server.nic
    before = nic.registered_mrs

    def scenario(env):
        session = yield from cluster.portus_register(
            instance, dedup=True, chunk_bytes=CHUNK)
        return (yield from _dumps(session, 4))

    stored = cluster.run(scenario)
    live = _live_chunk_extents(cluster)
    store = ChunkStore.attach(cluster.portus_pool)
    spares = [store.allocation_of(entry) for entry in _spares(cluster)]
    # Head-only dumps displace the head chunks of the versions they
    # overwrite; each stays a spare, allocated and pinned, for the next
    # dump's head (one per new chunk), so the store holds fewer chunks
    # than the dumps stored and every one of them keeps its MR.
    assert len(spares) == 2
    assert len(live) + len(spares) < stored
    assert nic.registered_mrs == before + len(live) + len(spares)
    assert all(extent.mr is not None and extent.mr.valid
               for extent in live + spares)


def test_a_chunk_freed_by_unref_refuses_its_rkey():
    cluster, instance = _dedup_cluster()

    def scenario(env):
        session = yield from cluster.portus_register(
            instance, dedup=True, chunk_bytes=CHUNK)
        yield from _dumps(session, 3)
        store = ChunkStore.attach(cluster.portus_pool)
        # Step 3 displaced step 1's head chunks, which stay as spares:
        # their memory is still allocated, so their MRs live on.
        extents = [store.allocation_of(entry) for entry in store.entries()]
        assert _spares(cluster)
        pinned = [(extent, extent.mr.rkey) for extent in extents]
        # UNREGISTER unrefs both versions to zero and frees the spares:
        # every chunk's memory is freed, and its MR with it.
        yield from session.unregister()
        assert all(extent.freed for extent, _rkey in pinned)
        for extent, rkey in pinned:
            with pytest.raises(RkeyViolation):
                yield from remote_read(cluster, rkey, extent.addr)
        return True

    assert cluster.run(scenario)


def test_a_spare_keeps_its_mr_and_is_never_a_hit(monkeypatch):
    """Step 3 displaces step 1's head chunks: each stays a spare, still
    allocated and pinned (its rkey reads), yet no lookup finds it.  A
    dump whose head returns to step 1's bytes names the spares' digests
    and still pulls those bytes, each into the spare it names, and
    registers nothing."""
    cluster, instance = _dedup_cluster()

    def scenario(env):
        session = yield from cluster.portus_register(
            instance, dedup=True, chunk_bytes=CHUNK)
        yield from _dumps(session, 3)
        store = ChunkStore.attach(cluster.portus_pool)
        spares = {entry.digest: entry.addr for entry in _spares(cluster)}
        assert len(spares) == 2
        for digest, addr in spares.items():
            assert store.lookup(digest) is None
            extent = store.allocation_of(store.lookup(digest, spares=True))
            assert not extent.freed and extent.mr.valid
            yield from remote_read(cluster, extent.mr.rkey, addr)
        pins = count_registrations(monkeypatch, cluster.server.nic)
        session.model.update_step(1, only=HEAD)
        reply = yield from session.checkpoint(4)
        return spares, reply, store, pins

    spares, reply, store, storage_pins = cluster.run(scenario)
    assert reply["chunks_new"] == reply["chunks_recycled"] == 2
    assert reply["bytes_pulled"] > 0
    assert {digest: store.lookup(digest).addr for digest in spares} == spares
    assert storage_pins == []
    # Step 4's commit displaced step 2's head chunks in turn.
    assert len(_spares(cluster)) == 2


def test_a_restarted_daemon_registers_each_persisted_spare_once(
        monkeypatch):
    """Spares persist, their MRs die with the daemon: after a restart
    each head-only dump takes the spares the previous commit parked,
    registering each the first time a pull lands in it and never again,
    so once the rotation comes back to a spare it re-pinned, a dump
    emits no ``mr.register`` span."""
    cluster = PaperCluster(seed=7, ampere_nodes=0, tracing=True)
    instance = ModelInstance.materialize("m", SPECS, cluster.volta.gpus[0],
                                         model_seed=77)

    def dump(env):
        session = yield from cluster.portus_register(
            instance, dedup=True, chunk_bytes=CHUNK)
        yield from _dumps(session, 3)

    cluster.run(dump)
    persisted = sorted(entry.addr for entry in _spares(cluster))
    assert len(persisted) == 2
    cluster.restart_daemon()
    registered = count_registrations(monkeypatch, cluster.server.nic)

    def dumps(env):
        session = yield from cluster.portus_client().register(
            instance, dedup=True, chunk_bytes=CHUNK)
        rounds = []
        for step in range(4, 8):
            instance.update_step(step, only=HEAD)
            start, pinned = env.now, len(registered)
            reply = yield from session.checkpoint(step)
            spans = [span for span in cluster.obs.tracer.named("mr.register")
                     if span.start_ns >= start]
            rounds.append((reply["chunks_recycled"],
                           sorted(a.addr for a in registered[pinned:]),
                           len(spans)))
        return rounds

    rounds = cluster.run(dumps)
    assert [recycled for recycled, _addrs, _spans in rounds] == [2] * 4
    assert rounds[0][1] == persisted
    addrs = [addr for _recycled, pinned, _spans in rounds for addr in pinned]
    assert len(addrs) == len(set(addrs)) == 6
    assert [spans for _recycled, _addrs, spans in rounds] == [2, 2, 2, 0]


def _new_head_digests(cluster):
    """The digests the newest version holds and the other does not: the
    head chunks its head-only dump wrote."""
    layout = cluster.daemon.model_map["m"].meta.layout
    newest = layout.meta.read_flags().newest_done()
    older = set(layout.read_manifest(1 - newest))
    return [digest for digest in layout.read_manifest(newest)
            if digest not in older]


def test_a_failed_pull_into_a_spare_gives_it_back(monkeypatch):
    """A WR of a dump that took spares fails: the abort returns them to
    the spare set — still allocated and pinned, not freed — fsck stays
    clean, and the next dump takes the same spares and registers
    nothing."""
    cluster, instance = _dedup_cluster()
    nic = cluster.server.nic

    def hook(kind, label, _length):
        return WorkRequestError(f"{label}: injected {kind} error")

    def scenario(env):
        session = yield from cluster.portus_register(
            instance, dedup=True, chunk_bytes=CHUNK)
        yield from _dumps(session, 3)
        spares = sorted(entry.addr for entry in _spares(cluster))
        instance.update_step(4, only=HEAD)
        nic.fault_hook = hook
        try:
            with pytest.raises(ReproError):
                yield from session.checkpoint(4)
        finally:
            nic.fault_hook = None
        after = sorted(entry.addr for entry in _spares(cluster))
        report = fsck(cluster.portus_pool)
        pins = count_registrations(monkeypatch, nic)
        reply = yield from session.checkpoint(4)
        return spares, after, report, reply, pins

    spares, after, report, reply, pins = cluster.run(scenario)
    assert len(spares) == 2 and after == spares
    assert report.clean, report.describe()
    assert report.checked["spares"] == 2
    assert cluster.obs.metrics.value("daemon.checkpoints_aborted") == 1
    store = ChunkStore.attach(cluster.portus_pool)
    assert reply["chunks_recycled"] == 2
    assert sorted(store.allocation_of(store.lookup(digest)).addr
                  for digest in _new_head_digests(cluster)) == spares
    assert pins == []


def test_a_dedup_restore_registers_nothing(monkeypatch):
    cluster, instance = _dedup_cluster()

    def dump(env):
        session = yield from cluster.portus_register(
            instance, dedup=True, chunk_bytes=CHUNK)
        yield from _dumps(session, 3)
        return session

    session = cluster.run(dump)
    storage_pins = count_registrations(monkeypatch, cluster.server.nic)
    compute_pins = count_registrations(monkeypatch, cluster.volta.nic)
    instance.update_step(0)

    def restore(env):
        return (yield from session.restore())

    assert cluster.run(restore) == 3
    assert storage_pins == compute_pins == []
    assert not [tensor.name for tensor in instance.tensors
                if not tensor.content().equals(tensor.expected_content(
                    3 if tensor.name in HEAD else 1))]


def test_drop_model_returns_both_nics_to_their_counts():
    cluster, instance = _dedup_cluster()
    before = (cluster.server.nic.registered_mrs,
              cluster.volta.nic.registered_mrs)

    def scenario(env):
        session = yield from cluster.portus_register(
            instance, dedup=True, chunk_bytes=CHUNK)
        yield from _dumps(session, 3)
        yield from session.unregister()

    cluster.run(scenario)
    assert (cluster.server.nic.registered_mrs,
            cluster.volta.nic.registered_mrs) == before


def test_a_daemon_that_dies_mid_register_leaves_no_pin(monkeypatch):
    """A crash inside REGISTER's first registration cancels that one and
    the rest of its set, which is queued before any starts."""
    cluster = PaperCluster(seed=1, ampere_nodes=0)
    storage = cluster.server.nic
    raw = storage.register_mr

    def dying(allocation):
        monkeypatch.setattr(storage, "register_mr", raw)
        cluster.kill_daemon()
        return (yield from raw(allocation))

    monkeypatch.setattr(storage, "register_mr", dying)

    def scenario(env):
        try:
            yield from cluster.portus_register("alexnet")
        except ReproError:
            pass
        # Let the dead daemon's REGISTER handler run to its end.
        yield env.timeout(secs(1))

    cluster.run(scenario)
    assert storage.registered_mrs == 0


def test_concurrent_pins_of_a_shared_chunk_keep_one_mr():
    """Two fine-tunes of one base share chunks; after a daemon restart
    both restores pin the shared extents at once, and each extent must
    still end with exactly one MR."""
    cluster = PaperCluster(seed=7, ampere_nodes=0)
    instances = [ModelInstance.materialize(
        name, SPECS, cluster.volta.gpus[0], model_seed=77)
        for name in ("a", "b")]

    def dump(env):
        for instance in instances:
            session = yield from cluster.portus_register(
                instance, dedup=True, chunk_bytes=CHUNK)
            yield from _dumps(session, 2)

    cluster.run(dump)
    cluster.restart_daemon()

    def restore_both(env):
        client = cluster.portus_client()
        sessions = []
        for instance in instances:
            session = yield from client.register(instance, dedup=True,
                                                 chunk_bytes=CHUNK)
            sessions.append(session)
        restores = [env.process(session.restore()) for session in sessions]
        for restore in restores:
            yield restore

    cluster.run(restore_both)
    pinned = [extent for extent in _live_chunk_extents(cluster)
              if extent.mr is not None]
    # The restored versions' chunks: the shared backbone and each
    # model's head at step 2.
    assert len(pinned) == 6
    assert cluster.server.nic.registered_mrs == len(pinned)
