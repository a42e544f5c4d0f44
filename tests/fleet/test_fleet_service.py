"""The sharded fleet service, end to end.

Covers the four fleet subsystems against live clusters:

* tenant quotas (bytes) and bandwidth token buckets, both at the unit
  level and enforced by a real daemon through the wire protocol;
* admission control: bounded inflight ingests with typed rejects the
  client retry loop absorbs (honouring ``retry_after_ns``);
* the N-storage-node × M-client topology, including the
  ``storage_nodes=1`` degenerate case that is the entire pre-fleet
  test suite's world;
* live cross-shard migration with bit-exact restore from the
  destination pool.
"""

import random

import pytest

from repro.dnn.gpt import shard_gpt, tiny_gpt
from repro.dnn.layout import gpt_layout
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.core.client import PortusClient
from repro.core.daemon import PortusDaemon
from repro.core.group import register_group as bind_group
from repro.core.index import ChunkLayout, ModelTable
from repro.core.repack import migrate_model
from repro.errors import (AdmissionReject, GroupError, GroupNotFound,
                          MigrationIncomplete, ModelAlreadyRegistered,
                          NoValidCheckpoint, PmemError, ReproError,
                          TenantQuotaExceeded)
from repro.core.retry import RetryPolicy
from repro.fleet import (AdmissionController, FleetClient, PlacementRing,
                         TenantRegistry, generate_tenants)
from repro.harness.cluster import PaperCluster
from repro.pmem import PmemPool
from repro.pmem.chunks import ChunkStore
from repro.pmem.fsck import fsck
from repro.units import kib, msecs, secs, usecs

SPECS = [TensorSpec("block.weight", (256, 256)),
         TensorSpec("block.bias", (256,)),
         TensorSpec("head.weight", (16, 256))]
SPECS_BYTES = sum(spec.size_bytes for spec in SPECS)


# -- tenant registry (unit) ---------------------------------------------------


def test_byte_quota_enforced_and_released():
    reg = TenantRegistry()
    reg.register_tenant("acme", byte_quota=1000)
    reg.charge_bytes("acme", "m1", 600)
    with pytest.raises(TenantQuotaExceeded):
        reg.charge_bytes("acme", "m2", 600)
    assert reg.release_bytes("acme", "m1") == 600
    reg.charge_bytes("acme", "m2", 600)  # freed budget is reusable
    assert reg.charged("acme") == 600


def test_double_charge_same_model_is_a_bug():
    reg = TenantRegistry()
    reg.charge_bytes("acme", "m1", 10)
    with pytest.raises(ReproError):
        reg.charge_bytes("acme", "m1", 10)


def test_bandwidth_bucket_rejects_with_exact_retry_after():
    reg = TenantRegistry()
    reg.register_tenant("acme", bandwidth_bps=1_000_000,
                        burst_bytes=1_000_000)
    # A dump larger than the burst is still admitted (the bucket goes
    # negative: the *average* rate is what is bounded) ...
    reg.reserve_bandwidth("acme", 1_500_000, now_ns=0)
    # ... but the next dump must wait until the bucket refills past
    # zero: 500_001 bytes of deficit at 1 MB/s, to the nanosecond.
    with pytest.raises(AdmissionReject) as err:
        reg.reserve_bandwidth("acme", 500_000, now_ns=0)
    assert err.value.retry_after_ns == 500_001_000
    # After exactly that wait the same reservation is admitted.
    reg.reserve_bandwidth("acme", 500_000,
                          now_ns=err.value.retry_after_ns)


def test_unregistered_tenant_is_unlimited():
    reg = TenantRegistry()
    reg.charge_bytes("walkin", "m1", 1 << 40)
    reg.reserve_bandwidth("walkin", 1 << 40, now_ns=0)


# -- admission controller (unit) ----------------------------------------------


def test_admission_bounds_inflight_and_escalates_retry_after():
    ctl = AdmissionController(max_ingests=2, retry_after_ns=usecs(100))
    ctl.enter("ingest")
    ctl.enter("ingest")
    with pytest.raises(AdmissionReject) as first:
        ctl.enter("ingest")
    with pytest.raises(AdmissionReject) as second:
        ctl.enter("ingest")
    # Consecutive rejects back the caller off harder.
    assert second.value.retry_after_ns > first.value.retry_after_ns
    ctl.exit("ingest")
    ctl.enter("ingest")  # a freed slot admits again
    assert ctl.inflight("ingest") == 2
    snap = ctl.snapshot()
    assert snap["ingest"]["rejects"] == 2


def test_admission_unbalanced_exit_is_a_bug():
    ctl = AdmissionController()
    with pytest.raises(ReproError):
        ctl.exit("ingest")


# -- the degenerate case ------------------------------------------------------


def test_single_shard_fleet_is_the_classic_cluster():
    cluster = PaperCluster(seed=11, ampere_nodes=0, storage_nodes=1)
    assert len(cluster.shards) == 1
    assert cluster.shards[0].daemon is cluster.daemon
    assert cluster.shards[0].pool is cluster.portus_pool
    fleet = FleetClient(cluster)
    assert fleet.ring.nodes == ["server"]

    def scenario(env):
        session = yield from fleet.register("acme", "resnet18")
        session.model.update_step(1)
        yield from session.checkpoint(1)
        session.model.update_step(0)
        return (yield from session.restore())

    assert cluster.run(scenario) == 1


# -- N x M topology -----------------------------------------------------------


def test_fleet_spreads_tenants_and_restores_bit_exactly():
    cluster = PaperCluster(seed=13, ampere_nodes=2, storage_nodes=3)
    fleet = FleetClient(cluster)
    tenants = generate_tenants(8, seed=3)
    sessions = []

    def setup(env):
        for spec in tenants:
            session = yield from fleet.register_spec(spec)
            sessions.append((spec, session))

    cluster.run(setup)
    used = {shard for shard, keys in fleet.placements().items() if keys}
    assert len(used) >= 2, f"8 tenants all landed on one shard: {used}"
    # Quota accounting followed each registration to its home daemon.
    for spec, session in sessions:
        assert cluster.tenants.charged(spec.name) > 0

    def work(env):
        for step in (1, 2):
            for spec, session in sessions:
                session.model.update_step(step)
                yield from session.checkpoint(step)

    cluster.run(work)

    def verify(env):
        for spec, session in sessions:
            session.model.update_step(0)
            restored = yield from session.restore()
            assert restored == 2, f"{spec.name} restored {restored}"
            bad = [t.name for t in session.model.tensors
                   if not t.content().equals(t.expected_content(2))]
            assert bad == [], f"{spec.name} torn: {bad}"

    cluster.run(verify)
    for shard in cluster.shards:
        assert fsck(shard.pool).clean


def test_one_shards_errors_stay_out_of_its_siblings_health():
    """Both daemons count into one registry; the ``shard=`` label keeps
    a fault burst on shard 0 out of shard 1's health counters."""
    cluster = PaperCluster(seed=17, ampere_nodes=0, storage_nodes=2)

    def scenario(env):
        for index, shard in enumerate(cluster.shards):
            instance = cluster.materialize("alexnet", gpu=index,
                                           instance_name=f"m{index}")
            session = yield from cluster.portus_client(
                shard=index).register(instance)
            if index == 0:
                # Nothing checkpointed yet: every restore is refused.
                for _ in range(3):
                    with pytest.raises(NoValidCheckpoint):
                        yield from session.restore()

    cluster.run(scenario)
    busy, quiet = (shard.daemon.health_snapshot()["counters"]
                   for shard in cluster.shards)
    assert busy["errors"] == 3
    assert quiet["errors"] == 0
    assert quiet["requests"] == 1  # its own REGISTER only
    metrics = cluster.obs.metrics
    assert metrics.sum_counters("daemon.errors.") == 3
    assert metrics.value("daemon.requests.REGISTER") == 2


# -- quota + bandwidth through the wire ---------------------------------------


def test_daemon_rejects_register_over_byte_quota():
    cluster = PaperCluster(seed=17, ampere_nodes=0)
    # A/B buffering charges 2x the model, so one model fits and the
    # second must bounce.
    cluster.tenants.register_tenant("acme",
                                    byte_quota=3 * SPECS_BYTES)

    def scenario(env):
        first = ModelInstance.materialize("m1", SPECS,
                                          cluster.volta.gpus[0],
                                          model_seed=1)
        yield from cluster.portus_register(first, tenant="acme")
        second = ModelInstance.materialize("m2", SPECS,
                                           cluster.volta.gpus[0],
                                           model_seed=2)
        with pytest.raises(TenantQuotaExceeded):
            yield from cluster.portus_register(second, tenant="acme")
        return cluster.tenants.charged("acme")

    assert cluster.run(scenario) == 2 * SPECS_BYTES
    assert cluster.obs.metrics.value("fleet.quota.rejects.acme") == 1


def test_rejected_register_leaks_no_pool_bytes():
    cluster = PaperCluster(seed=19, ampere_nodes=0)
    cluster.tenants.register_tenant("acme", byte_quota=1)

    def scenario(env):
        instance = ModelInstance.materialize("m1", SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=1)
        with pytest.raises(TenantQuotaExceeded):
            yield from cluster.portus_register(instance, tenant="acme")

    cluster.run(scenario)
    assert cluster.tenants.charged("acme") == 0
    assert fsck(cluster.portus_pool).clean


def _full_table_daemon(cluster):
    """A daemon on shard 1's node over a fresh pool whose ModelTable was
    created with ``max_models=2``, with ``m1`` and ``m2`` (tenant
    ``acme``) registered on it; returns it and a client of it."""
    shard = cluster.shards[1]
    pool = PmemPool.format(shard.node.dram)
    ModelTable.create(pool, max_models=2)
    daemon = PortusDaemon(cluster.env, shard.node, pool, shard.tcp,
                          port=9901, obs=cluster.obs,
                          tenants=cluster.tenants)
    daemon.start()
    client = PortusClient(cluster.env, cluster.volta, cluster.volta_tcp,
                          daemon)

    def fill(env):
        for seed, name in enumerate(("m1", "m2")):
            instance = ModelInstance.materialize(
                name, SPECS, cluster.volta.gpus[0], model_seed=seed)
            yield from client.register(instance, tenant="acme")

    cluster.run(fill)
    return daemon, client


def test_register_refused_by_a_full_model_table_leaves_no_state():
    cluster = PaperCluster(seed=20, ampere_nodes=0, storage_nodes=2)
    daemon, client = _full_table_daemon(cluster)

    def scenario(env):
        instance = ModelInstance.materialize("m3", SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=3)
        # The retry must not attach to a model only DRAM knows and ack
        # checkpoints no restarted daemon could find.
        for _attempt in range(2):
            with pytest.raises(PmemError, match="full"):
                yield from client.register(instance, tenant="acme")

    cluster.run(scenario)
    assert daemon.models() == daemon.table.names() == ["m1", "m2"]
    assert cluster.tenants.charged("acme") == 2 * 2 * SPECS_BYTES
    assert fsck(daemon.pool).clean


def test_bandwidth_throttle_delays_but_never_fails_checkpoints():
    policy = RetryPolicy(rng=random.Random(23), max_attempts=12,
                         deadline_ns=secs(8), reply_timeout_ns=msecs(8))
    cluster = PaperCluster(seed=23, ampere_nodes=0, client_retry=policy)
    # Budget: exactly one model's bytes per simulated second.
    cluster.tenants.register_tenant("acme",
                                    bandwidth_bps=SPECS_BYTES)

    def scenario(env):
        instance = ModelInstance.materialize("m1", SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=1)
        session = yield from cluster.portus_register(instance,
                                                     tenant="acme")
        start = env.now
        for step in (1, 2, 3):
            instance.update_step(step)
            yield from session.checkpoint(step)
        return env.now - start

    elapsed = cluster.run(scenario)
    # Three checkpoints at one-checkpoint-per-second: the bucket must
    # have stalled the burst for ~2 simulated seconds.
    assert elapsed >= secs(1)
    assert cluster.obs.metrics.value("fleet.bandwidth.rejects.acme") > 0


def test_admission_backpressure_absorbs_a_thundering_herd():
    policy = RetryPolicy(rng=random.Random(29), max_attempts=20,
                         deadline_ns=secs(2), reply_timeout_ns=msecs(8))
    cluster = PaperCluster(seed=29, ampere_nodes=1, client_retry=policy,
                           admission=dict(max_ingests=1,
                                          retry_after_ns=usecs(50)))

    def scenario(env):
        sessions = []
        for i in range(4):
            instance = ModelInstance.materialize(
                f"m{i}", SPECS, cluster.volta.gpus[0], model_seed=i + 1)
            sessions.append(
                (yield from cluster.portus_register(instance)))

        def one(session):
            session.model.update_step(1)
            yield from session.checkpoint(1)

        procs = [env.process(one(s), name=f"herd{i}")
                 for i, s in enumerate(sessions)]
        for proc in procs:
            yield proc
        return [s.model.name for s in sessions]

    assert len(cluster.run(scenario)) == 4
    # With one ingest slot and four simultaneous pulls, somebody was
    # turned away and came back.
    assert cluster.obs.metrics.sum_counters(
        "fleet.admission.rejects.") > 0
    assert cluster.daemon.admission.inflight("ingest") == 0


def test_only_an_admitted_claimed_checkpoint_is_charged_to_the_bucket():
    """A dump that never runs (admission reject) costs its tenant no
    tokens; a dump that runs is charged once; an over-budget dump is
    refused with its exact retry-after and leaves no claim or abort."""
    cluster = PaperCluster(seed=37, ampere_nodes=0,
                           admission=dict(max_ingests=1))
    cluster.tenants.register_tenant("acme", bandwidth_bps=1 << 30)

    def tokens(tenant):
        return cluster.tenants.snapshot()[tenant]["tokens"]

    def scenario(env):
        running = yield from cluster.portus_register("resnet18",
                                                     tenant="acme")
        turned_away = yield from cluster.portus_register("alexnet",
                                                         tenant="acme")
        full = tokens("acme")
        running.model.update_step(1)
        turned_away.model.update_step(1)
        inflight = env.process(running.checkpoint(1))
        yield env.timeout(usecs(100))  # resnet18 holds the ingest slot
        for _attempt in range(2):
            with pytest.raises(AdmissionReject):
                yield from turned_away.checkpoint(1)
        yield inflight
        return full - tokens("acme"), running.model.total_bytes

    spent, running_bytes = cluster.run(scenario)
    assert cluster.obs.metrics.value("fleet.admission.rejects.ingest") == 2
    assert spent == running_bytes

    # A bucket drained far below zero: the reject carries the exact
    # time until it is positive again.
    cluster.tenants.register_tenant("lean", bandwidth_bps=1_000_000)
    cluster.tenants.reserve_bandwidth("lean", 1 << 30, cluster.env.now)

    def over_budget(env):
        session = yield from cluster.portus_register("resnet34",
                                                     tenant="lean")
        session.model.update_step(1)
        with pytest.raises(AdmissionReject) as refused:
            yield from session.checkpoint(1)
        return refused.value.retry_after_ns

    retry_after = cluster.run(over_budget)
    deficit = 1 - tokens("lean")
    assert retry_after == (deficit * 10**9 + 1_000_000 - 1) // 1_000_000
    assert not cluster.daemon.model_map["resnet34"].busy
    assert cluster.obs.metrics.value("daemon.checkpoints_aborted") == 0


# -- migration ----------------------------------------------------------------


def test_live_migration_moves_bytes_and_flips_the_ring():
    cluster = PaperCluster(seed=31, ampere_nodes=1, storage_nodes=2)
    fleet = FleetClient(cluster)

    def setup(env):
        return (yield from fleet.register("acme", "resnet18"))

    session = cluster.run(setup)
    src = fleet.shard_of("acme", "resnet18")
    dst = next(s for s in cluster.shards if s.name != src.name)

    def work(env):
        for step in (1, 2):
            session.model.update_step(step)
            yield from session.checkpoint(step)

    cluster.run(work)

    def migrate(env):
        return (yield from fleet.migrate("acme", "resnet18", dst.name))

    step, moved = cluster.run(migrate)
    assert step == 2
    assert moved > 0
    assert fleet.shard_of("acme", "resnet18").name == dst.name
    # The source daemon no longer knows the model; the session follows.
    assert src.daemon.model_map.get("resnet18") is None
    assert session.client.daemon is dst.daemon

    def after(env):
        # The next checkpoint lands on the destination daemon...
        session.model.update_step(3)
        yield from session.checkpoint(3)
        # ... and restore round-trips from the destination pool.
        session.model.update_step(0)
        return (yield from session.restore())

    assert cluster.run(after) == 3
    bad = [t.name for t in session.model.tensors
           if not t.content().equals(t.expected_content(3))]
    assert bad == []
    for shard in cluster.shards:
        assert fsck(shard.pool).clean
    assert cluster.obs.metrics.value(
        "fleet.migrations", src=src.name, dst=dst.name) == 1


def test_migrating_to_the_home_shard_is_an_error():
    cluster = PaperCluster(seed=37, ampere_nodes=0, storage_nodes=2)
    fleet = FleetClient(cluster)

    def setup(env):
        yield from fleet.register("acme", "resnet18")

    cluster.run(setup)
    home = fleet.shard_of("acme", "resnet18")

    def migrate(env):
        yield from fleet.migrate("acme", "resnet18", home.name)

    with pytest.raises(ReproError):
        cluster.run(migrate)


def test_migration_refused_by_a_full_model_table_leaves_no_copy():
    cluster = PaperCluster(seed=38, ampere_nodes=0, storage_nodes=2)
    dst, _client = _full_table_daemon(cluster)

    def scenario(env):
        instance = ModelInstance.materialize("m3", SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=3)
        session = yield from cluster.portus_register(instance)
        instance.update_step(2)
        yield from session.checkpoint(2)
        # A retry meets the same full table, not a copy that exists
        # only in the destination's DRAM.
        for _attempt in range(2):
            with pytest.raises(PmemError, match="full"):
                yield from migrate_model(env, cluster.daemon, dst, "m3")

    cluster.run(scenario)
    assert dst.models() == dst.table.names() == ["m1", "m2"]
    assert fsck(dst.pool).clean
    assert cluster.daemon.model_map["m3"].meta.restorable()[1] == 2


def test_register_racing_a_migration_keeps_the_destinations_model():
    """A REGISTER of the migrating model's name lands on the destination
    while the pull is in flight: the migration's commit refuses the name
    the destination now holds instead of replacing its entries, frees
    its copy, and leaves the source serving the committed step."""
    cluster = PaperCluster(seed=39, ampere_nodes=0, storage_nodes=2)
    specs = [TensorSpec("w", (4096, 1024))]  # 16 MiB
    dst = cluster.shards[1].daemon

    def setup(env):
        instance = ModelInstance.materialize("m", specs,
                                             cluster.volta.gpus[0],
                                             model_seed=1)
        session = yield from cluster.portus_register(instance)
        instance.update_step(4)
        yield from session.checkpoint(4)
        return session

    session = cluster.run(setup)

    def migrate(env):
        try:
            yield from migrate_model(env, cluster.daemon, dst, "m")
        except ModelAlreadyRegistered as exc:
            return exc
        return None

    def race(env):
        migration = env.process(migrate(env))
        yield env.timeout(usecs(1))
        other = ModelInstance.materialize("m", specs,
                                          cluster.volta.gpus[1],
                                          model_seed=2)
        registered = yield from cluster.portus_register(other, shard=1)
        entry = dst.model_map["m"]
        return registered, entry, (yield migration)

    registered, entry, refusal = cluster.run(race)
    assert isinstance(refusal, ModelAlreadyRegistered)
    # The destination's own `m` is untouched and works.
    assert dst.model_map["m"] is entry
    assert dst.table.lookup("m") == entry.meta.meta.addr
    with pytest.raises(NoValidCheckpoint):
        entry.meta.restorable()

    def use_both(env):
        registered.model.update_step(1)
        yield from registered.checkpoint(1)
        session.model.update_step(0)
        return (yield from session.restore())

    assert cluster.run(use_both) == 4
    assert entry.meta.restorable()[1] == 1
    bad = [t.name for t in session.model.tensors
           if not t.content().equals(t.expected_content(4))]
    assert bad == []
    for shard in cluster.shards:
        assert fsck(shard.pool).clean


HEAD = ["fc.weight", "fc.bias"]


def _dedup_fleet(seed):
    cluster = PaperCluster(seed=seed, ampere_nodes=0, storage_nodes=2)
    fleet = FleetClient(cluster)
    src, dst = cluster.shards
    return cluster, fleet, src, dst


def _register_dedup(cluster, fleet, tenant, name, shard, steps):
    """Register a dedup resnet18 pinned to *shard* (model seed 7, so
    same-seed tenants share every unchanged chunk) and checkpoint it
    through *steps* — ``(step, only)`` pairs."""
    fleet.ring.assign(tenant, name, shard.name)

    def setup(env):
        instance = cluster.materialize("resnet18", seed=7,
                                       instance_name=name)
        session = yield from fleet.register(tenant, instance, dedup=True,
                                            chunk_bytes=kib(256))
        for step, only in steps:
            instance.update_step(step, only=only)
            yield from session.checkpoint(step)
        return session

    return cluster.run(setup)


def _assert_bit_exact(model, head_step, base_step):
    bad = [t.name for t in model.tensors if not t.content().equals(
        t.expected_content(head_step if t.name in HEAD else base_step))]
    assert bad == []


def test_dedup_model_migrates_bit_exact_and_releases_source_refs():
    cluster, fleet, src, dst = _dedup_fleet(41)
    session = _register_dedup(cluster, fleet, "acme", "resnet18", src,
                              [(1, None), (2, HEAD)])

    def migrate(env):
        return (yield from fleet.migrate("acme", "resnet18", dst.name))

    step, moved = cluster.run(migrate)
    assert step == 2
    # An empty destination store lacks every chunk: the whole region
    # moves once.
    assert moved == session.model.total_bytes
    assert fleet.shard_of("acme", "resnet18").name == dst.name
    assert src.daemon.model_map.get("resnet18") is None
    assert isinstance(dst.daemon.model_map["resnet18"].meta.layout,
                      ChunkLayout)
    # Evicting the source dropped this model's references, and it was
    # the store's only user.
    assert ChunkStore.attach(src.pool).chunk_count == 0

    def after(env):
        session.model.update_step(0)
        restored = yield from session.restore()
        # The next dump is a delta against the destination's store.
        session.model.update_step(3, only=HEAD)
        reply = yield from session.checkpoint(3)
        return restored, reply

    restored, reply = cluster.run(after)
    assert restored == 2
    assert reply["chunks_shared"] > 0
    assert reply["bytes_pulled"] < session.model.total_bytes
    _assert_bit_exact(session.model, 3, 1)
    for shard in cluster.shards:
        assert fsck(shard.pool).clean
    assert cluster.obs.metrics.value(
        "fleet.migrations", src=src.name, dst=dst.name) == 1


def test_dedup_migration_moves_only_the_chunks_the_destination_lacks():
    cluster, fleet, src, dst = _dedup_fleet(42)
    session = _register_dedup(cluster, fleet, "acme", "a-model", src,
                              [(1, None), (2, HEAD)])
    # A tenant fine-tuned from the same base already lives on the
    # destination: it holds every backbone chunk, none of a-model's
    # step-2 head chunks.
    _register_dedup(cluster, fleet, "beta", "b-model", dst, [(1, None)])
    entry = src.daemon.model_map["a-model"]
    version, _step = entry.meta.restorable()
    store = ChunkStore.attach(dst.pool)
    lacking = {}
    for digest, span in zip(entry.meta.layout.read_manifest(version),
                            entry.meta.layout.spans()):
        if store.lookup(digest) is None:
            lacking.setdefault(digest,
                               sum(piece.length for piece in span.pieces))

    def migrate(env):
        return (yield from fleet.migrate("acme", "a-model", dst.name))

    step, moved = cluster.run(migrate)
    assert step == 2
    assert lacking and moved == sum(lacking.values())
    assert moved < session.model.total_bytes

    def recover(env):
        session.model.update_step(0)
        return (yield from session.restore())

    assert cluster.run(recover) == 2
    _assert_bit_exact(session.model, 2, 1)
    for shard in cluster.shards:
        assert fsck(shard.pool).clean


def test_post_flip_evict_failure_is_leak_only_and_typed(monkeypatch):
    """The ring flip is the commit point: a cleanup failure after it
    must never unwind the flip — it surfaces as MigrationIncomplete
    naming the leak, and the destination copy stays authoritative."""
    cluster = PaperCluster(seed=61, ampere_nodes=0, storage_nodes=2)
    fleet = FleetClient(cluster)

    def setup(env):
        session = yield from fleet.register("acme", "resnet18")
        session.model.update_step(1)
        yield from session.checkpoint(1)
        return session

    session = cluster.run(setup)
    src = fleet.shard_of("acme", "resnet18")
    dst = next(s for s in cluster.shards if s.name != src.name)

    import repro.fleet.client as fleet_client

    def broken_evict(daemon, name):
        raise ReproError("injected: source unlink lost")

    monkeypatch.setattr(fleet_client, "evict_model", broken_evict)

    def migrate(env):
        try:
            yield from fleet.migrate("acme", "resnet18", dst.name)
        except MigrationIncomplete as exc:
            return exc
        return None

    error = cluster.run(migrate)
    assert isinstance(error, MigrationIncomplete)
    assert list(error.leaked) == [f"source-copy:{src.name}/resnet18"]
    # The flip held: lookups route to the destination, which holds the
    # bytes, and the live session followed.
    assert fleet.shard_of("acme", "resnet18").name == dst.name
    assert dst.daemon.model_map.get("resnet18") is not None
    assert session.client.daemon is dst.daemon

    def recover(env):
        session.model.update_step(0)
        return (yield from session.restore())

    assert cluster.run(recover) == 1  # the leak never blocks the copy


# -- parallel groups ----------------------------------------------------------


GROUP_CONFIG = tiny_gpt()


def _group_fixture(cluster, fleet, tp=2, pp=1, tenant="acme"):
    """Register a tiny-GPT group through the fleet router; returns
    ``(layout, instances, group)``."""
    layout = gpt_layout(GROUP_CONFIG, tp, pp)
    shards = shard_gpt(GROUP_CONFIG, tp, pp)
    instances = {
        shard.name: ModelInstance.materialize(
            shard.name, shard.tensors,
            cluster.volta.gpus[index % 4], model_seed=index)
        for index, shard in enumerate(shards)}

    def setup(env):
        return (yield from fleet.register_group(
            tenant, GROUP_CONFIG.name, layout, instances))

    return layout, instances, cluster.run(setup)


def test_group_registration_places_all_members_on_one_shard():
    cluster = PaperCluster(seed=47, ampere_nodes=0, storage_nodes=4)
    fleet = FleetClient(cluster)
    layout, _instances, _group = _group_fixture(cluster, fleet, tp=2,
                                                pp=2)
    home = fleet.ring.lookup("acme", GROUP_CONFIG.name)
    home_shard = cluster.shard_named(home)
    for member in layout.members:
        assert fleet.shard_of("acme", member).name == home
        assert home_shard.daemon.model_map.get(member) is not None
    # The co-location is the group pin's doing, not ring luck: the
    # same members hashed without pins would scatter.
    bare = PlacementRing([shard.name for shard in cluster.shards])
    assert len({bare.lookup("acme", m) for m in layout.members}) > 1
    assert cluster.obs.metrics.value(
        "fleet.group_placements", shard=home) == 1


def test_group_migration_moves_the_whole_group():
    cluster = PaperCluster(seed=53, ampere_nodes=0, storage_nodes=2)
    fleet = FleetClient(cluster)
    layout, instances, group = _group_fixture(cluster, fleet)

    def work(env):
        for instance in instances.values():
            instance.update_step(1)
        yield from group.dump(1)

    cluster.run(work)
    src = cluster.shard_named(fleet.ring.lookup("acme",
                                                GROUP_CONFIG.name))
    dst = next(s for s in cluster.shards if s.name != src.name)

    def migrate(env):
        return (yield from fleet.migrate_group("acme", GROUP_CONFIG.name,
                                               dst.name))

    step, moved = cluster.run(migrate)
    assert step == 1 and moved > 0
    assert fleet.ring.lookup("acme", GROUP_CONFIG.name) == dst.name
    for member in layout.members:
        assert fleet.shard_of("acme", member).name == dst.name
        assert src.daemon.model_map.get(member) is None
        assert dst.daemon.model_map.get(member) is not None
    assert dst.daemon.groups.lookup(GROUP_CONFIG.name).committed_step == 1
    with pytest.raises(GroupNotFound):
        src.daemon.groups.lookup(GROUP_CONFIG.name)

    def recover(env):
        for instance in instances.values():
            instance.update_step(0)
        return (yield from group.restore())

    assert cluster.run(recover) == 1
    for instance in instances.values():
        bad = [t.name for t in instance.tensors
               if not t.content().equals(t.expected_content(1))]
        assert bad == []
    for shard in cluster.shards:
        assert fsck(shard.pool).clean
    assert cluster.obs.metrics.value(
        "fleet.group_migrations", src=src.name, dst=dst.name) == 1


def test_failed_group_migration_leaves_no_member_on_the_destination():
    """A member copy that fails before the ring flip unwinds the members
    already copied: nothing is stranded on the destination, the source
    keeps serving the committed step, and a retry is not blocked."""
    cluster = PaperCluster(seed=61, ampere_nodes=0, storage_nodes=2)
    fleet = FleetClient(cluster)
    layout, instances, group = _group_fixture(cluster, fleet)

    def work(env):
        for instance in instances.values():
            instance.update_step(1)
        yield from group.dump(1)

    cluster.run(work)
    src = cluster.shard_named(fleet.ring.lookup("acme",
                                                GROUP_CONFIG.name))
    dst = next(s for s in cluster.shards if s.name != src.name)
    first, second = layout.members

    def occupy(env):
        # An unrelated model already holds the second member's name on
        # the destination, so its copy fails after the first landed.
        squatter = ModelInstance.materialize(
            second, SPECS, cluster.volta.gpus[3], model_seed=99)
        return (yield from cluster.portus_client(shard=dst.index).register(
            squatter))

    squatter = cluster.run(occupy)

    def migrate(env):
        try:
            yield from fleet.migrate_group("acme", GROUP_CONFIG.name,
                                           dst.name)
        except ModelAlreadyRegistered as exc:
            return exc
        return None

    assert isinstance(cluster.run(migrate), ModelAlreadyRegistered)
    assert dst.daemon.model_map.get(first) is None
    assert first not in dst.daemon.table
    assert fleet.ring.lookup("acme", GROUP_CONFIG.name) == src.name
    for member in layout.members:
        assert fleet.shard_of("acme", member).name == src.name

    def recover(env):
        for instance in instances.values():
            instance.update_step(0)
        return (yield from group.restore())

    assert cluster.run(recover) == 1
    for instance in instances.values():
        bad = [t.name for t in instance.tensors
               if not t.content().equals(t.expected_content(1))]
        assert bad == []
    for shard in cluster.shards:
        assert fsck(shard.pool).clean

    def retry(env):
        # With the name freed, the same migration goes through.
        yield from squatter.unregister()
        return (yield from fleet.migrate_group("acme", GROUP_CONFIG.name,
                                               dst.name))

    assert cluster.run(retry)[0] == 1
    for member in layout.members:
        assert dst.daemon.model_map.get(member) is not None
    for shard in cluster.shards:
        assert fsck(shard.pool).clean


def _mixed_group(cluster, fleet, home):
    """A tiny-GPT TP2 group on *home* whose first member uses the dedup
    layout and the second the slot layout, committed at step 1."""
    layout = gpt_layout(GROUP_CONFIG, 2, 1)
    shards = shard_gpt(GROUP_CONFIG, 2, 1)
    fleet.ring.assign("acme", GROUP_CONFIG.name, home.name)
    for member in layout.members:
        fleet.ring.assign("acme", member, home.name)

    def setup(env):
        sessions = []
        for index, shard in enumerate(shards):
            instance = ModelInstance.materialize(
                shard.name, shard.tensors, cluster.volta.gpus[index],
                model_seed=index)
            sessions.append((yield from fleet.register(
                "acme", instance, dedup=(index == 0))))
        group = yield from bind_group(sessions[0].client,
                                      GROUP_CONFIG.name, layout, sessions)
        for session in sessions:
            session.model.update_step(1)
        yield from group.dump(1)
        return group, sessions

    group, sessions = cluster.run(setup)
    return layout, group, sessions


def test_mixed_dedup_group_migrates_and_restores():
    cluster = PaperCluster(seed=59, ampere_nodes=0, storage_nodes=2)
    fleet = FleetClient(cluster)
    home, dst = cluster.shards
    layout, group, sessions = _mixed_group(cluster, fleet, home)

    def migrate(env):
        return (yield from fleet.migrate_group("acme", GROUP_CONFIG.name,
                                               dst.name))

    step, moved = cluster.run(migrate)
    assert step == 1 and moved > 0
    for member in layout.members:
        assert home.daemon.model_map.get(member) is None
        assert dst.daemon.model_map.get(member) is not None
    assert isinstance(dst.daemon.model_map[layout.members[0]].meta.layout,
                      ChunkLayout)

    def recover(env):
        for session in sessions:
            session.model.update_step(0)
        return (yield from group.restore())

    assert cluster.run(recover) == 1
    for session in sessions:
        bad = [t.name for t in session.model.tensors
               if not t.content().equals(t.expected_content(1))]
        assert bad == []
    for shard in cluster.shards:
        assert fsck(shard.pool).clean


def test_group_migration_refuses_a_torn_dedup_member():
    """The torn-group check covers every layout: a dedup member whose
    newest DONE step is past the committed step refuses the move before
    anything is copied."""
    cluster = PaperCluster(seed=59, ampere_nodes=0, storage_nodes=2)
    fleet = FleetClient(cluster)
    home, dst = cluster.shards
    layout, _group, sessions = _mixed_group(cluster, fleet, home)

    def tear(env):
        # The dedup member alone dumps step 2; no group commit follows.
        sessions[0].model.update_step(2)
        yield from sessions[0].checkpoint(2)

    cluster.run(tear)

    def migrate(env):
        yield from fleet.migrate_group("acme", GROUP_CONFIG.name, dst.name)

    with pytest.raises(GroupError, match="newest DONE step 2"):
        cluster.run(migrate)
    for member in layout.members:
        assert home.daemon.model_map.get(member) is not None
        assert dst.daemon.model_map.get(member) is None
        assert fleet.shard_of("acme", member).name == home.name
    assert cluster.obs.metrics.value("fleet.migrations") == 0


# -- ring/cluster wiring ------------------------------------------------------


def test_fleet_client_ring_matches_cluster_shards():
    cluster = PaperCluster(seed=43, ampere_nodes=0, storage_nodes=4)
    fleet = FleetClient(cluster)
    assert fleet.ring.nodes == ["server", "server1", "server2",
                                "server3"]
    ring = PlacementRing(fleet.ring.nodes)
    for spec in generate_tenants(20, seed=5):
        assert (fleet.shard_of(spec.name, spec.instance_name).name
                == ring.lookup(spec.name, spec.instance_name))
