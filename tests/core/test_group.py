"""The parallel-group layer: record, store, and commit semantics.

Unit level (pool only): the GroupRecord's A/B commit survives reopen,
the GroupStore's leak-only registration, and the fsck findings/repairs
for every group-specific corruption.  Cluster level: the daemon's
two-phase commit — refusal when a member lacks the step, refusal of
regressions, idempotent re-commit, and the pinned-step restore path.
"""

import importlib

import pytest

from repro.core.group import (GroupRecord, GroupStore, group_tag,
                              register_group)
from repro.core.index import ModelMeta, ModelTable
from repro.dnn.gpt import shard_gpt, tiny_gpt
from repro.dnn.layout import gpt_layout
from repro.dnn.tensor import ModelInstance
from repro.errors import (GroupCommitRefused, GroupNotFound,
                          NoValidGroupCheckpoint, PortusError)
from repro.harness.cluster import PaperCluster
from repro.hw import PmemDimm
from repro.pmem import PmemPool
from repro.sim import Environment
from repro.units import gib

fsck_mod = importlib.import_module("repro.pmem.fsck")

CONFIG = tiny_gpt()
TP, PP = 2, 1
LAYOUT = gpt_layout(CONFIG, TP, PP)
SHARDS = shard_gpt(CONFIG, TP, PP)


def make_pool():
    env = Environment()
    device = PmemDimm(env, dimms=1, dimm_capacity=gib(1))
    return PmemPool.format(device, max_extents=4096)


def populate_members(pool, steps=(10, 20)):
    table = ModelTable.create(pool)
    metas = {}
    for shard in SHARDS:
        meta = ModelMeta.create(pool, shard.name, shard.tensors)
        table.insert(shard.name, meta.meta.addr)
        metas[shard.name] = meta
        for step in steps:
            version = meta.begin()
            meta.commit(version, step=step)
    return table, metas


# -- record + store (unit) ----------------------------------------------------


def test_group_record_round_trips_layout_and_step():
    pool = make_pool()
    blob = LAYOUT.pack()
    record = GroupRecord.create(pool, CONFIG.name, blob)
    assert record.committed_step == 0
    record.commit(10)
    reopened = GroupRecord.open(
        pool.device.allocation_at(record.allocation.addr))
    assert reopened.committed_step == 10
    assert reopened.layout_blob == blob
    assert reopened.layout() == LAYOUT
    # The blob never changes, so it is parsed once (GROUP_COMMIT reads
    # the members on every commit).
    assert reopened.layout() is reopened.layout()
    assert record.allocation.tag == group_tag(CONFIG.name)


def test_group_store_persists_across_reopen():
    pool = make_pool()
    populate_members(pool)
    store = GroupStore.open_or_create(pool)
    assert store.table is None  # lazy: no group table until first use
    store.register(CONFIG.name, LAYOUT.pack())
    store.lookup(CONFIG.name).commit(20)

    store2 = GroupStore.open_or_create(pool)
    assert store2.names() == [CONFIG.name]
    assert store2.lookup(CONFIG.name).committed_step == 20
    with pytest.raises(GroupNotFound):
        store2.lookup("nope")


def test_group_store_attach_requires_identical_layout():
    pool = make_pool()
    store = GroupStore.open_or_create(pool)
    record = store.register(CONFIG.name, LAYOUT.pack())
    assert store.register(CONFIG.name, LAYOUT.pack()) is record
    other = gpt_layout(CONFIG, 1, 2)
    with pytest.raises(PortusError, match="different layout"):
        store.register(CONFIG.name, other.pack())


def test_group_store_remove_frees_the_record():
    pool = make_pool()
    populate_members(pool)
    store = GroupStore.open_or_create(pool)
    store.register(CONFIG.name, LAYOUT.pack())
    store.remove(CONFIG.name)
    assert store.names() == []
    assert GroupStore.open_or_create(pool).names() == []
    assert fsck_mod.fsck(pool).clean


# -- fsck findings ------------------------------------------------------------


def test_fsck_flags_and_rolls_back_unrestorable_committed_step():
    pool = make_pool()
    _table, metas = populate_members(pool)
    store = GroupStore.open_or_create(pool)
    store.register(CONFIG.name, LAYOUT.pack()).commit(20)
    assert fsck_mod.fsck(pool).clean

    # Demote one member's DONE@20 slot: the committed step is now torn.
    meta = metas[SHARDS[0].name]
    flags = meta.read_flags()
    for version in range(len(flags.states)):
        if flags.steps[version] == 20:
            flags.states[version] = 0
            flags.steps[version] = 0
    meta.write_flags(flags)

    report = fsck_mod.fsck(pool)
    assert report.kinds().get(fsck_mod.K_GROUP_STEP_UNRESTORABLE) == 1
    result = fsck_mod.repair(pool)
    assert result.clean, result.describe()
    assert GroupStore.open_or_create(pool).lookup(
        CONFIG.name).committed_step == 10


def test_fsck_drops_group_with_missing_member():
    pool = make_pool()
    table, _metas = populate_members(pool)
    store = GroupStore.open_or_create(pool)
    store.register(CONFIG.name, LAYOUT.pack()).commit(10)
    table.remove(SHARDS[1].name)

    report = fsck_mod.fsck(pool)
    assert report.kinds().get(fsck_mod.K_GROUP_MEMBER_MISSING) == 1
    result = fsck_mod.repair(pool)
    assert result.clean, result.describe()
    assert GroupStore.open_or_create(pool).names() == []


def test_fsck_drops_dangling_group_entry():
    pool = make_pool()
    populate_members(pool)
    store = GroupStore.open_or_create(pool)
    store.register(CONFIG.name, LAYOUT.pack())
    store.table.insert("ghost", 0x66666000)

    report = fsck_mod.fsck(pool)
    assert report.kinds().get(fsck_mod.K_GROUP_DANGLING) == 1
    result = fsck_mod.repair(pool)
    assert result.clean, result.describe()
    assert GroupStore.open_or_create(pool).names() == [CONFIG.name]


def test_fsck_reclaims_unreferenced_group_record():
    pool = make_pool()
    populate_members(pool)
    store = GroupStore.open_or_create(pool)
    store.register(CONFIG.name, LAYOUT.pack())
    # Crash window in register: a record region written but never
    # linked into the group table is a leak, reclaimed by repair.
    GroupRecord.create(pool, "orphan", LAYOUT.pack())

    report = fsck_mod.fsck(pool)
    assert report.kinds().get(fsck_mod.K_LEAKED_EXTENT) == 1
    result = fsck_mod.repair(pool)
    assert result.clean, result.describe()


# -- daemon two-phase commit (cluster) ----------------------------------------


def group_cluster():
    cluster = PaperCluster(seed=19, ampere_nodes=0)
    state = {}

    def setup(env):
        client = cluster.portus_client()
        sessions = []
        instances = []
        for index, shard in enumerate(SHARDS):
            instance = ModelInstance.materialize(
                shard.name, shard.tensors,
                cluster.volta.gpus[index % 4], model_seed=index)
            session = yield from client.register(instance)
            instances.append(instance)
            sessions.append(session)
        group = yield from register_group(client, CONFIG.name, LAYOUT,
                                          sessions)
        state.update(group=group, instances=instances, client=client)

    cluster.run(setup)
    return cluster, state


def test_group_dump_commits_and_queries():
    cluster, state = group_cluster()

    def dump(env):
        for instance in state["instances"]:
            instance.update_step(10)
        step = yield from state["group"].dump(10)
        info = yield from state["group"].query()
        return step, info["step"]

    assert cluster.run(dump) == (10, 10)
    metrics = cluster.obs.metrics
    assert metrics.value("daemon.group_commits") >= 1
    assert metrics.value("daemon.group_registers") >= 1


def test_group_commit_refused_without_member_checkpoints():
    cluster, state = group_cluster()

    def bare_commit(env):
        yield from state["group"]._commit(7)

    with pytest.raises(GroupCommitRefused, match="no DONE checkpoint"):
        cluster.run(bare_commit)


def test_group_commit_refuses_step_regression():
    cluster, state = group_cluster()

    def regress(env):
        for instance in state["instances"]:
            instance.update_step(10)
        yield from state["group"].dump(10)
        # The members will happily checkpoint an older step; the group
        # commit is what refuses to move backwards.
        for instance in state["instances"]:
            instance.update_step(5)
        yield from state["group"].dump(5)

    with pytest.raises(GroupCommitRefused, match="behind"):
        cluster.run(regress)


def test_group_commit_is_idempotent():
    cluster, state = group_cluster()

    def recommit(env):
        for instance in state["instances"]:
            instance.update_step(10)
        yield from state["group"].dump(10)
        reply = yield from state["group"]._commit(10)
        return reply["step"]

    assert cluster.run(recommit) == 10


def test_group_restore_without_commit_raises_typed_error():
    cluster, state = group_cluster()

    def restore(env):
        yield from state["group"].restore()

    with pytest.raises(NoValidGroupCheckpoint):
        cluster.run(restore)


def test_member_restore_can_pin_an_older_step():
    cluster, state = group_cluster()

    def pinned(env):
        group, instances = state["group"], state["instances"]
        for step in (10, 20):
            for instance in instances:
                instance.update_step(step)
            yield from group.dump(step)
        session = group.sessions[LAYOUT.members[0]]
        restored = yield from session.restore(step=10)
        return restored, instances[0].step

    assert cluster.run(pinned) == (10, 10)
