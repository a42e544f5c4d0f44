"""The parallel-group layer: record, store, and commit semantics.

Unit level (pool only): the GroupRecord's A/B commit survives reopen,
the GroupStore's leak-only registration and membership, and the fsck
findings/repairs for every group-specific corruption.  Cluster level:
the commit that rides the member checkpoint completing a step — no
commit while a member lacks the step, refusal of regressions,
idempotent re-dumps, one daemon request per member per dump and per
restore — the daemon-pinned restore, and the protected version a
failed dump, its retry or a repack must not overwrite.
"""

import importlib

import pytest

from repro.core.group import (GroupRecord, GroupStore, group_tag,
                              register_group)
from repro.core.index import ModelMeta, ModelTable
from repro.core.repack import repack, repack_daemon
from repro.dnn.gpt import shard_gpt, tiny_gpt
from repro.dnn.layout import gpt_layout
from repro.dnn.tensor import ModelInstance
from repro.errors import (GroupCommitRefused, GroupError, GroupNotFound,
                          NoValidGroupCheckpoint, PortusError, ReproError,
                          WorkRequestError)
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
    # The blob never changes, so it is parsed once (a member checkpoint
    # reads the members to see whether it completed the step).
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
    assert store.group_of(SHARDS[0].name) is None
    assert GroupStore.open_or_create(pool).names() == []
    assert fsck_mod.fsck(pool).clean


def test_group_store_membership_is_rebuilt_and_exclusive():
    pool = make_pool()
    populate_members(pool)
    store = GroupStore.open_or_create(pool)
    record = store.register(CONFIG.name, LAYOUT.pack())
    assert all(store.group_of(member) is record
               for member in LAYOUT.members)
    assert store.group_of("not-a-member") is None
    # A second group may not claim a member: the member's group decides
    # which of its versions a checkpoint must keep.
    with pytest.raises(GroupError, match="already belongs"):
        store.register("other-job", LAYOUT.pack())
    reopened = GroupStore.open_or_create(pool)
    assert reopened.group_of(SHARDS[1].name) is reopened.lookup(CONFIG.name)


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


# -- the commit rides the member checkpoint (cluster) --------------------------


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


def _dump(state, step):
    for instance in state["instances"]:
        instance.update_step(step)
    return (yield from state["group"].dump(step))


def _acked_dump(cluster, state, step, failing=None):
    """Process: one group dump during which every WR the storage server
    posts for member *failing* fails; returns whether it was acked."""
    def hook(kind, label, _length):
        if failing in label:
            return WorkRequestError(f"{label}: injected {kind} error")
        return None

    cluster.server.nic.fault_hook = None if failing is None else hook
    try:
        yield from _dump(state, step)
    except ReproError:
        return False
    finally:
        cluster.server.nic.fault_hook = None
    return True


def _requests(cluster):
    return cluster.obs.metrics.sum_counters("daemon.requests.")


def test_group_dump_commits_and_queries():
    cluster, state = group_cluster()

    def dump(env):
        step = yield from _dump(state, 10)
        info = yield from state["group"].query()
        return step, info["step"]

    assert cluster.run(dump) == (10, 10)
    metrics = cluster.obs.metrics
    assert metrics.value("daemon.group_commits") == 1
    assert metrics.value("daemon.group_registers") >= 1


def test_group_commit_refused_without_member_checkpoints():
    """A group dump with a failed member commits nothing: the record
    stays at its committed step, though the other member is DONE."""
    cluster, state = group_cluster()

    def dump(env):
        yield from _dump(state, 10)
        acked = yield from _acked_dump(cluster, state, 20,
                                       failing=SHARDS[1].name)
        return acked, (yield from state["group"].query())["step"]

    assert cluster.run(dump) == (False, 10)
    assert cluster.daemon.model_map[SHARDS[0].name].meta.restorable()[1] \
        == 20
    assert cluster.obs.metrics.value("daemon.group_commits") == 1


def test_group_commit_refuses_step_regression():
    cluster, state = group_cluster()

    def regress(env):
        yield from _dump(state, 10)
        # The group refuses to move backwards, before any member pulls.
        try:
            yield from _dump(state, 5)
        except GroupCommitRefused as exc:
            return str(exc), (yield from state["group"].query())["step"]
        raise AssertionError("a step regression was acked")

    message, step = cluster.run(regress)
    assert "behind" in message and step == 10
    assert cluster.obs.metrics.value("daemon.checkpoints_completed") \
        == len(SHARDS)


def test_group_commit_is_idempotent():
    cluster, state = group_cluster()

    def recommit(env):
        yield from _dump(state, 10)
        return (yield from _dump(state, 10))

    assert cluster.run(recommit) == 10
    assert cluster.obs.metrics.value("daemon.group_commits") == 1


def test_group_dump_and_restore_make_one_request_per_member():
    cluster, state = group_cluster()
    counts = []

    def work(env):
        before = _requests(cluster)
        yield from _dump(state, 10)
        counts.append(_requests(cluster) - before)
        before = _requests(cluster)
        yield from state["group"].restore()
        counts.append(_requests(cluster) - before)

    cluster.run(work)
    assert counts == [len(SHARDS), len(SHARDS)]


def test_group_register_refuses_another_groups_member():
    cluster, state = group_cluster()

    def steal(env):
        sessions = list(state["group"].sessions.values())
        yield from register_group(state["client"], "other-job", LAYOUT,
                                  sessions)

    with pytest.raises(GroupError, match="already belongs"):
        cluster.run(steal)


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
            yield from _dump(state, step)
        session = group.sessions[LAYOUT.members[0]]
        restored = yield from session.restore(step=10)
        return restored, instances[0].step

    assert cluster.run(pinned) == (10, 10)


# -- the protected version ----------------------------------------------------

PROBE_LAYOUT = gpt_layout(CONFIG, 2, 2)
PROBE_SHARDS = shard_gpt(CONFIG, 2, 2)


def probe_cluster():
    """A tp=2 x pp=2 tiny-GPT group, bound and ready to dump."""
    cluster = PaperCluster(seed=13, ampere_nodes=0)
    instances = [ModelInstance.materialize(
        shard.name, shard.tensors, cluster.volta.gpus[index],
        model_seed=index) for index, shard in enumerate(PROBE_SHARDS)]
    state = {"instances": instances}

    def bind(env):
        client = cluster.portus_client()
        sessions = []
        for instance in instances:
            sessions.append((yield from client.register(instance)))
        state["group"] = yield from register_group(
            client, CONFIG.name, PROBE_LAYOUT, sessions)

    cluster.run(bind)
    state["bind"] = bind
    return cluster, state


def _restore_checked(cluster, state):
    """Process: group restore, every member bit-exact at the step."""
    step = yield from state["group"].restore()
    for instance in state["instances"]:
        assert instance.step == step
        bad = [tensor.name for tensor in instance.tensors
               if not tensor.content().equals(
                   tensor.expected_content(step))]
        assert bad == [], f"{instance.name}: {bad[:3]}"
    return step


def test_retried_group_dump_keeps_the_committed_step():
    """Dump 2 fails on the last member, its retry on the first: the
    members that finished both attempts must not overwrite step 1."""
    cluster, state = probe_cluster()
    first, last = PROBE_LAYOUT.members[0], PROBE_LAYOUT.members[-1]

    def dumps(env):
        acked = yield from _acked_dump(cluster, state, 1)
        failed = yield from _acked_dump(cluster, state, 2, failing=last)
        retried = yield from _acked_dump(cluster, state, 2, failing=first)
        return acked, failed, retried

    assert cluster.run(dumps) == (True, False, False)
    cluster.crash_server()
    cluster.restart_daemon()
    cluster.run(state["bind"])
    for instance in state["instances"]:
        instance.update_step(0)
    restored = cluster.run(lambda env: _restore_checked(cluster, state))
    # The retry's first member failed before the others finished: it
    # kept its DONE@2 from dump 2, so the last member to finish the
    # retry completed step 2 and committed it.
    assert restored == 2
    assert cluster.daemon.groups.lookup(CONFIG.name).committed_step == 2


def _failed_second_dump():
    """A probe cluster whose dump 1 was acked and dump 2 failed on its
    last member."""
    cluster, state = probe_cluster()
    last = PROBE_LAYOUT.members[-1]

    def dumps(env):
        acked = yield from _acked_dump(cluster, state, 1)
        failed = yield from _acked_dump(cluster, state, 2, failing=last)
        return acked, failed

    assert cluster.run(dumps) == (True, False)
    return cluster, state


def test_offline_repack_after_failed_group_dump_keeps_the_committed_step():
    cluster, state = _failed_second_dump()
    cluster.crash_server()
    pool = PmemPool.open(cluster.server.pmem_devdax)
    report = repack(pool)
    assert sorted(report.models_compacted) == sorted(PROBE_LAYOUT.members)
    pool.close()
    cluster.restart_daemon()
    cluster.run(state["bind"])
    for instance in state["instances"]:
        instance.update_step(0)
    assert cluster.run(lambda env: _restore_checked(cluster, state)) == 1


def test_repack_after_failed_group_dump_keeps_the_committed_step():
    cluster, state = _failed_second_dump()
    report = repack_daemon(cluster.daemon)
    # One whole slot region per member: the uncommitted DONE@2 of the
    # members that finished, the aborted slot of the one that failed.
    assert sorted(report.models_compacted) == sorted(PROBE_LAYOUT.members)
    assert report.bytes_reclaimed == sum(
        region.size for member in PROBE_LAYOUT.members
        for region in cluster.daemon.model_map[member].meta.layout.regions
        if region is not None)
    for instance in state["instances"]:
        instance.update_step(0)
    assert cluster.run(lambda env: _restore_checked(cluster, state)) == 1
    assert fsck_mod.fsck(cluster.daemon.pool).clean
