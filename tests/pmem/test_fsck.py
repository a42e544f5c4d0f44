"""Unit coverage for the structural verifier: one corruption per finding
kind, each followed by a repair pass that must leave the pool clean
without losing any genuinely-DONE checkpoint."""

import pytest

from repro.core.index import (DATA_TAG, FLAG_DONE, FLAG_EMPTY, META_TAG,
                              ModelMeta, ModelTable)
from repro.dnn.tensor import TensorSpec
from repro.hw import PmemDimm
from repro.obs import Observability
from repro.pmem import PmemPool
from repro.pmem.fsck import (K_DANGLING_META, K_DONE_ADDR_ZERO,
                             K_EXTENT_SHARED, K_LEAKED_EXTENT,
                             K_META_UNREADABLE, K_STALE_ACTIVE,
                             K_TABLE_TORN, K_VERSION_EXTENT_MISSING,
                             fsck, repair)
from repro.sim import Environment
from repro.units import gib

SPECS = [TensorSpec("layer0.weight", (128, 64)),
         TensorSpec("layer0.bias", (128,))]


def setup_pool(max_models=8):
    env = Environment()
    device = PmemDimm(env, dimms=1, dimm_capacity=gib(1))
    pool = PmemPool.format(device, max_extents=4096)
    table = ModelTable.create(pool, max_models=max_models)
    return pool, table


def add_model(pool, table, name, steps=(1, 2)):
    meta = ModelMeta.create(pool, name, SPECS)
    table.insert(name, meta.meta.addr)
    for step in steps:
        version = meta.begin()
        meta.commit(version, step=step)
    return meta


def reopen_meta(pool, table_name_pool=None):
    table = ModelTable.open(pool)
    return table, {name: ModelMeta.open(pool, table.lookup(name))
                   for name in table.names()}


def test_clean_pool_has_no_findings():
    pool, table = setup_pool()
    add_model(pool, table, "model")
    report = fsck(pool)
    assert report.clean, report.describe()
    assert report.checked["models"] == 1
    assert report.checked["extents"] >= 4  # table + meta + 2 data


def test_dangling_meta_entry_is_found_and_dropped():
    pool, table = setup_pool()
    add_model(pool, table, "model")
    table.insert("ghost", 0x77777000)  # no extent backs this address
    report = fsck(pool)
    assert report.kinds().get(K_DANGLING_META) == 1
    assert report.errors()

    result = repair(pool)
    assert result.clean, result.describe()
    table2, metas = reopen_meta(pool)
    assert table2.names() == ["model"]
    assert metas["model"].restorable()[1] == 2


def test_stale_active_slot_is_demoted_not_lost():
    pool, table = setup_pool()
    meta = add_model(pool, table, "model")
    meta.begin()  # crash mid-pull: slot stays ACTIVE
    report = fsck(pool)
    assert report.kinds().get(K_STALE_ACTIVE) == 1
    assert not report.errors()  # redundancy loss, not corruption

    result = repair(pool)
    assert result.clean, result.describe()
    _table, metas = reopen_meta(pool)
    flags = metas["model"].read_flags()
    assert FLAG_EMPTY in flags.states
    # The newest DONE checkpoint survived the repair untouched.
    assert metas["model"].restorable()[1] == 2


def test_done_slot_with_zero_addr_is_found():
    pool, table = setup_pool()
    meta = add_model(pool, table, "model")
    # Emulate the pre-fix drop_version ordering bug: the MIndex address
    # is zeroed and the extent freed while the flag still says DONE.
    flags = meta.read_flags()
    victim = flags.newest_done()
    region = meta.layout.regions[victim]
    addrs = list(meta.mindex.version_addrs)
    addrs[victim] = 0
    meta.mindex.version_addrs = tuple(addrs)
    meta._mindex_record.write(meta.mindex.pack())
    pool.free(region)

    report = fsck(pool)
    assert report.kinds().get(K_DONE_ADDR_ZERO) == 1
    result = repair(pool)
    assert result.clean, result.describe()
    _table, metas = reopen_meta(pool)
    # The older DONE checkpoint is what recovery falls back to.
    assert metas["model"].restorable()[1] == 1


def test_done_slot_with_missing_extent_is_demoted():
    pool, table = setup_pool()
    meta = add_model(pool, table, "model")
    flags = meta.read_flags()
    victim = flags.newest_done()
    # Free the extent but leave the MIndex pointing at it.
    pool.free(meta.layout.regions[victim])

    # Strict open refuses the dangling address; lenient (fsck) maps it
    # to a missing region so the rest of the model stays inspectable.
    with pytest.raises(Exception):
        ModelMeta.open(pool, meta.meta.addr)
    lenient = ModelMeta.open(pool, meta.meta.addr, lenient=True)
    assert lenient.layout.regions[victim] is None

    report = fsck(pool)
    assert report.kinds().get(K_VERSION_EXTENT_MISSING) == 1
    result = repair(pool)
    assert result.clean, result.describe()
    _table, metas = reopen_meta(pool)
    assert metas["model"].restorable()[1] == 1


def test_leaked_portus_extents_are_reclaimed_foreign_kept():
    pool, table = setup_pool()
    add_model(pool, table, "model")
    pool.alloc(4096, tag=f"{DATA_TAG}/orphan/v0")
    pool.alloc(4096, tag=f"{META_TAG}/orphan")
    pool.alloc(4096, tag="foreign-subsystem")
    report = fsck(pool)
    assert report.kinds().get(K_LEAKED_EXTENT) == 2
    assert not report.errors()

    result = repair(pool)
    assert result.clean, result.describe()
    # Only Portus-tagged leaks were freed; the foreign extent is not ours.
    tags = {record.tag for record in pool.allocator.records()}
    assert "foreign-subsystem" in tags
    assert f"{DATA_TAG}/orphan/v0" not in tags


def test_torn_table_slot_is_rewritten():
    pool, table = setup_pool()
    add_model(pool, table, "model")  # gens 1..: newest lands in slot 0
    record = table._record
    committed = record.read()
    states = record.slot_states()
    # Find the non-newest slot and stomp garbage over it (a torn write).
    newest = max((i for i in (0, 1)
                  if isinstance(states[i], tuple)),
                 key=lambda i: states[i][1])
    stale = 1 - newest
    garbage = b"\xde\xad\xbe\xef" * (record.slot_size // 4)
    record.allocation.write_bytes(record._slot_offset(stale),
                                  garbage[:record.slot_size])
    record.allocation.persist(record._slot_offset(stale), record.slot_size)

    report = fsck(pool)
    assert report.kinds().get(K_TABLE_TORN) == 1
    result = repair(pool)
    assert result.clean, result.describe()
    # Both slots valid again, committed payload unchanged.
    healed = ModelTable.open(pool)
    assert healed.names() == ["model"]
    assert all(isinstance(s, tuple) for s in healed._record.slot_states())
    assert healed._record.read()[0] == committed[0]


def test_extent_claimed_by_two_models_is_found():
    pool, table = setup_pool()
    meta_a = add_model(pool, table, "aaa")
    meta_b = add_model(pool, table, "bbb")
    # Model bbb's v0 hijacks aaa's v0 extent (its own becomes a leak).
    addrs = list(meta_b.mindex.version_addrs)
    addrs[0] = meta_a.mindex.version_addrs[0]
    meta_b.mindex.version_addrs = tuple(addrs)
    meta_b._mindex_record.write(meta_b.mindex.pack())

    report = fsck(pool)
    assert report.kinds().get(K_EXTENT_SHARED) == 1
    result = repair(pool)
    assert result.clean, result.describe()
    _table, metas = reopen_meta(pool)
    # aaa keeps its extents and newest checkpoint; bbb lost one slot.
    assert metas["aaa"].restorable()[1] == 2
    assert metas["aaa"].mindex.version_addrs[0] not in \
        (metas["bbb"].mindex.version_addrs)


def test_unreadable_meta_header_drops_the_model():
    pool, table = setup_pool()
    add_model(pool, table, "good")
    bad = add_model(pool, table, "bad")
    bad.meta.write_bytes(0, b"\x00" * 16)  # stomp the geometry header
    bad.meta.persist(0, 16)

    report = fsck(pool)
    assert report.kinds().get(K_META_UNREADABLE) == 1
    result = repair(pool)
    assert result.clean, result.describe()
    assert result.passes >= 1  # entry dropped and orphans reclaimed
    table2, metas = reopen_meta(pool)
    assert table2.names() == ["good"]
    assert metas["good"].restorable()[1] == 2


def test_fsck_emits_observability_counters():
    pool, table = setup_pool()
    add_model(pool, table, "model")
    table.insert("ghost", 0x5555000)
    obs = Observability()
    repair(pool, obs=obs)
    assert obs.metrics.counter("fsck.runs").value >= 2
    assert obs.metrics.counter(
        f"fsck.findings.{K_DANGLING_META}").value >= 1
    assert obs.metrics.counter(
        f"fsck.repairs.{K_DANGLING_META}").value == 1


def test_repair_on_clean_pool_is_a_no_op():
    pool, table = setup_pool()
    add_model(pool, table, "model")
    result = repair(pool)
    assert result.clean and result.actions == [] and result.passes == 0
