"""Recovery-ordering and geometry regressions in the three-level index.

Three bugs this file pins down:

* dropping a version used to commit the MIndex (or free the extent) before
  demoting the version flag, so a crash inside the window left a DONE
  flag pointing at address 0 / freed space — and ``ModelMeta.open``
  blew up on the next restart.  The fixed ordering is swept with a power
  fault at *every* write boundary.
* ``ModelMeta.open`` used to re-derive record geometry from the
  allocation size; a pool that rounds allocations up made it probe the
  B slot at the wrong offset and read stale metadata.  Geometry is now
  persisted in a write-once header.
* ``ModelTable.open`` trusted its caller's ``max_models`` for the slot
  geometry; a daemon configured differently than the formatter silently
  misread the table.  Geometry is now persisted and mismatches rejected.
"""

import random

import pytest

from repro.core.index import (FLAG_DONE, META_TAG, ModelMeta, ModelTable)
from repro.dnn.tensor import TensorSpec
from repro.errors import PmemError, PowerFailure
from repro.faults.crashpoints import (CrashPointRecorder,
                                     schedule_fingerprint)
from repro.hw import PmemDimm
from repro.pmem import PmemPool
from repro.pmem.fsck import fsck, repair
from repro.sim import Environment
from repro.units import gib

SPECS = [TensorSpec("layer0.weight", (128, 64)),
         TensorSpec("layer0.bias", (128,))]


def make_pool():
    env = Environment()
    device = PmemDimm(env, dimms=1, dimm_capacity=gib(1))
    return device, PmemPool.format(device, max_extents=4096)


def checkpointed_model(pool, table, name="model"):
    meta = ModelMeta.create(pool, name, SPECS)
    table.insert(name, meta.meta.addr)
    for step in (1, 2):
        version = meta.begin()
        meta.commit(version, step=step)
    return meta


# --- version-drop write ordering (crash-point sweep) -----------------------------


def _drop_version_scenario(crash_index):
    """Build a two-checkpoint model, then drop the older version with a
    power fault armed at *crash_index* (None = counting pass)."""
    device, pool = make_pool()
    table = ModelTable.create(pool, max_models=8)
    meta = checkpointed_model(pool, table)
    older = 1 - meta.read_flags().newest_done()
    rng = random.Random(23)
    recorder = CrashPointRecorder(device, crash_at=crash_index,
                                  power_fail=lambda: device.crash(rng))
    try:
        meta.layout.drop(older)
        completed = True
    except PowerFailure:
        completed = False
    recorder.disarm()
    return device, meta.meta.addr, recorder, completed


def test_drop_version_sweep_never_strands_a_done_flag():
    _device, _addr, recorder, completed = _drop_version_scenario(None)
    assert completed
    total = recorder.count
    assert total >= 6  # flags record, mindex record, alloc-table free

    for index in range(total):
        device, meta_addr, recorder, completed = _drop_version_scenario(index)
        assert not completed, f"boundary {index} did not fire"
        context = f"crash at {recorder.fired}"

        recovered = PmemPool.open(device)
        # Recovery must open the model without tripping on a DONE flag
        # whose extent is gone — the pre-fix failure mode.
        meta = ModelMeta.open(recovered, meta_addr)
        flags = meta.read_flags()
        for version in (0, 1):
            if flags.states[version] != FLAG_DONE:
                continue
            addr = meta.mindex.version_addrs[version]
            assert addr != 0, f"DONE flag with addr 0: {context}"
            assert recovered.allocator.lookup(addr) is not None, \
                f"DONE flag over freed extent: {context}"
        # The newest checkpoint survives every cut.
        assert meta.restorable() == (flags.newest_done(), 2), context
        # A crash mid-drop may leak, never corrupt: no fsck errors, and
        # repair always converges.
        report = fsck(recovered)
        assert report.errors() == [], f"{context}:\n{report.describe()}"
        assert repair(recovered).clean, context


#: The counting pass's :func:`schedule_fingerprint`: demote, then the
#: MIndex write, then the free.  Re-pin only for a deliberate change to
#: that order.
PINNED_DROP_SCHEDULE = (
    7, "f137778462f1f99bc9587a973a03a2c0702f167fea0fc9741052b2120c64799d")


def test_drop_version_boundary_schedule_is_deterministic():
    first = _drop_version_scenario(None)[2].boundaries
    second = _drop_version_scenario(None)[2].boundaries
    assert first == second
    assert schedule_fingerprint(first) == PINNED_DROP_SCHEDULE


# --- ModelMeta record geometry (persisted header) --------------------------------


def _pool_with_padded_meta_allocs(pad=4096):
    """A pool whose allocator hands metadata regions more space than
    requested — the rounding that used to break B-slot probing."""
    device, pool = make_pool()
    orig_alloc = pool.alloc

    def padded_alloc(size, tag):
        if tag.startswith(META_TAG):
            size += pad
        return orig_alloc(size, tag)

    pool.alloc = padded_alloc
    return device, pool


def test_meta_geometry_survives_padded_region():
    _device, pool = _pool_with_padded_meta_allocs()
    table = ModelTable.create(pool, max_models=8)
    meta = checkpointed_model(pool, table)
    assert meta.meta.size > ModelMeta.meta_region_size(len(SPECS))

    # Force a second MIndex generation so the newest frame sits in the B
    # slot — the slot the old size-derived probe would miss.
    older = 1 - meta.read_flags().newest_done()
    meta.layout.drop(older)
    meta.layout.recreate()
    current_addrs = meta.mindex.version_addrs

    reopened = ModelMeta.open(pool, meta.meta.addr)
    assert reopened.mindex.version_addrs == current_addrs
    assert reopened.flags_slot == meta.flags_slot
    assert reopened.mindex_slot == meta.mindex_slot
    assert reopened.restorable()[1] == 2
    assert fsck(pool).clean


def test_meta_geometry_header_rejects_garbage():
    _device, pool = make_pool()
    table = ModelTable.create(pool, max_models=8)
    meta = checkpointed_model(pool, table)
    meta.meta.write_bytes(0, b"\xff" * 16)
    meta.meta.persist(0, 16)
    with pytest.raises(PmemError, match="magic"):
        ModelMeta.open(pool, meta.meta.addr)


# --- ModelTable geometry coupling ------------------------------------------------


def test_model_table_open_uses_persisted_geometry():
    _device, pool = make_pool()
    table = ModelTable.create(pool, max_models=64)
    table.insert("model", 0x1000)

    reopened = ModelTable.open(pool)  # no max_models argument at all
    assert reopened.max_models == 64
    assert reopened.names() == ["model"]
    assert reopened.lookup("model") == 0x1000

    # Matching explicit geometry is fine; a mismatch is loudly rejected
    # instead of silently misreading the record slots.
    assert ModelTable.open(pool, max_models=64).max_models == 64
    with pytest.raises(PmemError, match="max_models=128"):
        ModelTable.open(pool, max_models=128)


def test_model_table_geometry_survives_many_generations():
    _device, pool = make_pool()
    table = ModelTable.create(pool, max_models=16)
    for i in range(10):  # bounce the record across both slots
        table.insert(f"m{i:02d}", 0x1000 * (i + 1))
    reopened = ModelTable.open(pool)
    assert reopened.max_models == 16
    assert len(reopened) == 10
    assert reopened.lookup("m07") == 0x8000
