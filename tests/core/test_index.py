"""Tests for the three-level index: ModelTable, MIndex, version flags."""

import pytest

from repro.core.consistency import (abort_checkpoint, begin_checkpoint,
                                    commit_checkpoint, valid_checkpoint)
from repro.core.index import (FLAG_ACTIVE, FLAG_DONE, FLAG_EMPTY, Extent,
                              MIndex, ModelMeta, ModelTable,
                              TensorDescriptor, VersionFlags,
                              layout_tensors, overlaps)
from repro.dnn.models import build_model
from repro.dnn.tensor import TensorSpec
from repro.errors import (CheckpointInProgress, ModelNotFound,
                          NoValidCheckpoint, PortusError)
from repro.hw import PmemDimm
from repro.pmem import PmemPool
from repro.sim import Environment
from repro.units import gib


@pytest.fixture
def pool():
    env = Environment()
    device = PmemDimm(env, dimms=1, dimm_capacity=gib(8))
    return PmemPool.format(device, max_extents=4096)


SPECS = [TensorSpec("layer0.weight", (128, 64)),
         TensorSpec("layer0.bias", (128,)),
         TensorSpec("head.weight", (10, 128))]


# --- layout ---------------------------------------------------------------------


def test_layout_aligns_offsets():
    descriptors, size = layout_tensors(SPECS)
    for descriptor in descriptors:
        assert descriptor.offset % 64 == 0
    assert size >= sum(spec.size_bytes for spec in SPECS)
    assert descriptors[1].offset >= descriptors[0].offset + SPECS[0].size_bytes


def test_descriptor_pack_roundtrip():
    descriptor = TensorDescriptor("a.b.weight", "float32", (3, 4, 5), 240,
                                  128)
    packed = descriptor.pack()
    restored = TensorDescriptor.unpack(packed, 0)
    assert restored.name == descriptor.name
    assert restored.shape == (3, 4, 5)
    assert restored.dtype_name == "float32"
    assert restored.size == 240
    assert restored.offset == 128


def test_mindex_pack_roundtrip():
    descriptors, total = layout_tensors(SPECS)
    index = MIndex("bert", descriptors, (0x1000, 0x2000),
                   sum(d.size for d in descriptors))
    restored = MIndex.unpack(index.pack())
    assert restored.model_name == "bert"
    assert restored.layer_count == 3
    assert restored.version_addrs == (0x1000, 0x2000)
    assert restored.descriptors[2].name == "head.weight"


def test_mindex_paddr_is_region_plus_offset():
    descriptors, _total = layout_tensors(SPECS)
    index = MIndex("m", descriptors, (0x10000, 0x20000), 0)
    d = index.descriptors[1]
    assert index.paddr(d, 0) == 0x10000 + d.offset
    assert index.paddr(d, 1) == 0x20000 + d.offset


def test_mindex_descriptor_lookup():
    descriptors, _ = layout_tensors(SPECS)
    index = MIndex("m", descriptors, (0, 0), 0)
    assert index.descriptor("layer0.bias").size == 128 * 4
    with pytest.raises(PortusError):
        index.descriptor("nope")


# --- ModelMeta ------------------------------------------------------------------


def test_model_meta_create_and_open(pool):
    meta = ModelMeta.create(pool, "resnet50", SPECS)
    assert meta.read_flags().states == [FLAG_EMPTY, FLAG_EMPTY]
    reopened = ModelMeta.open(pool, meta.meta.addr)
    assert reopened.mindex.model_name == "resnet50"
    assert reopened.mindex.layer_count == 3
    assert reopened.data_regions[0].addr == meta.data_regions[0].addr


def test_model_meta_full_model_scale(pool):
    spec = build_model("bert_large")
    meta = ModelMeta.create(pool, "bert_large", spec.tensors)
    assert meta.mindex.layer_count == 396
    assert meta.mindex.total_bytes == spec.total_bytes
    reopened = ModelMeta.open(pool, meta.meta.addr)
    assert reopened.mindex.layer_count == 396


def test_drop_and_ensure_regions(pool):
    meta = ModelMeta.create(pool, "m", SPECS)
    begin = begin_checkpoint(meta)
    commit_checkpoint(meta, begin, step=5)
    reclaimed = meta.drop_version(1 - begin)
    assert reclaimed > 0
    assert meta.data_regions[1 - begin] is None
    reopened = ModelMeta.open(pool, meta.meta.addr)
    assert reopened.data_regions[1 - begin] is None
    reopened.ensure_regions()
    assert reopened.data_regions[1 - begin] is not None
    assert reopened.mindex.version_addrs[1 - begin] != 0


# --- version flags / consistency protocol ---------------------------------------------


def test_double_mapping_alternates_targets(pool):
    meta = ModelMeta.create(pool, "m", SPECS)
    first = begin_checkpoint(meta)
    commit_checkpoint(meta, first, step=1)
    second = begin_checkpoint(meta)
    assert second == 1 - first
    commit_checkpoint(meta, second, step=2)
    third = begin_checkpoint(meta)
    assert third == first  # ping-pong


def test_valid_checkpoint_prefers_newest_step(pool):
    meta = ModelMeta.create(pool, "m", SPECS)
    v1 = begin_checkpoint(meta)
    commit_checkpoint(meta, v1, step=10)
    v2 = begin_checkpoint(meta)
    commit_checkpoint(meta, v2, step=20)
    assert valid_checkpoint(meta) == (v2, 20)


def test_active_version_never_restorable(pool):
    meta = ModelMeta.create(pool, "m", SPECS)
    v1 = begin_checkpoint(meta)
    commit_checkpoint(meta, v1, step=10)
    v2 = begin_checkpoint(meta)  # crashes mid-pull: stays ACTIVE
    assert meta.read_flags().states[v2] == FLAG_ACTIVE
    assert valid_checkpoint(meta) == (v1, 10)


def test_no_valid_checkpoint_initially(pool):
    meta = ModelMeta.create(pool, "m", SPECS)
    with pytest.raises(NoValidCheckpoint):
        valid_checkpoint(meta)
    begin_checkpoint(meta)  # crash during the very first checkpoint
    with pytest.raises(NoValidCheckpoint):
        valid_checkpoint(meta)


def test_commit_requires_active(pool):
    meta = ModelMeta.create(pool, "m", SPECS)
    with pytest.raises(CheckpointInProgress):
        commit_checkpoint(meta, 0, step=1)


def test_abort_rolls_back_to_previous_state(pool):
    meta = ModelMeta.create(pool, "m", SPECS)
    v1 = begin_checkpoint(meta)
    commit_checkpoint(meta, v1, step=7)
    v2 = begin_checkpoint(meta)
    abort_checkpoint(meta, v2)
    flags = meta.read_flags()
    assert flags.states[v2] != FLAG_ACTIVE
    assert valid_checkpoint(meta) == (v1, 7)


def test_flags_pack_roundtrip():
    flags = VersionFlags((FLAG_DONE, FLAG_ACTIVE), (42, 43))
    restored = VersionFlags.unpack(flags.pack())
    assert restored.states == [FLAG_DONE, FLAG_ACTIVE]
    assert restored.steps == [42, 43]
    assert restored.newest_done() == 0
    assert restored.checkpoint_target() == 1


# --- ModelTable -----------------------------------------------------------------------


def test_model_table_roundtrip(pool):
    table = ModelTable.create(pool)
    table.insert("bert", 0x1000)
    table.insert("alexnet", 0x2000)
    assert table.names() == ["alexnet", "bert"]
    assert table.lookup("bert") == 0x1000

    reopened = ModelTable.open(pool)
    assert reopened.names() == ["alexnet", "bert"]
    assert reopened.lookup("alexnet") == 0x2000


def test_model_table_remove(pool):
    table = ModelTable.create(pool)
    table.insert("m", 0x500)
    assert table.remove("m") == 0x500
    with pytest.raises(ModelNotFound):
        table.lookup("m")
    with pytest.raises(ModelNotFound):
        table.remove("m")


def test_model_table_capacity(pool):
    table = ModelTable.create(pool, max_models=2)
    table.insert("a", 1)
    table.insert("b", 2)
    with pytest.raises(Exception, match="full"):
        table.insert("c", 3)
    table.insert("a", 9)  # replacing is always allowed
    assert table.lookup("a") == 9


def test_overlaps_intersects_two_sorted_region_maps():
    extents = [Extent(0, 100, None), Extent(100, 100, None)]
    runs = [TensorDescriptor("a", "float32", (5,), 20, 10),
            TensorDescriptor("b", "float32", (5,), 20, 90),
            TensorDescriptor("empty", "float32", (0,), 0, 150),
            TensorDescriptor("c", "float32", (20,), 80, 150)]
    got = [(extents.index(extent), run.name, lo, hi)
           for extent, run, lo, hi in overlaps(extents, runs)]
    # A run straddling two extents splits at the boundary, a zero-size
    # run yields nothing, and a run past the last extent is clipped.
    assert got == [(0, "a", 10, 30), (0, "b", 90, 100), (1, "b", 100, 110),
                   (1, "c", 150, 200)]
