"""Unit tests for the repacking tool beyond the e2e happy path."""

import pytest

from repro.core.index import ModelMeta, ModelTable
from repro.core.repack import RepackReport, repack
from repro.dnn.tensor import TensorSpec
from repro.hw import PmemDimm
from repro.pmem import PmemPool
from repro.sim import Environment
from repro.units import gib

SPECS = [TensorSpec("w", (1024, 512)), TensorSpec("b", (1024,))]


@pytest.fixture
def pool_and_table():
    env = Environment()
    device = PmemDimm(env, dimms=1, dimm_capacity=gib(4))
    pool = PmemPool.format(device)
    table = ModelTable.create(pool)
    return pool, table


def add_model(pool, table, name, committed_steps):
    meta = ModelMeta.create(pool, name, SPECS)
    table.insert(name, meta.meta.addr)
    for step in committed_steps:
        version = meta.begin()
        meta.commit(version, step)
    return meta


def test_repack_empty_table(pool_and_table):
    pool, table = pool_and_table
    report = repack(pool, table)
    assert report.models_compacted == []
    assert report.models_dropped == []
    assert report.bytes_reclaimed == 0


def test_repack_drops_never_checkpointed_model(pool_and_table):
    pool, table = pool_and_table
    add_model(pool, table, "crashed-job", committed_steps=[])
    report = repack(pool, table)
    assert report.models_dropped == ["crashed-job"]
    assert "crashed-job" not in table
    assert report.bytes_reclaimed > 0


def test_repack_compacts_interrupted_checkpoint(pool_and_table):
    """Scenario (2) of §III-D2: crash mid-checkpoint leaves an ACTIVE
    slot; repack reclaims it and keeps the valid one."""
    pool, table = pool_and_table
    meta = add_model(pool, table, "m", committed_steps=[5])
    meta.begin()  # crashes: stays ACTIVE
    report = repack(pool, table)
    assert report.models_compacted == ["m"]
    reopened = ModelMeta.open(pool, table.lookup("m"))
    flags = reopened.read_flags()
    assert flags.newest_done() is not None
    assert flags.steps[flags.newest_done()] == 5


def test_repack_idempotent(pool_and_table):
    pool, table = pool_and_table
    add_model(pool, table, "m", committed_steps=[1, 2])
    first = repack(pool, table)
    assert first.models_compacted == ["m"]
    second = repack(pool, table)
    assert second.models_compacted == []
    assert second.bytes_reclaimed == 0


def test_repack_skip_list(pool_and_table):
    pool, table = pool_and_table
    add_model(pool, table, "live", committed_steps=[1, 2])
    add_model(pool, table, "done", committed_steps=[1, 2])
    report = repack(pool, table, skip=["live"])
    assert report.models_compacted == ["done"]


def test_report_repr():
    report = RepackReport()
    report.models_dropped.append("x")
    report.bytes_reclaimed = 1024
    text = repr(report)
    assert "dropped=1" in text and "1024B" in text
