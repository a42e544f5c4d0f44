"""Crash-window coverage for the online repack's migration pass.

``repack_live`` moves a survivor's newest DONE TensorData into a lower
extent as one transfer over the device's read and write channels.  The
simulated move takes real (simulated) time, so a daemon crash or power
loss can land inside it.
The guard contract: nothing is committed until the move finishes on a
still-open pool — an interrupted or pool-dead move leaves the MIndex
pointing at the intact old region, bit-exact, and leaks at most the
fresh extent (handed back when the pool survives).
"""

import random

import pytest

from repro.core.index import ModelMeta, ModelTable
from repro.core.repack import repack_live
from repro.dnn.tensor import TensorSpec
from repro.hw import PmemDimm
from repro.errors import ProcessInterrupted
from repro.pmem import PmemPool
from repro.sim import Environment
from repro.units import gib

SPECS = [TensorSpec("w", (1024, 512)), TensorSpec("b", (1024,))]
MARKER = bytes(range(256)) * 16  # 4 KiB of recognizable payload


def build():
    """One model, both slots DONE (steps 5 then 6), marker bytes in the
    newest slot.  Reclaiming the stale v0 opens a hole *below* v1, so
    the compaction pass will try to migrate v1 downward."""
    env = Environment()
    device = PmemDimm(env, dimms=1, dimm_capacity=gib(4))
    pool = PmemPool.format(device)
    table = ModelTable.create(pool)
    meta = ModelMeta.create(pool, "m", SPECS)
    table.insert("m", meta.meta.addr)
    for step in (5, 6):
        version = meta.begin()
        meta.commit(version, step)
    newest = meta.read_flags().newest_done()
    region = meta.layout.regions[newest]
    region.write_bytes(0, MARKER)
    region.persist()
    return env, pool, table, newest


def _check_intact(pool, step=6):
    meta = ModelMeta.open(pool, ModelTable.open(pool).lookup("m"))
    flags = meta.read_flags()
    newest = flags.newest_done()
    assert newest is not None
    assert flags.steps[newest] == step
    region = meta.layout.regions[newest]
    assert region is not None
    assert region.read_bytes(0, len(MARKER)) == MARKER
    return meta, newest


def _migration_duration():
    """Simulated ns a clean migration takes (deterministic per setup)."""
    env, pool, table, _newest = build()
    report = env.run_process(env.process(repack_live(env, pool, table)))
    assert report.models_migrated == ["m"]
    return env.now


def test_clean_migration_moves_data_down_and_preserves_it():
    env, pool, table, newest = build()
    old_addr = ModelMeta.open(
        pool, table.lookup("m")).layout.regions[newest].addr
    report = env.run_process(env.process(repack_live(env, pool, table)))
    assert report.models_migrated == ["m"]
    assert report.bytes_moved > 0
    meta, new_newest = _check_intact(pool)
    assert meta.layout.regions[new_newest].addr < old_addr


def test_interrupt_mid_move_commits_nothing():
    duration = _migration_duration()
    env, pool, table, newest = build()
    used_before = pool.used_bytes
    stale_size = ModelMeta.open(
        pool, table.lookup("m")).layout.regions[1 - newest].size
    old_addr = ModelMeta.open(
        pool, table.lookup("m")).layout.regions[newest].addr

    proc = env.process(repack_live(env, pool, table))

    def crash(env):
        yield env.timeout(duration // 2)
        proc.interrupt(cause="daemon-crash")

    env.process(crash(env))
    with pytest.raises(ProcessInterrupted):
        env.run_process(proc)
    proc.defuse()  # the failure was consumed here, not by another process

    # The old region is still the committed truth, bit-exact.
    meta, new_newest = _check_intact(pool)
    assert meta.layout.regions[new_newest].addr == old_addr
    # The fresh extent was handed back: only the stale slot's
    # reclamation shows in the accounting — no leak on a live pool.
    assert pool.used_bytes == used_before - stale_size


def test_interrupted_repack_can_be_rerun_to_completion():
    duration = _migration_duration()
    env, pool, table, _newest = build()
    proc = env.process(repack_live(env, pool, table))

    def crash(env):
        yield env.timeout(duration // 2)
        proc.interrupt(cause="daemon-crash")

    env.process(crash(env))
    with pytest.raises(ProcessInterrupted):
        env.run_process(proc)
    proc.defuse()

    report = env.run_process(env.process(repack_live(env, pool, table)))
    assert report.models_migrated == ["m"]
    _check_intact(pool)


def test_pool_death_mid_move_stops_before_touching_dead_media():
    duration = _migration_duration()
    env, pool, table, newest = build()
    old_addr = ModelMeta.open(
        pool, table.lookup("m")).layout.regions[newest].addr

    def die(env):
        yield env.timeout(duration // 2)
        pool.close()

    env.process(die(env))
    report = env.run_process(env.process(repack_live(env, pool, table)))
    # The pass bailed after the move: nothing migrated, nothing freed.
    assert report.models_migrated == []
    assert report.bytes_moved == 0

    # Recovery: reopen the pool (reconciling crash leakage) and verify
    # the old region is still the committed, bit-exact truth.
    reopened = PmemPool.open(pool.device)
    meta, new_newest = _check_intact(reopened)
    assert meta.layout.regions[new_newest].addr == old_addr


def test_chaos_schedule_interrupts_anywhere_in_the_move_window():
    """Seeded sweep: a crash at any instant of the move window never
    costs the newest DONE version its data or leaks on a live pool."""
    duration = _migration_duration()
    for seed in range(20):
        rng = random.Random(seed)
        env, pool, table, newest = build()
        used_before = pool.used_bytes
        stale_size = ModelMeta.open(
            pool, table.lookup("m")).layout.regions[1 - newest].size
        proc = env.process(repack_live(env, pool, table))

        def crash(env, proc=proc, at=rng.randrange(1, duration)):
            yield env.timeout(at)
            proc.interrupt(cause=f"chaos-{seed}")

        env.process(crash(env))
        with pytest.raises(ProcessInterrupted):
            env.run_process(proc)
        proc.defuse()
        _check_intact(pool)
        assert pool.used_bytes == used_before - stale_size
        # And the job is still finishable.
        report = env.run_process(env.process(repack_live(env, pool, table)))
        assert report.models_migrated == ["m"]
        _check_intact(pool)
