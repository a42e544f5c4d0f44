"""Crash-point sweep over a deduplicated model's live migration.

Migrating a chunk-layout model copies its manifest plus only the chunks
the destination store lacks, then evicts the source copy — which drops
only this model's chunk references.  The sweep power-fails every
metadata write boundary of that move, once with the recorder on each
device:

* destination — index creation, chunk-extent reservation, the one-commit
  reference ``apply`` (shared increments for the chunks a same-base
  tenant already stored), the manifest, the DONE stamp, the table
  insert;
* source — the evict's table removal, slot demotion, ``unref`` and the
  frees of chunks whose count reached zero.

Every window must be leak-only: the live pool stays fsck-clean,
``repair`` brings the crashed pool to clean without ever fixing a
``chunk-ref-overfree``, and at least one shard still holds a committed
copy that restores the newest acked step bit-exactly.
"""

import os
import random

import pytest

from repro.core.retry import RetryPolicy
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.errors import MigrationIncomplete, NoValidCheckpoint, ReproError
from repro.faults.crashpoints import CrashPointRecorder
from repro.fleet import FleetClient
from repro.harness.cluster import PaperCluster
from repro.pmem import PmemPool
from repro.pmem.fsck import fsck, repair
from repro.units import msecs

pytestmark = pytest.mark.chaos

STRIDE = int(os.environ.get("PORTUS_CRASHPOINT_STRIDE", "1"))
SEED = int(os.environ.get("PORTUS_CRASHPOINT_SEED", "13"))

CHUNK = 64 * 1024

SPECS = [TensorSpec("block.weight", (256, 128)),   # 128 KiB
         TensorSpec("block.bias", (256,)),
         TensorSpec("head.weight", (16, 256))]     # 16 KiB
HEAD = ["head.weight"]
#: The newest acked step and, per tensor, the step its bytes hold.
NEWEST = 2
EXPECTED = {"block.weight": 1, "block.bias": 1, "head.weight": 2}


class MigrationEpisode:
    """One dedup migration with a recorder on the *side* shard's device
    (``"dst"`` or ``"src"``), power-failing that shard at ``crash_at``."""

    def __init__(self, side, crash_at=None):
        policy = RetryPolicy(rng=random.Random(SEED ^ 0x5EED),
                             max_attempts=1, deadline_ns=msecs(2),
                             reply_timeout_ns=msecs(1))
        self.cluster = PaperCluster(seed=SEED, ampere_nodes=0,
                                    storage_nodes=2, client_retry=policy)
        self.fleet = FleetClient(self.cluster)
        self.src, self.dst = self.cluster.shards
        self.side = side
        self.model = None
        self.outcome = None
        self._setup()
        self.crashed = self.dst if side == "dst" else self.src
        # Armed after the setup: the schedule numbers the move alone.
        self.recorder = CrashPointRecorder(
            self.crashed.node.pmem_devdax, crash_at=crash_at,
            power_fail=lambda: self.cluster.crash_server(
                self.crashed.index))

    def _setup(self):
        cluster, fleet = self.cluster, self.fleet
        fleet.ring.assign("acme", "model", self.src.name)
        fleet.ring.assign("beta", "base", self.dst.name)

        def setup(env):
            self.model = ModelInstance.materialize(
                "model", SPECS, cluster.volta.gpus[0], model_seed=SEED)
            session = yield from fleet.register(
                "acme", self.model, dedup=True, chunk_bytes=CHUNK)
            for step, only in ((1, None), (NEWEST, HEAD)):
                self.model.update_step(step, only=only)
                yield from session.checkpoint(step)
            # A tenant from the same base on the destination: its store
            # already holds the backbone, so the move pulls only the
            # model's step-2 head chunk and shares the rest.
            base = ModelInstance.materialize(
                "base", SPECS, cluster.volta.gpus[1], model_seed=SEED)
            other = yield from fleet.register(
                "beta", base, dedup=True, chunk_bytes=CHUNK)
            base.update_step(1)
            yield from other.checkpoint(1)

        cluster.run(setup)

    def run_migration(self):
        def migrate(env):
            try:
                yield from self.fleet.migrate("acme", "model",
                                              self.dst.name)
            except MigrationIncomplete:
                self.outcome = "incomplete"
            except ReproError:
                self.outcome = "failed"
            else:
                self.outcome = "ok"

        self.cluster.run(migrate)

    def recover_and_verify(self):
        """Leak-only contract: repair to clean (never an over-free),
        then a committed copy restores the newest acked step."""
        context = (f"{self.side} crash at {self.recorder.fired} "
                   f"(migration {self.outcome})")
        self.recorder.disarm()
        pool = PmemPool.open(self.crashed.node.pmem_devdax)
        result = repair(pool, obs=self.cluster.obs)
        assert result.clean, f"{context}:\n{result.describe()}"
        overfrees = [action for action in result.actions
                     if action.startswith("chunk-ref-overfree")]
        assert overfrees == [], f"{context}: {overfrees}"
        pool.close()
        self.cluster.restart_daemon(shard=self.crashed.index)
        live = self.src if self.crashed is self.dst else self.dst
        report = fsck(live.pool)
        assert report.clean, f"{context}, {live.name}:\n{report.describe()}"

        restored = []
        for shard in self.cluster.shards:
            if "model" not in shard.daemon.table:
                continue

            def recover(env, shard=shard):
                self.model.update_step(0)  # restore must rewrite all
                session = yield from self.cluster.portus_client(
                    shard=shard.index).register(
                        self.model, dedup=True, chunk_bytes=CHUNK)
                try:
                    return (yield from session.restore())
                except NoValidCheckpoint:
                    return None

            step = self.cluster.run(recover)
            if step is None:
                continue
            # Any copy that restores must be bit-exact for its step (a
            # stale source copy may still hold step 1).
            torn = [tensor.spec.name for tensor in self.model.tensors
                    if not tensor.content().equals(tensor.expected_content(
                        EXPECTED[tensor.spec.name] if step == NEWEST
                        else step))]
            assert torn == [], \
                f"{shard.name} restored a torn step {step} {torn}: {context}"
            restored.append((shard.name, step))
        assert any(step == NEWEST for _shard, step in restored), \
            f"no shard restores step {NEWEST} ({restored}): {context}"


def _boundary_schedule(side):
    episode = MigrationEpisode(side)
    episode.run_migration()
    assert episode.outcome == "ok"
    return episode.recorder.boundaries


def test_counting_pass_covers_every_boundary_kind():
    points = set()
    for side in ("dst", "src"):
        schedule = _boundary_schedule(side)
        points |= {line.split(":")[1] for line in schedule}
        ops = {line.split(":")[2] for line in schedule
               if line.split(":")[1] == "chunkref.update"}
        # The destination commits the reference delta in one apply;
        # the source's evict drops this model's references.
        assert ops == {"dst": {"apply"}, "src": {"unref"}}[side]
    assert points == {"record.write", "record.persist", "alloc.commit",
                      "free.release", "chunkref.update"}


@pytest.mark.parametrize("side", ["dst", "src"])
def test_power_loss_at_every_migration_boundary_is_leak_only(side):
    schedule = _boundary_schedule(side)
    for index in range(0, len(schedule), STRIDE):
        episode = MigrationEpisode(side, crash_at=index)
        episode.run_migration()
        assert episode.recorder.fired == schedule[index], \
            f"boundary {index} never fired (schedule drifted?)"
        episode.recover_and_verify()
