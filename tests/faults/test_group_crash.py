"""Group-commit crash sweep: power loss at every commit boundary.

The counting pass runs a group lifecycle — register a tp=2 x pp=2
group, then eight group dumps — with a :class:`CrashPointRecorder`
numbering every metadata boundary: each member's checkpoint record
writes (the per-shard DONE flips), the group record's own
``record.write``/``record.persist`` (the commit persist, inside the
member checkpoint that completes the step), and the daemon's manual
``group.ack`` point between the commit landing and that member's reply
leaving.  A second lifecycle makes three group dumps, the second of
which first fails on one member (every WR the server posts for it
fails) and is then retried — the window where the members that
finished both attempts must not overwrite the committed step.  Each
sweep replays its lifecycle once per boundary, power-failing the
storage server exactly there, and asserts the torn-group contract on
recovery:

* ``repair`` leaves the pool fsck-clean;
* group restore returns the newest *fully committed* group step — at
  least the newest acked dump, never a step that was never dumped;
* every member comes back at that same step, bit-exactly — a restore
  may NEVER return a mixed-step (torn) group.

The schedule is pure simulation: the same seed enumerates the same
boundaries byte-for-byte (``PORTUS_CRASHPOINT_STRIDE`` subsamples).
"""

import os
import random
import zlib

import pytest

from repro.core.group import register_group
from repro.core.retry import RetryPolicy
from repro.dnn.gpt import shard_gpt, tiny_gpt
from repro.dnn.layout import gpt_layout
from repro.dnn.tensor import ModelInstance
from repro.errors import (NoValidGroupCheckpoint, ReproError,
                          WorkRequestError)
from repro.faults import FaultInjector
from repro.faults.crashpoints import schedule_fingerprint
from repro.harness.cluster import PaperCluster
from repro.pmem import PmemPool
from repro.pmem.fsck import fsck, repair
from repro.units import msecs

pytestmark = pytest.mark.chaos

STRIDE = int(os.environ.get("PORTUS_CRASHPOINT_STRIDE", "1"))
SEED = int(os.environ.get("PORTUS_CRASHPOINT_SEED", "13"))
TRACE_PATH = os.environ.get("CHAOS_TRACE")


def _trace(line):
    if TRACE_PATH:
        with open(TRACE_PATH, "a") as fh:
            fh.write(line + "\n")

CONFIG = tiny_gpt()
TP, PP = 2, 2
LAYOUT = gpt_layout(CONFIG, TP, PP)
SHARDS = shard_gpt(CONFIG, TP, PP)
DUMP_STEPS = (1, 2, 3, 4, 5, 6, 7, 8)
#: Each lifecycle is its group dumps as ``(step, failing member)``: a
#: dump with a failing member is expected to raise and is not acked.
EIGHT_DUMPS = tuple((step, None) for step in DUMP_STEPS)
RETRIED_DUMPS = ((1, None), (2, SHARDS[-1].name), (2, None), (3, None))
MIN_BOUNDARIES = 200
MIN_RETRIED_BOUNDARIES = 100


class GroupEpisode:
    """One group lifecycle with a recorder armed at ``crash_at``."""

    def __init__(self, crash_at=None, dumps=EIGHT_DUMPS):
        policy = RetryPolicy(rng=random.Random(SEED ^ 0x6EED),
                             max_attempts=1, deadline_ns=msecs(2),
                             reply_timeout_ns=msecs(1))
        self.cluster = PaperCluster(seed=SEED, ampere_nodes=0,
                                    client_retry=policy)
        self.injector = FaultInjector(self.cluster.env, self.cluster)
        self.device = self.cluster.server.pmem_devdax
        self.recorder = self.injector.arm_crash_point(self.device,
                                                      crash_at=crash_at)
        self.dumps = dumps
        self.acked = []
        self.attempted = []
        self.instances = []
        self.phase = "init"

    def _bind_group(self, client):
        """Process: materialize + register every member, bind the group."""
        sessions = []
        self.instances = []
        for index, shard in enumerate(SHARDS):
            instance = ModelInstance.materialize(
                shard.name, shard.tensors,
                self.cluster.volta.gpus[index % 4],
                model_seed=SEED + index)
            session = yield from client.register(instance)
            self.instances.append(instance)
            sessions.append(session)
        group = yield from register_group(client, CONFIG.name, LAYOUT,
                                          sessions)
        return group

    def run_workload(self):
        cluster, recorder = self.cluster, self.recorder

        def lifecycle(env):
            try:
                self.phase = "register"
                group = yield from self._bind_group(
                    cluster.portus_client())
                for step, failing in self.dumps:
                    if recorder.fired:
                        return
                    self.phase = f"group-dump-{step}"
                    for instance in self.instances:
                        instance.update_step(step)
                    self.attempted.append(step)
                    if failing is None:
                        yield from group.dump(step)
                        self.acked.append(step)
                    else:
                        yield from self._failing_dump(group, step, failing)
                self.phase = "done"
            except ReproError:
                return

        cluster.run(lifecycle)

    def _failing_dump(self, group, step, member):
        """Process: a group dump during which every WR the server posts
        for *member* fails; it must raise (unless the power failed)."""
        nic = self.cluster.server.nic

        def hook(kind, label, _length):
            if member in label:
                return WorkRequestError(f"{label}: injected {kind} error")
            return None

        nic.fault_hook = hook
        try:
            yield from group.dump(step)
        except ReproError:
            return
        finally:
            nic.fault_hook = None
        assert self.recorder.fired, \
            f"dump {step} with {member} failing was acked"

    def recover_and_verify(self):
        """The post-crash contract: repair to clean, then one group
        restore that must be uniform, committed, and bit-exact."""
        context = (f"crash at {self.recorder.fired} during "
                   f"phase={self.phase} acked={self.acked}")
        self.recorder.disarm()

        pool = PmemPool.open(self.device)
        result = repair(pool, obs=self.cluster.obs)
        assert result.clean, f"{context}:\n{result.describe()}"
        report = fsck(pool)
        assert report.clean, f"{context}:\n{report.describe()}"
        pool.close()

        self.cluster.restart_daemon()
        cluster = self.cluster

        def recover(env):
            group = yield from self._bind_group(cluster.portus_client())
            try:
                step = yield from group.restore()
            except NoValidGroupCheckpoint:
                return None
            return step

        restored = self.cluster.run(recover)
        if self.acked:
            assert restored is not None, f"acked group steps lost: {context}"
            assert restored >= max(self.acked), \
                f"committed group step regressed: {context}"
        if restored is None:
            return None
        # An unacked step may legitimately survive (power cut at the
        # ack boundary still persisted the commit); a never-dumped step
        # may not.
        assert restored in self.attempted, \
            f"restored a never-dumped step: {context}"
        # THE torn-group assertion: every member at the same step,
        # holding exactly that step's bytes.
        steps = {instance.step for instance in self.instances}
        assert steps == {restored}, f"torn group {steps}: {context}"
        for instance in self.instances:
            mismatches = [
                tensor.spec.name for tensor in instance.tensors
                if not tensor.content().equals(
                    tensor.expected_content(restored))]
            assert mismatches == [], f"torn restore {mismatches}: {context}"
        return restored


def _boundary_schedule(dumps=EIGHT_DUMPS):
    episode = GroupEpisode(crash_at=None, dumps=dumps)
    episode.run_workload()
    assert episode.phase == "done"
    assert episode.acked == [step for step, failing in dumps
                             if failing is None]
    return episode.recorder.boundaries


def test_counting_pass_covers_group_commit_boundaries():
    episode = GroupEpisode(crash_at=None)
    episode.run_workload()
    assert episode.phase == "done" and episode.acked == list(DUMP_STEPS)
    points = {line.split(":")[1] for line in episode.recorder.boundaries}
    # The whole commit window must be in the schedule: the group
    # record's A/B write boundaries AND the post-persist ack point.
    assert "group.ack" in points
    group_lines = [line for line in episode.recorder.boundaries
                   if "portus-group" in line]
    assert any(":record.write:" in line for line in group_lines)
    assert any(":record.persist:" in line for line in group_lines)
    assert episode.recorder.count >= MIN_BOUNDARIES
    pool = PmemPool.open(episode.device)
    assert fsck(pool).clean  # a fault-free group lifecycle leaves no debris


#: The counting pass's :func:`schedule_fingerprint` at the default seed.
#: Re-pin only for a deliberate change to the metadata write order.
PINNED_SCHEDULE = (
    224, "1ed2bafd98f4c60a2cac7344f687872b0e9f18e3e1b59374babaf535488b7ca9")
#: The same, for the lifecycle whose dump 2 fails once and is retried.
PINNED_RETRIED_SCHEDULE = (
    145, "780c8db528cb003efb1d7b1db90a760cbd61d60ad850273b69518adcc0d60e2b")


def test_group_boundary_schedule_is_deterministic():
    first = _boundary_schedule()
    assert first == _boundary_schedule()
    if SEED == 13:  # pinned at the default seed
        assert schedule_fingerprint(first) == PINNED_SCHEDULE


def test_retried_dump_boundary_schedule_is_deterministic():
    first = _boundary_schedule(RETRIED_DUMPS)
    assert first == _boundary_schedule(RETRIED_DUMPS)
    if SEED == 13:  # pinned at the default seed
        assert schedule_fingerprint(first) == PINNED_RETRIED_SCHEDULE


def _sweep(dumps, label, min_boundaries):
    """Power-fail every STRIDE-th boundary of the *dumps* lifecycle,
    check each recovery, and trace the outcomes' CRC under *label*."""
    schedule = _boundary_schedule(dumps)
    assert len(schedule) >= min_boundaries
    outcomes = []
    for index in range(0, len(schedule), STRIDE):
        episode = GroupEpisode(crash_at=index, dumps=dumps)
        episode.run_workload()
        assert episode.recorder.fired is not None, \
            f"boundary {index} never fired (schedule drifted?)"
        assert episode.recorder.fired == schedule[index]
        restored = episode.recover_and_verify()
        outcomes.append(f"{schedule[index]}:restored={restored}")
    assert len(outcomes) == len(range(0, len(schedule), STRIDE))
    crc = zlib.crc32("\n".join(outcomes).encode())
    _trace(f"{label} seed={SEED} stride={STRIDE} "
           f"boundaries={len(schedule)} swept={len(outcomes)} "
           f"crc={crc:08x}")


def test_power_loss_at_every_group_boundary_recovers_untorn():
    _sweep(EIGHT_DUMPS, "group-crash", MIN_BOUNDARIES)


def test_power_loss_at_every_retried_dump_boundary_recovers_untorn():
    _sweep(RETRIED_DUMPS, "group-crash-retry", MIN_RETRIED_BOUNDARIES)
