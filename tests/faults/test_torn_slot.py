"""Torn-slot chaos property: aborted pulls never poison restorable data.

The window under test (the abort-semantics bug this suite pins down):

1. two clean checkpoints leave BOTH version slots DONE at real steps;
2. the next checkpoint targets the older DONE slot — ``begin`` stamps it
   ACTIVE and the engine starts overwriting its TensorData in place;
3. the pull dies partway (WR faults/hangs, client gives up) and the
   daemon aborts.

The old abort rolled the slot straight back to DONE at its *old* step —
but part of its bytes now belong to the aborted step: a torn slot that a
later crash or repack pass could end up serving.  The fixed abort
invalidates a dirty slot (EMPTY, step 0) and only rolls back untouched
ones.

Each seeded schedule drives begin → partial-pull → abort interleavings
and an aftermath (daemon crash, power loss, offline repack, or a
combination), then asserts the invariant *directly on the slots* —
every DONE slot's TensorData must be bit-exact for its stamped step —
rather than only through ``ModelMeta.restorable``, which the newest DONE
slot would shadow.

Knobs: PORTUS_TORN_EXAMPLES (default 200), PORTUS_TORN_SEED (default 0),
CHAOS_TRACE (append one line per schedule, for determinism diffing).
"""

import os
import random

import pytest

from repro.core.index import FLAG_DONE, FLAG_EMPTY
from repro.core.repack import repack_live
from repro.core.retry import RetryPolicy
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.errors import NoValidCheckpoint, ReproError
from repro.faults import FaultInjector
from repro.harness.cluster import PaperCluster
from repro.pmem import PmemPool
from repro.units import kib, msecs, usecs

pytestmark = pytest.mark.chaos

EXAMPLES = int(os.environ.get("PORTUS_TORN_EXAMPLES", "200"))
BASE_SEED = int(os.environ.get("PORTUS_TORN_SEED", "0"))
TRACE_PATH = os.environ.get("CHAOS_TRACE")

#: 64 KiB segmentation splits block.weight (512 KiB) into 8 WRs, so a
#: faulted pull usually lands *some* bytes before dying — the partial
#: overwrite that makes the slot torn.
SPECS = [TensorSpec("block.weight", (512, 256)),
         TensorSpec("block.bias", (512,)),
         TensorSpec("head.weight", (16, 512))]
ENGINE = dict(engine_chunk_bytes=kib(64))
AFTERMATHS = ("restart", "crash", "repack", "crash+repack")


def _trace(line):
    if TRACE_PATH:
        with open(TRACE_PATH, "a") as fh:
            fh.write(line + "\n")


def _assert_done_slots_bit_exact(meta, instance, context):
    """The core invariant: any slot a restore could ever trust holds
    exactly the bytes of the step stamped on it."""
    flags = meta.read_flags()
    by_name = {tensor.spec.name: tensor for tensor in instance.tensors}
    for version in (0, 1):
        if flags.states[version] != FLAG_DONE:
            continue
        if meta.layout.regions[version] is None:
            continue
        step = flags.steps[version]
        assert step > 0, f"DONE slot without a step: {context}"
        torn = [
            descriptor.name
            for descriptor in meta.mindex.descriptors
            if not meta.read_tensor(descriptor, version).equals(
                by_name[descriptor.name].expected_content(step))
        ]
        assert torn == [], \
            f"slot v{version} DONE@{step} serves torn tensors {torn}: " \
            f"{context}"
    return flags


def run_torn_slot_schedule(seed):
    """One episode; returns a deterministic signature tuple."""
    rng = random.Random(seed)
    policy = RetryPolicy(rng=random.Random(seed ^ 0x70A2),
                         max_attempts=rng.choice([1, 2, 3]),
                         deadline_ns=msecs(2),
                         reply_timeout_ns=msecs(1))
    cluster = PaperCluster(
        seed=seed, ampere_nodes=0,
        daemon_kwargs=dict(request_timeout_ns=usecs(600),
                           lease_ns=msecs(5),
                           reaper_interval_ns=msecs(1),
                           **ENGINE),
        client_retry=policy)
    injector = FaultInjector(cluster.env, cluster)

    def setup(env):
        instance = ModelInstance.materialize("model", SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=seed)
        session = yield from cluster.portus_client().register(instance)
        # Two clean checkpoints: both slots DONE at steps > 0.  Only now
        # can an abort roll the target back onto real (old) data — the
        # torn-slot window needs a slot with history.
        for step in (1, 2):
            instance.update_step(step)
            yield from session.checkpoint(step)
        return instance, session

    instance, session = cluster.run(setup)
    acked = [1, 2]

    def faulted_traffic(env):
        step = 2
        for _ in range(rng.randint(2, 4)):
            step += 1
            injector.set_wr_fault_rate(
                "server",
                rate=rng.choice([0.05, 0.1, 0.2, 0.35]),
                hang_rate=rng.choice([0.0, 0.05, 0.15]))
            instance.update_step(step)
            try:
                yield from session.checkpoint(step)
                acked.append(step)
            except ReproError:
                pass
            yield env.timeout(usecs(100))
        injector.set_wr_fault_rate("server", rate=0.0)
        yield env.timeout(usecs(200))

    cluster.run(faulted_traffic)
    dirty_aborts = cluster.obs.metrics.value(
        "daemon.checkpoints_aborted_dirty")
    invalidated = any(
        state == FLAG_EMPTY
        for state in cluster.daemon.model_map["model"]
                            .meta.read_flags().states)

    aftermath = rng.choice(AFTERMATHS)
    if aftermath in ("crash", "crash+repack"):
        cluster.crash_server()
    else:
        cluster.kill_daemon()
    def downtime(env):
        yield env.timeout(usecs(200))

    cluster.run(downtime)
    if aftermath in ("repack", "crash+repack"):
        # Offline repack between death and restart, as Portusctl would.
        pool = PmemPool.open(cluster.server.pmem_devdax)

        def offline_repack(env):
            report = yield from repack_live(env, pool)
            return report

        cluster.run(offline_repack)
    cluster.restart_daemon()

    def recover(env):
        instance.update_step(0)  # scramble: restore must rewrite all
        fresh = yield from cluster.portus_client().register(instance)
        try:
            step = yield from fresh.restore()
        except NoValidCheckpoint:
            return None
        return step

    restored = cluster.run(recover)
    context = (f"seed={seed} acked={acked} aftermath={aftermath} "
               f"dirty_aborts={dirty_aborts} restored={restored}")

    # Acked steps survive every aftermath, and the newest one wins.
    assert restored is not None, f"acked steps lost: {context}"
    assert restored >= max(acked), f"restore went backwards: {context}"
    assert restored in acked, f"restored an unacked step: {context}"
    mismatches = [
        tensor.spec.name for tensor in instance.tensors
        if not tensor.content().equals(tensor.expected_content(restored))
    ]
    assert mismatches == [], f"torn restore {mismatches}: {context}"

    # The direct slot invariant, post-recovery.
    meta = cluster.daemon.model_map["model"].meta
    _assert_done_slots_bit_exact(meta, instance, context)

    _trace(f"seed={seed} acked={acked} aftermath={aftermath} "
           f"dirty_aborts={dirty_aborts} invalidated={invalidated} "
           f"restored={restored}")
    return (tuple(acked), aftermath, dirty_aborts, invalidated, restored)


def test_torn_slot_schedules_never_serve_torn_data():
    dirty_hit = 0
    invalidated_hit = 0
    failures = 0
    for index in range(EXAMPLES):
        signature = run_torn_slot_schedule(BASE_SEED + index)
        acked, _aftermath, dirty_aborts, invalidated, _restored = signature
        if dirty_aborts:
            dirty_hit += 1
        if invalidated:
            invalidated_hit += 1
        if len(acked) < 2 + 4:
            failures += 1
    # The sweep must actually open the window it claims to test: some
    # schedules abort with bytes already landed (the dirty path), and in
    # some of those the torn slot is observably invalidated before a
    # successful retry reuses it.
    assert dirty_hit > 0, "no schedule exercised the dirty-abort path"
    assert invalidated_hit > 0, \
        "no schedule left an invalidated slot to observe"
    assert failures > 0, "every faulted checkpoint succeeded — the " \
                         "fault rates no longer bite"


def test_torn_slot_schedule_is_deterministic():
    first = run_torn_slot_schedule(BASE_SEED + 424_243)
    second = run_torn_slot_schedule(BASE_SEED + 424_243)
    assert first == second
