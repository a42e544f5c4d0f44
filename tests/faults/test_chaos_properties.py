"""Randomized chaos sweeps over the full Portus datapath.

Each schedule drives a training loop through a seeded, well-formed
:class:`FaultPlan` (link flaps, WR completion faults and hangs, QP
errors, TCP drops, daemon crashes, power loss), then power-cycles the
server and checks the paper's crash-consistency contract end to end:

  * recovery exposes at most one restorable version — the newest DONE
    slot — and its bytes are bit-exact for some attempted step;
  * every *acknowledged* checkpoint is durable: the restored step is
    never older than the newest acked step;
  * a half-pulled (ACTIVE) slot is never served;
  * ``NoValidCheckpoint`` is only acceptable when nothing was ever
    acknowledged.

Knobs (environment variables):

  PORTUS_CHAOS_EXAMPLES  number of schedules to run (default 200)
  PORTUS_CHAOS_SEED      base seed (default 0)
  CHAOS_TRACE            append one deterministic line per schedule to
                         this file (used by scripts/check_determinism.sh)
"""

import os
import random

import pytest

from repro.core.index import FLAG_DONE
from repro.core.retry import RetryPolicy
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.errors import NoValidCheckpoint, ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.harness.cluster import PaperCluster
from repro.units import kib, msecs, usecs

pytestmark = pytest.mark.chaos

EXAMPLES = int(os.environ.get("PORTUS_CHAOS_EXAMPLES", "200"))
BASE_SEED = int(os.environ.get("PORTUS_CHAOS_SEED", "0"))
TRACE_PATH = os.environ.get("CHAOS_TRACE")

SPECS = [TensorSpec("block.weight", (512, 256)),
         TensorSpec("block.bias", (512,)),
         TensorSpec("head.weight", (16, 512))]
STEPS = 6
HORIZON_NS = msecs(4)
#: The multi-QP sweeps: 64 KiB segmentation splits block.weight
#: (512 KiB) into 8 WRs striped over 4 lanes, with the daemon-wide
#: PMem ingest limiter engaged — every engine mechanism under fault.
STRIPED_QPS = 4
STRIPED_ENGINE = dict(engine_chunk_bytes=kib(64), max_pmem_streams=4)
#: The dedup sweep: 64 KiB chunks, a full dump at step 1, then
#: head-only dumps, so chunk MRs outlive every operation under fault.
DEDUP_CHUNK = kib(64)
HEAD = {"head.weight"}


def _trace(line):
    if TRACE_PATH:
        with open(TRACE_PATH, "a") as fh:
            fh.write(line + "\n")


def run_chaos_schedule(seed, events=5, num_qps=1, engine=None,
                       dedup=False):
    """One full chaos episode; returns (acked, restored_step).

    With *dedup* the model uses the chunk layout and dumps only its
    head after step 1; each tensor must restore at its own step."""
    policy = RetryPolicy(rng=random.Random(seed ^ 0x5EED),
                         max_attempts=64,
                         deadline_ns=msecs(500),
                         reply_timeout_ns=msecs(10))
    daemon_kwargs = dict(request_timeout_ns=msecs(20),
                         lease_ns=msecs(5),
                         reaper_interval_ns=msecs(1))
    if engine is not None:
        daemon_kwargs.update(engine)
    cluster = PaperCluster(
        seed=seed, ampere_nodes=0,
        daemon_kwargs=daemon_kwargs,
        client_retry=policy, client_num_qps=num_qps)
    layout = dict(dedup=dedup, chunk_bytes=DEDUP_CHUNK if dedup else None)

    def setup(env):
        instance = ModelInstance.materialize("model", SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=seed)
        session = yield from cluster.portus_client().register(instance,
                                                              **layout)
        return instance, session

    instance, session = cluster.run(setup)
    plan = FaultPlan.random(random.Random(seed), horizon_ns=HORIZON_NS,
                            events=events)
    base = cluster.env.now
    injector = FaultInjector(cluster.env, cluster)
    injector.install(plan.shifted(base))
    acked, attempted = [], []

    def traffic(env):
        for step in range(1, STEPS + 1):
            instance.update_step(step,
                                 only=HEAD if dedup and step > 1 else None)
            attempted.append(step)
            try:
                yield from session.checkpoint(step)
                acked.append(step)
            except ReproError:
                pass
            yield env.timeout(usecs(300))
        # Let every recovery event in the plan (LINK_UP, DAEMON_RESTART,
        # fault-rate clears) fire before the final power cycle.
        remaining = base + plan.horizon_ns() + usecs(50) - env.now
        if remaining > 0:
            yield env.timeout(remaining)

    cluster.run(traffic)
    # The decisive crash: whatever the schedule left behind, power-cycle
    # the server and recover from PMem alone.
    cluster.crash_server()

    def downtime(env):
        yield env.timeout(usecs(200))

    cluster.run(downtime)
    cluster.restart_daemon()

    def recover(env):
        instance.update_step(0)  # scramble the weights: restore must win
        fresh = yield from cluster.portus_client().register(instance,
                                                            **layout)
        try:
            step = yield from fresh.restore()
        except NoValidCheckpoint:
            return None
        return step

    restored = cluster.run(recover)

    # -- the contract ---------------------------------------------------------------
    context = (f"seed={seed} plan=[{'; '.join(plan.describe().splitlines())}]"
               f" acked={acked}")
    if acked:
        assert restored is not None, f"acked steps lost entirely: {context}"
        assert restored >= max(acked), \
            f"restored step {restored} older than acked: {context}"
    if restored is not None:
        assert restored in attempted, \
            f"restored step {restored} was never written: {context}"
        entry = cluster.daemon.model_map["model"]
        version, step = entry.meta.restorable()
        assert step == restored
        flags = entry.meta.read_flags()
        assert flags.states[version] == FLAG_DONE  # never ACTIVE/torn
        mismatches = [
            tensor.name for tensor in instance.tensors
            if not tensor.content().equals(tensor.expected_content(
                restored if not dedup or tensor.name in HEAD else 1))
        ]
        assert mismatches == [], f"torn restore {mismatches}: {context}"
    _trace(f"seed={seed} acked={acked} restored={restored} "
           f"plan=[{'; '.join(plan.describe().splitlines())}]")
    return acked, restored


def test_chaos_schedules_preserve_crash_consistency():
    outcomes = {"restored": 0, "acked_some": 0, "empty": 0}
    for index in range(EXAMPLES):
        acked, restored = run_chaos_schedule(BASE_SEED + index)
        if restored is not None:
            outcomes["restored"] += 1
        if acked:
            outcomes["acked_some"] += 1
        else:
            outcomes["empty"] += 1
    # The sweep must actually exercise recovery, not degenerate into
    # all-failures or all-clean runs.
    assert outcomes["restored"] > 0
    assert outcomes["acked_some"] > 0


def test_chaos_schedule_is_deterministic():
    first = run_chaos_schedule(BASE_SEED + 1_000_003)
    second = run_chaos_schedule(BASE_SEED + 1_000_003)
    assert first == second


def test_chaos_multi_qp_striped_engine_preserves_crash_consistency():
    """Satellite: randomized fault schedules over multi-QP, segmented,
    ingest-limited checkpoints still recover to exactly one newest DONE
    version, bit-exact (the full contract in run_chaos_schedule)."""
    outcomes = {"restored": 0, "acked_some": 0}
    for index in range(max(EXAMPLES // 4, 10)):
        acked, restored = run_chaos_schedule(
            BASE_SEED + 7_000_000 + index,
            num_qps=STRIPED_QPS, engine=STRIPED_ENGINE)
        if restored is not None:
            outcomes["restored"] += 1
        if acked:
            outcomes["acked_some"] += 1
    assert outcomes["restored"] > 0
    assert outcomes["acked_some"] > 0


def test_chaos_dedup_preserves_crash_consistency():
    """Randomized fault schedules over a dedup model (a full dump, then
    head-only dumps): its chunk MRs outlive each operation, and daemon
    crashes, power loss, client kills, WR faults and lease reaping must
    invalidate them — the contract in run_chaos_schedule still holds,
    bit-exact per tensor at its own step."""
    outcomes = {"restored": 0, "acked_some": 0}
    for index in range(max(EXAMPLES // 4, 10)):
        acked, restored = run_chaos_schedule(BASE_SEED + 9_000_000 + index,
                                             dedup=True)
        if restored is not None:
            outcomes["restored"] += 1
        if acked:
            outcomes["acked_some"] += 1
    assert outcomes["restored"] > 0
    assert outcomes["acked_some"] > 0


def test_chaos_multi_qp_schedule_is_deterministic():
    first = run_chaos_schedule(BASE_SEED + 2_000_003,
                               num_qps=STRIPED_QPS, engine=STRIPED_ENGINE)
    second = run_chaos_schedule(BASE_SEED + 2_000_003,
                                num_qps=STRIPED_QPS, engine=STRIPED_ENGINE)
    assert first == second


try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    @settings(max_examples=15, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           events=st.integers(min_value=1, max_value=8))
    def test_chaos_property_hypothesis(seed, events):
        run_chaos_schedule(seed, events=events)
