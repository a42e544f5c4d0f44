"""The benchmark's workloads, each built from a seed.

A workload runs in *passes*.  One pass builds a fresh cluster and
registers its models (the set-up), then runs the measured phase: the
dumps and a final restore that is checked bit-exact.  Every pass of one
workload at one seed is the same simulation, so its simulated results
must repeat exactly; only the host clock differs between passes.  Host
time is the process's CPU time: the simulator is single-threaded, so on
an idle machine it equals wall time, and it leaves out time the machine
gave to other processes.

The seed draws the workload's inputs: model contents, and the width of
each model's output layer (the GPT vocabulary, a classifier's class
count) within 1% of its usual size, so that each seed checkpoints a
slightly different model.  Everything else is fixed per scale.

The benchmark drives only the public API: ``PaperCluster``,
``PortusClient.register``, ``ModelSession.checkpoint/restore``,
``register_group``/``GroupSession.dump/restore``, ``FleetClient`` and
``cluster.tenants.register_tenant``.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Callable, Dict, List

from repro.core.group import register_group
from repro.core.retry import RetryPolicy
from repro.dnn.gpt import GptConfig, shard_gpt
from repro.dnn.layout import gpt_layout
from repro.dnn.models import ModelSpec
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.dnn.zoo import build_zoo_model, head_tensor_names
from repro.errors import ReproError
from repro.fleet import FleetClient, generate_tenants
from repro.fleet.workload import place_on_cluster
from repro.harness.cluster import PaperCluster
from repro.units import mib, msecs, secs

#: Training-step number written into every model just before a restore,
#: so the restore has to overwrite each tensor to pass the check.
SCRAMBLE_STEP = 10_000

#: Classifier width of the zoo models the class-count draw replaces.
ZOO_CLASSES = 1000


class CorrectnessError(AssertionError):
    """A check on the program's output failed."""


class Pass:
    """What one pass of a workload measured, on both clocks."""

    def __init__(self, cluster: PaperCluster) -> None:
        self.cluster = cluster
        #: The measured phase: a process generator function of ``env``.
        self.measured: Callable = None
        self.setup_s = 0.0
        self.host_s = 0.0
        #: One entry per dump sample: the models it covers and its
        #: simulated start/end (start is the due time in the open loop).
        self.steps: List[Dict] = []
        #: The restore phase: the models restored, its simulated window,
        #: and when the restore calls themselves began.
        self.restore: Dict = {}
        self.logical_bytes = 0
        self.ops_attempted = 0
        self.ops_failed = 0
        self.ticks_scheduled = 0
        self.ticks_missed = 0
        self._digest = hashlib.sha256()

    def ack(self, model: str, step, ack_ns: int) -> None:
        """Fold one acknowledged (model, step, simulated time) in."""
        self._digest.update(f"{model}|{step}|{ack_ns};".encode())

    @property
    def sim_digest(self) -> str:
        return self._digest.hexdigest()[:16]

    @property
    def samples_ns(self) -> List[int]:
        return [step["end"] - step["start"] for step in self.steps]

    def attempt(self, operation):
        """Process: one checkpoint or restore call, counted; returns
        ``(True, result)`` or ``(False, None)`` if it raised."""
        self.ops_attempted += 1
        try:
            return True, (yield from operation)
        except ReproError:
            self.ops_failed += 1
            return False, None


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CorrectnessError(message)


def check_restored(instance: ModelInstance, step_of: Callable[[str], int],
                   label: str) -> None:
    """Every tensor of *instance* holds its canonical bytes at the step
    *step_of(tensor name)* returns."""
    bad = [tensor.name for tensor in instance.tensors
           if not tensor.content().equals(
               tensor.expected_content(step_of(tensor.name)))]
    check(not bad, f"{label}: restore not bit-exact, {len(bad)} tensors "
                   f"differ (first {bad[:3]})")


def with_classes(spec: ModelSpec, classes: int) -> ModelSpec:
    """*spec* with its classifier widened or narrowed to *classes*."""
    head = set(head_tensor_names(spec))
    tensors = [
        TensorSpec(tensor.name, (classes,) + tensor.shape[1:], tensor.dtype)
        if tensor.name in head and tensor.shape[0] == ZOO_CLASSES
        else tensor
        for tensor in spec.tensors]
    return ModelSpec(spec.name, tensors, spec.iteration_ns)


def _classes(rng: random.Random) -> int:
    return ZOO_CLASSES + rng.randrange(ZOO_CLASSES // 200)


# -- parallel GPT groups ----------------------------------------------------


def _gpt_config(name: str, hidden: int, layers: int, heads: int,
                seq_length: int, vocab: int, tp: int,
                rng: random.Random) -> GptConfig:
    # The vocabulary is padded to a multiple of the TP degree, as
    # Megatron does, and drawn from the 1% above *vocab*.
    vocab += tp * rng.randrange(max(2, vocab // (100 * tp)))
    return GptConfig(name, hidden=hidden, layers=layers, heads=heads,
                     seq_length=seq_length, vocab_size=vocab)


def _register_members(cluster: PaperCluster, instances) -> List:
    sessions = []
    for node, instance in instances:
        session = yield from cluster.portus_client(node).register(instance)
        sessions.append(session)
    return sessions


def _group_pass(seed: int, config: GptConfig, tracing: bool):
    """A cluster with every TP8 x PP2 shard of *config* materialized on
    the Ampere GPUs (one pipeline stage per node), registered, and bound
    into one group."""
    tp, pp = 8, 2
    cluster = PaperCluster(seed=seed, ampere_nodes=2, tracing=tracing)
    layout = gpt_layout(config, tp, pp)
    instances = []
    for index, shard in enumerate(shard_gpt(config, tp, pp)):
        node = cluster.amperes[index // 8]
        instances.append((node, ModelInstance.materialize(
            shard.name, shard.tensors, node.gpus[index % 8],
            model_seed=seed + index)))

    def setup(env):
        sessions = yield from _register_members(cluster, instances)
        lead = cluster.portus_client(cluster.amperes[0])
        return (yield from register_group(lead, config.name, layout,
                                          sessions))

    group = cluster.run(setup)
    return Pass(cluster), layout, instances, group


def _group_dumps(env, result_pass: Pass, group, instances,
                 steps: int) -> None:
    """Process: a closed loop of *steps* group dumps."""
    for step in range(1, steps + 1):
        for _node, instance in instances:
            instance.update_step(step)
        start = env.now
        ok, _ = yield from result_pass.attempt(group.dump(step))
        if not ok:
            continue
        result_pass.steps.append({"start": start, "end": env.now,
                                  "models": group.members,
                                  "lead": group.members[0]})
        result_pass.logical_bytes += sum(instance.total_bytes
                                         for _n, instance in instances)
        result_pass.ack(group.name, step, env.now)
        for member, session in sorted(group.sessions.items()):
            result_pass.ack(member, step, session.last_checkpoint_ns)


def _group_restore(env, result_pass: Pass, group, instances,
                   window_start: int) -> None:
    """Process: scramble every member, restore the group, check it."""
    for _node, instance in instances:
        instance.update_step(SCRAMBLE_STEP)
    called = env.now
    ok, step = yield from result_pass.attempt(group.restore())
    check(ok, f"{group.name}: group restore raised")
    result_pass.restore = {"start": window_start, "called": called,
                           "end": env.now, "models": group.members}
    result_pass.ack(group.name, f"restore{step}", env.now)
    check(step == group.committed_step,
          f"{group.name}: restored step {step} != committed "
          f"{group.committed_step}")
    for _node, instance in instances:
        check(instance.step == step,
              f"{instance.name}: member restored step {instance.step}, "
              f"group committed {step}")
        check_restored(instance, lambda _name: step, instance.name)


def gpt_dump_restore(seed: int, scale: Dict, tracing: bool) -> Pass:
    config = _gpt_config(scale["config"], scale["hidden"], scale["layers"],
                         scale["heads"], scale["seq_length"], scale["vocab"],
                         8, random.Random(seed))
    result_pass, layout, instances, group = _group_pass(seed, config,
                                                        tracing)
    cluster = result_pass.cluster

    def measured(env):
        yield from _group_dumps(env, result_pass, group, instances,
                                scale["steps"])
        # Power-fail the server, bring a new daemon up on the recovered
        # pool, and reattach every member before restoring.
        cluster.crash_server()
        cluster.restart_daemon()
        restarted = env.now
        sessions = yield from _register_members(cluster, instances)
        lead = cluster.portus_client(cluster.amperes[0])
        rebound = yield from register_group(lead, config.name, layout,
                                            sessions)
        yield from _group_restore(env, result_pass, rebound, instances,
                                  restarted)

    result_pass.measured = measured
    return result_pass


def group_small_steps(seed: int, scale: Dict, tracing: bool) -> Pass:
    config = _gpt_config("gpt-tiny", 64, 3, 8, 32, 64, 8,
                         random.Random(seed))
    result_pass, _layout, instances, group = _group_pass(seed, config,
                                                         tracing)

    def measured(env):
        yield from _group_dumps(env, result_pass, group, instances,
                                scale["steps"])
        yield from _group_restore(env, result_pass, group, instances,
                                  env.now)

    result_pass.measured = measured
    return result_pass


# -- the fleet open loop ----------------------------------------------------

#: The small end of the zoo: the open loop needs many concurrent models.
FLEET_MODELS = ("resnet18", "resnet34", "swin_t", "convnext_tiny")
#: Every 4th tenant runs under this token-bucket bandwidth budget.
FLEET_BUDGET_BPS = mib(32)


def fleet_open_loop(seed: int, scale: Dict, tracing: bool) -> Pass:
    rng = random.Random(seed)
    tenants = generate_tenants(scale["tenants"], seed=seed,
                               models=FLEET_MODELS)
    specs = {name: build_zoo_model(name) for name in FLEET_MODELS}
    # Open-loop clients retry for as long as the deadline allows; the
    # admission hints pace them.  The reply timeout must exceed a
    # contended dump, or duplicate pulls melt the measured tail.
    policy = RetryPolicy(rng=random.Random(seed ^ 0xF1EE7),
                         max_attempts=512, deadline_ns=secs(12),
                         reply_timeout_ns=secs(4))
    cluster = PaperCluster(seed=seed, ampere_nodes=2, tracing=tracing,
                           storage_nodes=scale["shards"],
                           client_retry=policy,
                           admission=dict(max_ingests=4,
                                          retry_after_ns=msecs(10)))
    result_pass = Pass(cluster)
    fleet = FleetClient(cluster)
    for index, tenant in enumerate(tenants):
        if index % 4 == 3:
            cluster.tenants.register_tenant(tenant.name,
                                            bandwidth_bps=FLEET_BUDGET_BPS)

    def setup(env):
        sessions = []
        for tenant in tenants:
            node, gpu = place_on_cluster(cluster, tenant)
            instance = cluster.materialize(
                with_classes(specs[tenant.model], _classes(rng)),
                node=node, gpu=gpu, seed=tenant.model_seed,
                instance_name=tenant.instance_name)
            session = yield from fleet.register(tenant.name, instance,
                                                node=node)
            sessions.append((tenant, session))
        return sessions

    sessions = cluster.run(setup)
    period_ns = msecs(scale["period_ms"])
    acked: Dict[str, int] = {}

    def run_tenant(env, tenant, session):
        period = tenant.frequency * period_ns
        due = env.now + period
        model = session.model
        for step in range(1, scale["ticks"] + 1):
            result_pass.ticks_scheduled += 1
            if env.now > due:
                # The previous dump overran this tick: an open loop
                # skips it rather than queueing.
                result_pass.ticks_missed += 1
                due += period
                continue
            yield env.timeout(due - env.now)
            model.update_step(step)
            ok, _ = yield from result_pass.attempt(session.checkpoint(step))
            if not ok or env.now - due > period:
                result_pass.ticks_missed += 1
            if ok:
                result_pass.steps.append({"start": due, "end": env.now,
                                          "models": [model.name]})
                result_pass.logical_bytes += model.total_bytes
                result_pass.ack(model.name, step, env.now)
                acked[model.name] = step
            due += period

    def restore_one(env, session):
        model = session.model
        model.update_step(SCRAMBLE_STEP)
        ok, step = yield from result_pass.attempt(session.restore())
        check(ok, f"{model.name}: restore raised")
        result_pass.ack(model.name, f"restore{step}", env.now)
        check(step == acked[model.name],
              f"{model.name}: restored step {step}, newest acked "
              f"{acked[model.name]}")
        check_restored(model, lambda _name: step, model.name)

    def measured(env):
        loops = [env.process(run_tenant(env, tenant, session))
                 for tenant, session in sessions]
        for loop in loops:
            yield loop
        # Every tenant with a checkpoint restores its newest at once.
        restoring = [session for _tenant, session in sessions
                     if session.model.name in acked]
        start = env.now
        restores = [env.process(restore_one(env, session))
                    for session in restoring]
        for restore in restores:
            yield restore
        result_pass.restore = {
            "start": start, "called": start, "end": env.now,
            "models": [session.model.name for session in restoring]}

    result_pass.measured = measured
    return result_pass


# -- deduplicated fine-tune -------------------------------------------------


def dedup_finetune(seed: int, scale: Dict, tracing: bool) -> Pass:
    spec = with_classes(build_zoo_model(scale["model"]),
                        _classes(random.Random(seed)))
    head = set(head_tensor_names(spec))
    cluster = PaperCluster(seed=seed, tracing=tracing)
    result_pass = Pass(cluster)
    instance = ModelInstance.materialize(
        spec.name, spec.tensors, cluster.volta.gpus[0], model_seed=seed)
    session = cluster.run(
        lambda env: cluster.portus_client().register(instance, dedup=True))
    last = scale["steps"] + 1

    def measured(env):
        # One full dump, then head-only fine-tune dumps.
        for step in range(1, last + 1):
            instance.update_step(step, only=None if step == 1 else head)
            start = env.now
            ok, _ = yield from result_pass.attempt(session.checkpoint(step))
            if not ok:
                continue
            result_pass.steps.append({"start": start, "end": env.now,
                                      "models": [instance.name]})
            result_pass.logical_bytes += instance.total_bytes
            result_pass.ack(instance.name, step, env.now)
        instance.update_step(SCRAMBLE_STEP)
        start = env.now
        ok, step = yield from result_pass.attempt(session.restore())
        check(ok, f"{instance.name}: restore raised")
        result_pass.restore = {"start": start, "called": start,
                               "end": env.now, "models": [instance.name]}
        result_pass.ack(instance.name, f"restore{step}", env.now)
        check(step == last, f"{instance.name}: restored step {step}, "
                            f"newest acked {last}")
        # The restored state mixes steps: the head at the newest, the
        # frozen backbone at the full dump's.
        check_restored(instance,
                       lambda name: last if name in head else 1,
                       instance.name)

    result_pass.measured = measured
    return result_pass


class Workload:
    """A named workload: how to set up a pass, and its sizes per scale."""

    def __init__(self, name: str, setup: Callable[[int, Dict, bool], Pass],
                 scales: Dict[str, Dict]) -> None:
        self.name = name
        self.setup = setup
        self.scales = scales

    def run_pass(self, seed: int, scale: str = "full",
                 tracing: bool = False) -> Pass:
        """Set up and measure one pass, timing both on the host."""
        started = time.process_time()
        result_pass = self.setup(seed, self.scales[scale], tracing)
        result_pass.setup_s = time.process_time() - started
        started = time.process_time()
        result_pass.cluster.run(result_pass.measured)
        result_pass.host_s = time.process_time() - started
        return result_pass


#: The reasons each workload exists live beside its name in
#: BENCHMARK.json; the sizes live here.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("gpt_dump_restore", gpt_dump_restore, {
        "full": dict(config="gpt-125m", hidden=768, layers=12, heads=12,
                     seq_length=1024, vocab=50304, steps=2),
        "smoke": dict(config="gpt-smoke", hidden=128, layers=2, heads=8,
                      seq_length=128, vocab=4096, steps=2)}),
    Workload("group_small_steps", group_small_steps, {
        "full": dict(steps=20),
        "smoke": dict(steps=3)}),
    Workload("fleet_open_loop", fleet_open_loop, {
        "full": dict(tenants=12, shards=2, ticks=3, period_ms=700),
        "smoke": dict(tenants=4, shards=2, ticks=2, period_ms=400)}),
    Workload("dedup_finetune", dedup_finetune, {
        "full": dict(model="vit_l_32", steps=10),
        "smoke": dict(model="resnet18", steps=3)}),
)}
