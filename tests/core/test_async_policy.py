"""Tests for Portus sync/async checkpoint policies (Fig. 9 semantics)."""

import pytest

from repro.core.async_ckpt import PortusAsyncPolicy, PortusSyncPolicy
from repro.dnn.training import TrainingJob
from repro.harness.cluster import PaperCluster
from repro.ops.policy import AdaptiveIntervalController
from repro.units import msecs, secs


def run_policy(cluster, model_name, policy_cls, iterations, iteration_ns,
               frequency):
    holder = {}

    def scenario(env):
        session = yield from cluster.portus_register(model_name)
        policy = policy_cls(env, [session], frequency=frequency)
        job = TrainingJob(env, [session.model], iteration_ns=iteration_ns,
                          hook=policy)
        holder.update(session=session, policy=policy, job=job)
        yield from job.run(iterations)

    cluster.run(scenario)
    return holder["session"], holder["policy"], holder["job"]


def test_async_hides_small_model_checkpoint():
    """ResNet50 pull (~17 ms) fits inside F+B of a 120 ms iteration:
    async overhead ~ zero, sync pays the full pull every time."""
    sync_cluster = PaperCluster(seed=2)
    _s, sync_policy, sync_job = run_policy(
        sync_cluster, "resnet50", PortusSyncPolicy, iterations=20,
        iteration_ns=msecs(120), frequency=1)

    async_cluster = PaperCluster(seed=2)
    _s, async_policy, async_job = run_policy(
        async_cluster, "resnet50", PortusAsyncPolicy, iterations=20,
        iteration_ns=msecs(120), frequency=1)

    assert async_policy.stall_ns == 0
    assert sync_policy.stall_ns > 0
    assert async_job.elapsed_ns < sync_job.elapsed_ns
    # Async training time == pure compute (checkpointing fully hidden).
    assert async_job.elapsed_ns == pytest.approx(20 * msecs(120),
                                                 rel=0.01)


def test_async_checkpoints_are_consistent_not_torn():
    """The after_backward barrier prevents the optimizer update from
    racing the pull: every persisted checkpoint is bit-exact."""
    cluster = PaperCluster(seed=3)
    session, policy, _job = run_policy(
        cluster, "vgg19_bn", PortusAsyncPolicy, iterations=6,
        iteration_ns=msecs(100), frequency=2)
    assert policy.checkpoints_taken == 3
    entry = cluster.daemon.model_map["vgg19_bn"]
    version, step = entry.meta.restorable()
    assert step == 6
    for tensor, descriptor in zip(session.model.tensors,
                                  entry.meta.mindex.descriptors):
        stored = entry.meta.read_tensor(descriptor, version)
        assert stored.equals(tensor.expected_content(step))


def test_async_stalls_when_pull_exceeds_fb_window():
    """A pull longer than F+B must stall at the barrier (the GPT case)."""
    cluster = PaperCluster(seed=4)
    # BERT pull ~232 ms; iteration 100 ms => F+B ~80 ms < pull.
    _s, policy, job = run_policy(
        cluster, "bert_large", PortusAsyncPolicy, iterations=6,
        iteration_ns=msecs(100), frequency=2)
    assert policy.stall_ns > 0
    assert policy.barrier_waits > 0
    util = job.recorders[0].utilization(job.started_at, job.finished_at)
    assert util < 1.0


def test_async_beats_sync_even_when_stalling():
    """Overlap with F+B always recovers some of the pull time."""
    sync_cluster = PaperCluster(seed=5)
    _s, _p, sync_job = run_policy(
        sync_cluster, "bert_large", PortusSyncPolicy, iterations=6,
        iteration_ns=msecs(100), frequency=2)
    async_cluster = PaperCluster(seed=5)
    _s, _p, async_job = run_policy(
        async_cluster, "bert_large", PortusAsyncPolicy, iterations=6,
        iteration_ns=msecs(100), frequency=2)
    assert async_job.elapsed_ns < sync_job.elapsed_ns


def test_job_end_drains_outstanding_checkpoint():
    cluster = PaperCluster(seed=6)
    _session, policy, _job = run_policy(
        cluster, "alexnet", PortusAsyncPolicy, iterations=4,
        iteration_ns=msecs(50), frequency=4)
    # The checkpoint fired on the last iteration; drain must have
    # completed it before the job ended.
    assert cluster.obs.metrics.value("daemon.checkpoints_completed") == 1
    entry = cluster.daemon.model_map["alexnet"]
    assert entry.meta.restorable()[1] == 4


def test_policy_rejects_bad_frequency():
    cluster = PaperCluster(seed=7)
    with pytest.raises(ValueError):
        PortusSyncPolicy(cluster.env, [], frequency=0)
    with pytest.raises(ValueError):
        PortusAsyncPolicy(cluster.env, [], frequency=0)


def test_async_needs_exactly_one_of_frequency_and_controller():
    cluster = PaperCluster(seed=7)
    controller = AdaptiveIntervalController()
    with pytest.raises(ValueError):
        PortusAsyncPolicy(cluster.env, [])
    with pytest.raises(ValueError):
        PortusAsyncPolicy(cluster.env, [], frequency=2,
                          controller=controller)


def test_adaptive_interval_shortens_mid_run_after_failures():
    """The live Young/Daly feed: failures the operator reports mid-run
    shrink the MTBF estimate, and the policy's next per-iteration
    decision checkpoints more often — no restart, no re-plumbing."""
    cluster = PaperCluster(seed=8)
    holder = {}

    def scenario(env):
        session = yield from cluster.portus_register("bert_large")
        controller = AdaptiveIntervalController(
            min_interval_ns=msecs(100), max_interval_ns=secs(120),
            prior_mtbf_ns=secs(30), prior_cost_ns=msecs(150))
        controller.observe_start(env.now)
        policy = PortusAsyncPolicy(env, [session], controller=controller)
        job = TrainingJob(env, [session.model],
                          iteration_ns=msecs(100), hook=policy)
        holder.update(policy=policy, job=job, controller=controller)

        def storm(env):
            # A burst of daemon deaths two simulated seconds in — what
            # the remediation operator would report while healing them.
            yield env.timeout(secs(2))
            for _ in range(9):
                controller.observe_failure(env.now)

        env.process(storm(env), name="failure-storm")
        yield from job.run(60)

    cluster.run(scenario)
    policy, controller = holder["policy"], holder["controller"]
    decided = dict(policy.frequencies_used)
    # Before the storm (iteration 5, t=0.5s) the prior MTBF holds; after
    # it (iteration 60, t>=6s) nine failures shrink the estimate and the
    # recommended interval with it.
    assert decided[60] < decided[5] / 2
    assert controller.failures == 9
    # The shorter interval really produced more checkpoints than the
    # pre-storm frequency would have allowed over 60 iterations.
    assert policy.checkpoints_taken > 60 // decided[5]
    assert policy.checkpoints_taken == cluster.obs.metrics.value(
        "daemon.checkpoints_completed")


def test_adaptive_policy_feeds_barrier_stall_back_as_cost():
    """A fully hidden checkpoint reports cost 0: the controller's EWMA
    converges down and the interval drops to its lower clamp."""
    cluster = PaperCluster(seed=9)
    holder = {}

    def scenario(env):
        session = yield from cluster.portus_register("resnet50")
        controller = AdaptiveIntervalController(
            min_interval_ns=msecs(200), max_interval_ns=secs(120),
            prior_mtbf_ns=secs(30), prior_cost_ns=msecs(50))
        controller.observe_start(env.now)
        policy = PortusAsyncPolicy(env, [session], controller=controller)
        job = TrainingJob(env, [session.model],
                          iteration_ns=msecs(100), hook=policy)
        holder.update(policy=policy, controller=controller)
        yield from job.run(40)

    cluster.run(scenario)
    policy, controller = holder["policy"], holder["controller"]
    assert controller.costs_observed >= 1
    assert controller.cost_ns == 0.0  # the pull hid inside F+B
    # Post-observation decisions sit at the clamp: every 2 iterations.
    assert policy.frequencies_used[-1][1] == 2
