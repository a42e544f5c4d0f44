"""The observability layer's zero-cost contract.

Tracing and metrics only *read* the simulated clock — they never yield,
schedule, or change a wire size — so a traced run must be bit-identical
in simulated time to the same run untraced.
"""

from repro.baselines import TorchSaveCheckpointer
from repro.core import protocol
from repro.core.retry import RetryPolicy
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.faults import FaultInjector
from repro.harness.cluster import PaperCluster
from repro.units import kib, msecs, secs, usecs

DEDUP_SPECS = [TensorSpec("backbone.weight", (256, 1024)),
               TensorSpec("backbone.bias", (1024,)),
               TensorSpec("head.weight", (64, 1024)),
               TensorSpec("head.bias", (64,))]
DEDUP_HEAD = ["head.weight", "head.bias"]


def _run_workload(tracing):
    cluster = PaperCluster(seed=1234, tracing=tracing)
    timeline = []

    def scenario(env):
        session_a = yield from cluster.portus_register("alexnet", gpu=0)
        session_b = yield from cluster.portus_register("resnet50", gpu=1)
        for step in (1, 2, 3):
            session_a.model.update_step(step)
            yield from session_a.checkpoint(step)
            timeline.append(env.now)
        session_b.model.update_step(1)
        yield from session_b.checkpoint(1)
        timeline.append(env.now)
        yield from session_a.restore()
        yield from session_b.restore()
        timeline.append(env.now)

    cluster.run(scenario)
    return cluster, timeline


def test_traced_run_is_bit_identical_to_untraced():
    plain, plain_timeline = _run_workload(tracing=False)
    traced, traced_timeline = _run_workload(tracing=True)
    assert plain_timeline == traced_timeline
    assert plain.obs.metrics.snapshot() == traced.obs.metrics.snapshot()
    # The traced run actually recorded something — the contract is
    # "free", not "off".
    assert traced.obs.tracer.spans
    assert not plain.obs.tracer.spans


def test_traced_faulted_run_is_bit_identical():
    """Retries, faults, and limiter queueing all carry instrumentation;
    none of it may perturb the schedule."""

    def run(tracing):
        policy = RetryPolicy(max_attempts=64,
                             initial_backoff_ns=usecs(200),
                             max_backoff_ns=msecs(20),
                             deadline_ns=secs(10),
                             reply_timeout_ns=secs(1))
        cluster = PaperCluster(seed=4321, ampere_nodes=0,
                               client_retry=policy, tracing=tracing)
        injector = FaultInjector(cluster.env, cluster)
        holder = {}

        def scenario(env):
            session = yield from cluster.portus_register("alexnet")
            session.model.update_step(1)
            yield from session.checkpoint(1)
            injector.set_wr_fault_rate("server", rate=0.02)
            session.model.update_step(2)
            yield from session.checkpoint(2)
            holder["end"] = env.now
            holder["retries"] = session.retries

        cluster.run(scenario)
        return holder

    plain = run(False)
    traced = run(True)
    assert plain == traced


def _run_dedup(tracing):
    """A dedup model's full dump, two head-only dumps and a restore;
    returns the cluster, the per-call timeline and the dumps' replies."""
    cluster = PaperCluster(seed=99, ampere_nodes=0, tracing=tracing)
    instance = ModelInstance.materialize("m", DEDUP_SPECS,
                                         cluster.volta.gpus[0],
                                         model_seed=5)
    timeline, replies = [], []

    def scenario(env):
        session = yield from cluster.portus_register(
            instance, dedup=True, chunk_bytes=kib(256))
        for step in (1, 2, 3):
            instance.update_step(step, only=None if step == 1
                                 else DEDUP_HEAD)
            replies.append((yield from session.checkpoint(step)))
            timeline.append(env.now)
        instance.update_step(0)
        yield from session.restore()
        timeline.append(env.now)

    cluster.run(scenario)
    return cluster, timeline, replies


def test_traced_dedup_run_is_bit_identical_to_untraced():
    plain, plain_timeline, _replies = _run_dedup(tracing=False)
    traced, traced_timeline, _replies = _run_dedup(tracing=True)
    assert plain_timeline == traced_timeline
    assert plain.env._seq == traced.env._seq
    assert plain.obs.metrics.snapshot() == traced.obs.metrics.snapshot()
    assert traced.obs.tracer.named("mr.register")


def test_mr_register_spans_explain_the_first_dumps_chunk_pinning():
    """The first dump pins every chunk it stores, inside ``mr.register``
    spans on its own trace; the restore finds them all pinned."""
    cluster, _timeline, replies = _run_dedup(tracing=True)
    tracer = cluster.obs.tracer
    dumps = tracer.named("client.DO_CHECKPOINT")
    restore = tracer.one("client.DO_RESTORE")

    def pinning(span):
        return [pin for pin in tracer.named("mr.register")
                if pin.trace_id == span.trace_id]

    first = pinning(dumps[0])
    assert len(first) == replies[0]["chunks_new"]
    assert {(pin.cat, pin.track) for pin in first} == {("rdma", "daemon")}
    nic = cluster.server.nic
    assert sum(pin.duration_ns for pin in first) == sum(
        nic.mr_register_latency_ns
        + int(pin.args["bytes"] * nic.mr_pin_ns_per_byte) for pin in first)
    assert sum(pin.args["bytes"] for pin in first) == \
        replies[0]["bytes_pulled"]
    assert pinning(restore) == []


def _run_torch_save(fs_kind, tracing):
    """A torch.save checkpoint and restore of alexnet on *fs_kind*;
    returns the cluster and the per-call timeline."""
    cluster = PaperCluster(seed=98, ampere_nodes=0, tracing=tracing)
    timeline = []

    def scenario(env):
        if fs_kind == "beegfs":
            fs = yield from cluster.beegfs_mount()
        else:
            fs = cluster.volta_ext4
        checkpointer = TorchSaveCheckpointer(env, fs, cluster.volta.cpus)
        model = cluster.materialize("alexnet")
        model.update_step(1)
        yield from checkpointer.checkpoint(model)
        timeline.append(env.now)
        model.update_step(2)
        yield from checkpointer.restore(model)
        timeline.append(env.now)

    cluster.run(scenario)
    return cluster, timeline


def test_traced_torch_save_run_is_bit_identical_to_untraced():
    """The baselines' phase and filesystem spans are free too, on local
    ext4 and on BeeGFS (client, RPC and the server's DAX backing)."""
    for fs_kind in ("ext4", "beegfs"):
        plain, plain_timeline = _run_torch_save(fs_kind, tracing=False)
        traced, traced_timeline = _run_torch_save(fs_kind, tracing=True)
        assert plain_timeline == traced_timeline, fs_kind
        assert plain.env._seq == traced.env._seq, fs_kind
        assert plain.obs.metrics.snapshot() == \
            traced.obs.metrics.snapshot(), fs_kind
        names = {span.name for span in traced.obs.tracer.spans}
        assert {"torch_save.fs_write", "torch_save.fs_read",
                "fs.syscall"} <= names, fs_kind


def test_stamp_trace_does_not_change_wire_sizes():
    for make in (lambda: protocol.do_checkpoint("m", 1),
                 lambda: protocol.do_checkpoint(
                     "m", 1, manifest=[b"\x00" * 20, b"\x01" * 20]),
                 lambda: protocol.do_restore("m"),
                 lambda: protocol.heartbeat("m"),
                 lambda: protocol.list_models()):
        _message, size_plain = make()
        stamped, size_stamped = make()
        protocol.stamp_trace(stamped, 17)
        assert size_stamped == size_plain
        assert protocol.trace_of(stamped) == 17


def test_stamp_trace_none_is_a_no_op():
    message, _size = protocol.do_restore("m")
    protocol.stamp_trace(message, None)
    assert protocol.TRACE_KEY not in message
    assert protocol.trace_of(message) is None
