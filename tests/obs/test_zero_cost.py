"""The observability layer's zero-cost contract.

Tracing and metrics only *read* the simulated clock — they never yield,
schedule, or change a wire size — so a traced run must be bit-identical
in simulated time to the same run untraced.
"""

from repro.core import protocol
from repro.core.retry import RetryPolicy
from repro.faults import FaultInjector
from repro.harness.cluster import PaperCluster
from repro.units import msecs, secs, usecs


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


def test_stamp_trace_does_not_change_wire_sizes():
    for make in (lambda: protocol.do_checkpoint("m", 1),
                 lambda: protocol.do_checkpoint("m", 1, dirty=["a", "b"]),
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
