"""Client retry + re-attach, daemon request timeouts, lease reaping,
and graceful degradation to the local DRAM path."""

import random

import pytest

from repro.core.consistency import valid_checkpoint
from repro.core import protocol
from repro.core.failover import FailoverCheckpointer
from repro.core.retry import RetryPolicy
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.errors import ConnectionClosed, ReproError, RequestTimeout
from repro.faults import FaultInjector
from repro.harness.cluster import PaperCluster
from repro.sim import AllOf
from repro.units import msecs, usecs

SPECS = [TensorSpec("block.weight", (512, 256)),
         TensorSpec("block.bias", (512,)),
         TensorSpec("head.weight", (16, 512))]


def make_cluster(seed=3, retry=True, **daemon_kwargs):
    policy = None
    if retry:
        policy = RetryPolicy(rng=random.Random(seed),
                             max_attempts=32,
                             deadline_ns=msecs(500),
                             reply_timeout_ns=msecs(50))
    return PaperCluster(seed=seed, ampere_nodes=0,
                        daemon_kwargs=daemon_kwargs or None,
                        client_retry=policy)


def register_model(cluster, name="model", seed=3):
    def scenario(env):
        instance = ModelInstance.materialize(name, SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=seed)
        session = yield from cluster.portus_client().register(instance)
        return session

    return cluster.run(scenario)


# -- out-of-order replies (request-id matching) -----------------------------------


def test_out_of_order_replies_matched_by_rid():
    cluster = make_cluster(retry=False)

    def scenario(env):
        session = yield from cluster.portus_register("resnet50")
        session.model.update_step(1)
        # A slow checkpoint (tens of ms of RDMA pull) and a fast
        # heartbeat share one connection; the heartbeat's reply arrives
        # first and must not be mistaken for the checkpoint's.
        ckpt = env.process(session.checkpoint(1), name="ckpt")
        beat = env.process(session.heartbeat(), name="beat")
        yield AllOf(env, [ckpt, beat])
        return ckpt.value, beat.value

    ckpt_reply, beat_reply = cluster.run(scenario)
    assert ckpt_reply["op"] == protocol.OP_CHECKPOINT_DONE
    assert ckpt_reply["step"] == 1
    assert beat_reply["op"] == protocol.OP_HEARTBEAT_ACK


# -- retry + re-attach through daemon death ---------------------------------------


def test_checkpoint_during_daemon_restart_succeeds_transparently():
    cluster = make_cluster()
    session = register_model(cluster)

    def scenario(env):
        session.model.update_step(1)
        yield from session.checkpoint(1)
        session.model.update_step(2)
        ckpt = env.process(session.checkpoint(2), name="ckpt-under-fire")
        # Kill the daemon mid-request and bring a successor up on the
        # same port a little later; the client must ride it out alone.
        yield env.timeout(usecs(50))
        assert not ckpt.triggered  # still in flight when the axe falls
        cluster.kill_daemon()
        yield env.timeout(usecs(300))
        cluster.restart_daemon()
        reply = yield ckpt
        return reply

    reply = cluster.run(scenario)
    assert reply["step"] == 2
    assert session.retries >= 1
    assert session.reattaches >= 1
    # The committed bytes are the step-2 weights, bit-exact, on the
    # recovered index.
    entry = cluster.daemon.model_map["model"]
    version, step = valid_checkpoint(entry.meta)
    assert step == 2
    for tensor, descriptor in zip(session.model.tensors,
                                  entry.meta.mindex.descriptors):
        stored = entry.meta.read_tensor(descriptor, version)
        assert stored.equals(tensor.expected_content(2))


def test_register_retries_until_daemon_comes_up():
    cluster = make_cluster()
    cluster.kill_daemon()

    def scenario(env):
        instance = ModelInstance.materialize("model", SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=3)
        started = env.process(
            cluster.portus_client().register(instance), name="register")
        yield env.timeout(usecs(400))
        cluster.restart_daemon()
        session = yield started
        session.model.update_step(1)
        reply = yield from session.checkpoint(1)
        return session, reply

    session, reply = cluster.run(scenario)
    assert reply["step"] == 1
    assert session.retries >= 1


def test_registry_counts_what_the_session_tallies():
    """Registration runs the session's one retry loop: its retries reach
    the registry, and a first attach is never counted as a re-attach."""
    cluster = make_cluster()
    metrics = cluster.obs.metrics
    first = register_model(cluster, name="first")
    cluster.kill_daemon()

    def register_through_restart(env):
        instance = ModelInstance.materialize("second", SPECS,
                                             cluster.volta.gpus[1],
                                             model_seed=4)
        started = env.process(
            cluster.portus_client().register(instance), name="register")
        yield env.timeout(usecs(400))
        cluster.restart_daemon()
        return (yield started)

    second = cluster.run(register_through_restart)
    assert second.retries >= 1
    assert first.reattaches == second.reattaches == 0
    assert metrics.value("client.reattaches") == 0
    assert metrics.value("client.retries") == first.retries + second.retries
    assert metrics.sum_counters("client.faults_absorbed.") == \
        metrics.value("client.retries")

    def dump(env):
        # The restart severed the first session: this one re-attaches.
        first.model.update_step(1)
        yield from first.checkpoint(1)

    cluster.run(dump)
    assert first.reattaches == 1
    assert metrics.value("client.reattaches") == 1
    assert metrics.value("client.retries") == first.retries + second.retries


# -- daemon request timeout -------------------------------------------------------


def test_request_timeout_releases_wedged_entry():
    cluster = make_cluster(retry=False, request_timeout_ns=msecs(2))
    session = register_model(cluster)
    injector = FaultInjector(cluster.env, cluster)

    def good(env):
        session.model.update_step(1)
        yield from session.checkpoint(1)

    cluster.run(good)
    # Every WR hangs: without the timeout this pull would hold the
    # entry's CAS guard forever.
    injector.set_wr_fault_rate("server", rate=0.0, hang_rate=1.0)

    def wedged(env):
        session.model.update_step(2)
        with pytest.raises(RequestTimeout):
            yield from session.checkpoint(2)

    cluster.run(wedged)
    entry = cluster.daemon.model_map["model"]
    assert not entry.busy
    # The timed-out pull aborted; step 1 is still the restorable truth.
    assert valid_checkpoint(entry.meta)[1] == 1
    injector.set_wr_fault_rate("server", rate=0.0)

    def retry(env):
        return (yield from session.checkpoint(2))

    assert cluster.run(retry)["step"] == 2


# -- lease / reaper ---------------------------------------------------------------


def test_reaper_reclaims_entry_of_vanished_client():
    cluster = make_cluster(retry=False, lease_ns=msecs(1),
                           reaper_interval_ns=usecs(400))
    session = register_model(cluster)
    injector = FaultInjector(cluster.env, cluster)

    def good(env):
        session.model.update_step(1)
        yield from session.checkpoint(1)

    cluster.run(good)
    injector.set_wr_fault_rate("server", rate=0.0, hang_rate=1.0)

    def vanish_mid_pull(env):
        session.model.update_step(2)
        ckpt = env.process(session.checkpoint(2), name="doomed-ckpt")
        yield env.timeout(usecs(100))
        # The client host dies silently: the connection drops but nobody
        # tells the daemon, whose pull is wedged on a hung WR.
        session.conn.drop()
        try:
            yield ckpt
        except ReproError:
            pass
        yield env.timeout(msecs(3))  # let the lease expire and the reaper run

    cluster.run(vanish_mid_pull)
    entry = cluster.daemon.model_map["model"]
    assert cluster.obs.metrics.value("daemon.reaped_sessions") == 1
    assert not entry.attached
    assert not entry.busy
    # The interrupted pull aborted: step 1 survives, the half-pulled
    # step 2 was never committed.
    assert valid_checkpoint(entry.meta)[1] == 1
    injector.set_wr_fault_rate("server", rate=0.0)
    # A successor client re-attaches to the reclaimed entry and works.
    successor = register_model(cluster, seed=3)

    def recover(env):
        successor.model.update_step(3)
        return (yield from successor.checkpoint(3))

    assert cluster.run(recover)["step"] == 3


def test_heartbeat_renews_lease():
    cluster = make_cluster(retry=False, lease_ns=msecs(1),
                           reaper_interval_ns=usecs(300))
    session = register_model(cluster)

    def idle_but_alive(env):
        for _ in range(8):
            yield env.timeout(usecs(500))
            yield from session.heartbeat()

    cluster.run(idle_but_alive)
    entry = cluster.daemon.model_map["model"]
    assert entry.attached  # 4 ms idle, but the lease kept renewing
    assert cluster.obs.metrics.value("daemon.reaped_sessions") == 0

    def go_silent(env):
        yield env.timeout(msecs(3))

    cluster.run(go_silent)
    assert not entry.attached
    assert cluster.obs.metrics.value("daemon.reaped_sessions") == 1


# -- unregister resource release --------------------------------------------------


def test_unregister_releases_client_mrs_and_session():
    cluster = make_cluster(retry=False)
    client = cluster.portus_client()
    mrs_before = cluster.volta.nic.registered_mrs
    session = register_model(cluster)
    assert session in client.sessions
    assert cluster.volta.nic.registered_mrs == mrs_before + len(SPECS)

    def scenario(env):
        yield from session.unregister()

    cluster.run(scenario)
    assert session not in client.sessions
    assert session.mrs == []
    # The per-tensor client MRs are gone from the NIC's table again.
    assert cluster.volta.nic.registered_mrs == mrs_before


# -- graceful degradation ---------------------------------------------------------


def test_failover_degrades_to_local_path_and_resumes():
    cluster = make_cluster(retry=False)
    session = register_model(cluster)
    injector = FaultInjector(cluster.env, cluster)
    failover = FailoverCheckpointer(cluster.env, session, cluster.volta,
                                    failure_threshold=2,
                                    probe_interval_ns=msecs(1))
    paths = []

    def scenario(env):
        for step in range(1, 6):
            if step == 2:
                injector.set_link("volta", up=False)
            if step == 5:
                injector.set_link("volta", up=True)
                yield env.timeout(msecs(2))  # past the probe interval
            session.model.update_step(step)
            result = yield from failover.checkpoint(step)
            paths.append((step, result["path"]))
            yield env.timeout(usecs(200))

    cluster.run(scenario)
    assert paths == [(1, "portus"), (2, "local"), (3, "local"),
                     (4, "local"), (5, "portus")]
    assert failover.local_checkpoints == 3
    assert failover.portus_checkpoints == 2
    assert failover.resumes == 1
    assert not failover.degraded


def test_failover_restore_falls_back_to_newest_local_snapshot():
    cluster = make_cluster(retry=False)
    session = register_model(cluster)
    injector = FaultInjector(cluster.env, cluster)
    failover = FailoverCheckpointer(cluster.env, session, cluster.volta,
                                    failure_threshold=1,
                                    probe_interval_ns=msecs(100))

    def scenario(env):
        session.model.update_step(1)
        yield from failover.checkpoint(1)  # portus
        injector.set_link("volta", up=False)
        session.model.update_step(2)
        yield from failover.checkpoint(2)  # degrades, snapshots locally
        session.model.update_step(3)
        yield from failover.checkpoint(3)  # second local snapshot
        # Training state is lost (simulated restart at stale weights);
        # Portus is still unreachable, so restore must come from DRAM.
        session.model.update_step(0)
        result = yield from failover.restore()
        return result

    result = cluster.run(scenario)
    assert result == {"path": "local", "step": 3}
    assert session.model.step == 3
    for tensor in session.model.tensors:
        assert tensor.content().equals(tensor.expected_content(3))
