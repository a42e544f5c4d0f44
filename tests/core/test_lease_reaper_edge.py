"""The lease reaper's in-flight edge case (daemon.py `_reap_expired`).

A healthy pull can legitimately outlast a short lease — the client went
quiet because it is *waiting for the daemon*, not because it died.  With
a request timeout configured, a live in-flight request is proof of
liveness and the reaper must skip the entry (the wedged case is the
request timeout's job to kill).  Only a daemon with *no* request timeout
reaps in-flight work, as a last resort against a permanently held CAS
guard.
"""

import pytest

from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.errors import NotAttached, ReproError, RequestTimeout
from repro.faults import FaultInjector
from repro.harness.cluster import PaperCluster
from repro.units import msecs, usecs

#: Big enough that the checkpoint pull takes ~170 us of simulated time —
#: several reaper periods past the deliberately tiny lease below.
SPECS = [TensorSpec("block.weight", (512, 256)),
         TensorSpec("block.bias", (512,)),
         TensorSpec("head.weight", (16, 512))]

LEASE_NS = usecs(60)
REAPER_NS = usecs(15)


def make_cluster(request_timeout_ns, seed=5):
    return PaperCluster(seed=seed, ampere_nodes=0,
                        daemon_kwargs=dict(
                            request_timeout_ns=request_timeout_ns,
                            lease_ns=LEASE_NS,
                            reaper_interval_ns=REAPER_NS))


def register_model(cluster, seed=5):
    def setup(env):
        instance = ModelInstance.materialize("model", SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=seed)
        session = yield from cluster.portus_client().register(instance)
        return session

    return cluster.run(setup)


def test_healthy_pull_outlasting_short_lease_is_not_reaped():
    cluster = make_cluster(request_timeout_ns=msecs(50))
    session = register_model(cluster)

    def scenario(env):
        session.model.update_step(1)
        # The pull takes several reaper periods; the lease expires while
        # the request is legitimately in flight.  A live request is
        # proof of liveness — the reaper must leave it alone.
        reply = yield from session.checkpoint(1)
        return reply

    reply = cluster.run(scenario)
    assert reply["step"] == 1
    assert cluster.obs.metrics.value("daemon.reaped_sessions") == 0
    assert cluster.daemon.model_map["model"].attached
    entry = cluster.daemon.model_map["model"]
    _version, step = entry.meta.restorable()
    assert step == 1


def test_wedged_pull_times_out_then_idle_session_is_reaped():
    cluster = make_cluster(request_timeout_ns=usecs(400))
    session = register_model(cluster)
    injector = FaultInjector(cluster.env, cluster)

    def scenario(env):
        session.model.update_step(1)
        injector.set_wr_fault_rate("server", rate=0.0, hang_rate=1.0)
        started = env.now
        with pytest.raises(RequestTimeout):
            yield from session.checkpoint(1)
        # The request timeout killed the wedged pull — NOT the reaper:
        # the lease expired several reaper periods before the timeout
        # fired, yet the in-flight request kept the session alive until
        # the timeout's own cleanup released it.
        assert env.now - started >= usecs(400) > LEASE_NS
        # The client now goes silent; with no in-flight request left,
        # the expired lease is reaped normally.
        yield env.timeout(LEASE_NS + 4 * REAPER_NS)

    cluster.run(scenario)
    assert cluster.obs.metrics.value("daemon.reaped_sessions") == 1
    assert not cluster.daemon.model_map["model"].attached


def test_daemon_without_request_timeout_reaps_inflight_as_last_resort():
    cluster = make_cluster(request_timeout_ns=None)
    session = register_model(cluster)
    injector = FaultInjector(cluster.env, cluster)

    def scenario(env):
        session.model.update_step(1)
        injector.set_wr_fault_rate("server", rate=0.0, hang_rate=1.0)
        # Nothing else will ever release the CAS guard: no request
        # timeout, a hung WR.  Fire the doomed checkpoint and abandon it;
        # once the reaper kills the handler, the daemon replies with the
        # retryable NotAttached (the session's attach is gone), not the
        # simulator's raw interruption.
        outcome = []

        def doomed():
            try:
                yield from session.checkpoint(1)
            except ReproError as exc:
                outcome.append(exc)

        env.process(doomed(), name="doomed-ckpt")
        yield env.timeout(LEASE_NS + 8 * REAPER_NS)
        assert [type(exc) for exc in outcome] == [NotAttached]

    cluster.run(scenario)
    assert cluster.obs.metrics.value("daemon.reaped_sessions") == 1
    entry = cluster.daemon.model_map["model"]
    assert not entry.busy  # the interrupt's cleanup released the guard
    assert not entry.attached
