"""The remediation operator: detect → diagnose → remediate → verify."""

import random

import pytest

from repro.core.failover import FailoverCheckpointer
from repro.core.retry import RetryPolicy
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.errors import ReproError
from repro.faults import FaultInjector
from repro.harness.cluster import PaperCluster
from repro.ops.health import H_HEALTHY, HealthThresholds
from repro.ops.operator import (A_BREAKER, A_COOLDOWN, A_RESTART,
                                RemediationOperator)
from repro.pmem.fsck import fsck
from repro.units import msecs, usecs

SPECS = [TensorSpec("block.weight", (512, 256)),
         TensorSpec("block.bias", (512,)),
         TensorSpec("head.weight", (16, 512))]

THRESHOLDS = HealthThresholds(wedge_ns=msecs(2))


def make_rig(seed=3, **daemon_kwargs):
    """Cluster + registered session + failover + running operator."""
    policy = RetryPolicy(rng=random.Random(seed), max_attempts=8,
                         deadline_ns=msecs(10), reply_timeout_ns=msecs(4))
    cluster = PaperCluster(seed=seed, ampere_nodes=0,
                           daemon_kwargs=daemon_kwargs or None,
                           client_retry=policy)

    def setup(env):
        instance = ModelInstance.materialize("model", SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=seed)
        session = yield from cluster.portus_client().register(instance)
        return session

    session = cluster.run(setup)
    failover = FailoverCheckpointer(cluster.env, session, cluster.volta,
                                    failure_threshold=1,
                                    probe_interval_ns=msecs(1))
    operator = cluster.enable_operator(interval_ns=usecs(200),
                                       thresholds=THRESHOLDS)
    operator.register_failover(failover)
    return cluster, session, failover, operator


# -- crash → restart → drain-back -------------------------------------------------


def test_operator_restarts_dead_daemon_and_drains_clients_back():
    cluster, session, failover, operator = make_rig()
    paths = []

    def scenario(env):
        session.model.update_step(1)
        result = yield from failover.checkpoint(1)
        paths.append(result["path"])
        cluster.kill_daemon()
        # No manual restart: the operator must notice "down" on its next
        # tick, park the client on the DRAM path, restart the daemon,
        # verify, and drain the client back.
        yield env.timeout(msecs(2))
        session.model.update_step(2)
        result = yield from failover.checkpoint(2)
        paths.append(result["path"])

    cluster.run(scenario)
    assert paths == ["portus", "portus"]
    assert operator.restarts == 1
    assert failover.forced_degrades == 1
    assert failover.drains == 1
    assert not failover.operator_hold
    assert operator.last_state == H_HEALTHY
    assert operator.converged
    assert any("action=restart-daemon" in line
               for line in operator.decisions)
    # Step 1 rode out the crash and the drained-back step 2 re-covered
    # it with a durable Portus checkpoint.
    entry = cluster.daemon.model_map["model"]
    _version, step = entry.meta.restorable()
    assert step == 2


def test_operator_holds_clients_on_local_path_while_daemon_is_down():
    cluster, session, failover, operator = make_rig()

    def scenario(env):
        session.model.update_step(1)
        yield from failover.checkpoint(1)
        cluster.kill_daemon()
        yield env.timeout(usecs(500))  # one tick: force-degrade+restart
        return (yield from failover.checkpoint(1))

    cluster.run(scenario)
    # Whatever the timing, the client never saw a hard failure: every
    # step landed on exactly one of the two paths.
    assert failover.portus_checkpoints + failover.local_checkpoints == 2


# -- corruption → repair ----------------------------------------------------------


def test_operator_repairs_injected_pool_corruption():
    cluster, session, failover, operator = make_rig()
    injector = FaultInjector(cluster.env, cluster)

    def scenario(env):
        session.model.update_step(1)
        yield from failover.checkpoint(1)
        assert injector.corrupt_pool("stale-active")
        assert injector.corrupt_pool("leak")
        assert not fsck(cluster.portus_pool).clean
        yield env.timeout(msecs(2))

    cluster.run(scenario)
    assert operator.repairs >= 1
    assert operator.last_fsck_clean
    assert fsck(cluster.portus_pool).clean
    assert any("action=fsck-repair" in line for line in operator.decisions)
    entry = cluster.daemon.model_map["model"]
    _version, step = entry.meta.restorable()
    assert step == 1  # repair only demoted/reclaimed, never the newest


def test_operator_never_runs_fsck_while_a_pull_is_in_flight():
    cluster, session, failover, operator = make_rig()

    def scenario(env):
        session.model.update_step(1)
        ckpt = env.process(session.checkpoint(1), name="ckpt")
        # Several operator ticks land while the pull's ACTIVE slot is
        # legitimately mid-flight; none may demote it.
        yield ckpt

    cluster.run(scenario)
    assert not any("stale-active" in line for line in operator.decisions)
    entry = cluster.daemon.model_map["model"]
    _version, step = entry.meta.restorable()
    assert step == 1


# -- wedged daemon → restart ------------------------------------------------------


def test_operator_restarts_wedged_daemon():
    # No request timeout: a hung WR wedges the daemon forever — exactly
    # the failure class only the operator's restart can clear.
    cluster, session, failover, operator = make_rig()
    injector = FaultInjector(cluster.env, cluster)

    def scenario(env):
        session.model.update_step(1)
        yield from failover.checkpoint(1)
        injector.set_wr_fault_rate("server", rate=0.0, hang_rate=1.0)
        session.model.update_step(2)

        def doomed():
            try:
                yield from session.checkpoint(2)
            except ReproError:
                pass

        env.process(doomed(), name="wedged-ckpt")
        yield env.timeout(msecs(6))
        injector.set_wr_fault_rate("server", rate=0.0, hang_rate=0.0)
        yield env.timeout(msecs(2))

    cluster.run(scenario)
    assert operator.restarts >= 1
    assert any("state=wedged" in line for line in operator.decisions)
    assert operator.last_state == H_HEALTHY


# -- guard rails: cooldown, breaker, escalation -----------------------------------


def fresh_operator():
    cluster = PaperCluster(ampere_nodes=0)
    return RemediationOperator(cluster.env, cluster,
                               interval_ns=usecs(200),
                               cooldown_ns=usecs(600),
                               breaker_window_ns=msecs(4),
                               breaker_limit=3,
                               breaker_cooldown_ns=msecs(8))


def test_same_action_is_rate_limited_by_the_cooldown():
    operator = fresh_operator()
    fired = []
    act = lambda: fired.append(1) or True
    assert operator._gated(A_RESTART, 1000, act) == A_RESTART
    assert operator._gated(A_RESTART, 1200, act) == A_COOLDOWN
    assert operator._gated(A_RESTART, 1000 + usecs(600), act) == A_RESTART
    assert len(fired) == 2


def test_circuit_breaker_opens_on_remediation_flapping():
    operator = fresh_operator()
    act = lambda: True
    now = usecs(1)
    opened = None
    for _ in range(10):
        result = operator._gated(A_RESTART, now, act)
        if result == A_BREAKER:
            opened = now
            break
        now += operator.cooldown_ns
    assert opened is not None, "breaker never opened under flapping"
    assert operator.breaker_trips == 1
    assert operator._breaker_open_until == opened + operator.breaker_cooldown_ns


def test_failed_verification_escalates_after_repeated_attempts():
    operator = fresh_operator()
    operator.escalate_after = 2
    act = lambda: False  # remediation that never verifies
    now = usecs(1)
    for _ in range(4):
        operator._gated(A_RESTART, now, act)
        now += operator.breaker_window_ns + operator.cooldown_ns
    assert operator.escalations == 2


# -- determinism ------------------------------------------------------------------


def test_operator_decisions_are_bit_identical_across_runs():
    def drive():
        cluster, session, failover, operator = make_rig(seed=11)
        injector = FaultInjector(cluster.env, cluster)

        def scenario(env):
            session.model.update_step(1)
            yield from failover.checkpoint(1)
            cluster.kill_daemon()
            yield env.timeout(msecs(1))
            injector.corrupt_pool("leak")
            yield env.timeout(msecs(3))

        cluster.run(scenario)
        return tuple(operator.decisions)

    assert drive() == drive()
