"""Unit tests for the fault plan and the injection primitives."""

import hashlib
import random

import pytest

from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.errors import (ConnectionClosed, LinkDown, NetworkError,
                          QpStateError, ReproError, WorkRequestError)
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.harness.cluster import PaperCluster
from repro.units import msecs, usecs

SPECS = [TensorSpec("block.weight", (512, 256)),
         TensorSpec("block.bias", (512,)),
         TensorSpec("head.weight", (16, 512))]


@pytest.fixture
def cluster():
    return PaperCluster(seed=7, ampere_nodes=0)


def register_model(cluster, name="model", seed=7):
    def scenario(env):
        instance = ModelInstance.materialize(name, SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=seed)
        session = yield from cluster.portus_client().register(instance)
        return session

    return cluster.run(scenario)


# -- plan ------------------------------------------------------------------------


def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(-1, FaultKind.LINK_DOWN, "volta")
    with pytest.raises(ValueError):
        FaultEvent(0, "meteor_strike", "volta")


def test_plan_is_ordered_and_describable():
    plan = (FaultPlan()
            .at(usecs(500), FaultKind.QP_ERROR, "server")
            .at(usecs(100), FaultKind.LINK_DOWN, "volta")
            .at(usecs(300), FaultKind.WR_FAULT_RATE, "server", rate=0.1))
    times = [event.at_ns for event in plan]
    assert times == sorted(times)
    lines = plan.describe().splitlines()
    assert len(lines) == 3
    assert "link_down @volta" in lines[0]
    assert "rate=0.1" in lines[1]


def test_random_plans_are_deterministic_and_well_formed():
    plans = [FaultPlan.random(random.Random(42), horizon_ns=msecs(10),
                              events=6) for _ in range(2)]
    assert plans[0].describe() == plans[1].describe()
    assert plans[0].describe() != FaultPlan.random(
        random.Random(43), horizon_ns=msecs(10), events=6).describe()
    # Every destructive fault is paired with its recovery action.
    kinds = [event.kind for event in plans[0]]
    assert kinds.count(FaultKind.LINK_DOWN) == kinds.count(FaultKind.LINK_UP)
    assert (kinds.count(FaultKind.DAEMON_CRASH)
            + kinds.count(FaultKind.POWER_LOSS)
            == kinds.count(FaultKind.DAEMON_RESTART))
    # Non-zero WR fault rates are always cleared afterwards.
    rate_events = [e for e in plans[0] if e.kind == FaultKind.WR_FAULT_RATE]
    assert len(rate_events) % 2 == 0
    # The draws themselves are pinned: the chaos, operator and fleet
    # sweeps' schedules all come from these three variants, and a change
    # that shifts them would move every sweep together (so running each
    # sweep twice and diffing cannot see it).
    variants = {
        "chaos": ({}, "4414f00520c60d28421d3c7540afc291"
                      "816eddbfa3e00656d54658f3af6bc48a"),
        "operator": (dict(auto_recover_daemon=False,
                          allow_pool_corrupt=True),
                     "4404b3c7de708ccdb8ec4cb79c210d6e"
                     "118c401a5f8c08a1799713cd0fbdee16"),
        "fleet": (dict(auto_recover_daemon=False, allow_pool_corrupt=True,
                       storage_shards=("server", "server1", "server2")),
                  "04882f6d2c468e3f71211a7a36b89b2f"
                  "1c560a0d36b7f6180ceda48f888b36a5"),
    }
    for name, (options, pinned) in variants.items():
        plan = FaultPlan.random(random.Random(42), horizon_ns=msecs(10),
                                events=6, **options)
        digest = hashlib.sha256(plan.describe().encode()).hexdigest()
        assert digest == pinned, (name, plan.describe())


# -- link faults ------------------------------------------------------------------


def test_link_down_breaks_traffic_and_up_restores_it(cluster):
    session = register_model(cluster)
    injector = FaultInjector(cluster.env, cluster)
    injector.set_link("volta", up=False)

    def broken(env):
        session.model.update_step(1)
        with pytest.raises((LinkDown, NetworkError)):
            yield from session.checkpoint(1)

    cluster.run(broken)
    injector.set_link("volta", up=True)

    def healed(env):
        # The old connection may have partially progressed; use a fresh
        # session to show the fabric itself is healthy again.
        reply = yield from session.checkpoint(1)
        return reply

    assert cluster.run(healed)["step"] == 1


# -- WR faults --------------------------------------------------------------------


def test_wr_fault_rate_fails_checkpoint_and_aborts_cleanly(cluster):
    session = register_model(cluster)

    def good(env):
        session.model.update_step(1)
        yield from session.checkpoint(1)

    cluster.run(good)
    injector = FaultInjector(cluster.env, cluster)
    injector.set_wr_fault_rate("server", rate=1.0)

    def faulty(env):
        session.model.update_step(2)
        with pytest.raises(WorkRequestError):
            yield from session.checkpoint(2)

    cluster.run(faulty)
    entry = cluster.daemon.model_map["model"]
    assert not entry.busy
    # The failed pull aborted: recovery still exposes step 1, bit-exact.
    version, step = entry.meta.restorable()
    assert step == 1
    injector.set_wr_fault_rate("server", rate=0.0)
    assert cluster.server.nic.fault_hook is None

    def retry(env):
        return (yield from session.checkpoint(2))

    assert cluster.run(retry)["step"] == 2


def test_wr_hang_holds_the_pull_until_flush(cluster):
    session = register_model(cluster)
    injector = FaultInjector(cluster.env, cluster)
    injector.set_wr_fault_rate("server", rate=0.0, hang_rate=1.0)

    def hang_then_flush(env):
        session.model.update_step(1)
        worker = env.process(session.checkpoint(1), name="hung-ckpt")
        yield env.timeout(msecs(5))
        assert not worker.triggered  # wedged: no completion ever arrives
        entry = cluster.daemon.model_map["model"]
        assert entry.busy
        entry.qps[0].flush()  # the only thing that retires a lost WR
        try:
            yield worker
        except ReproError:
            pass
        assert worker.triggered
        assert not entry.busy

    cluster.run(hang_then_flush)


# -- QP / TCP faults --------------------------------------------------------------


def test_qp_error_poisons_sessions(cluster):
    session = register_model(cluster)
    injector = FaultInjector(cluster.env, cluster)
    assert injector.qp_error("server") >= 1

    def scenario(env):
        session.model.update_step(1)
        with pytest.raises(QpStateError):
            yield from session.checkpoint(1)

    cluster.run(scenario)


def test_tcp_drop_severs_control_plane(cluster):
    session = register_model(cluster)
    injector = FaultInjector(cluster.env, cluster)
    assert injector.drop_tcp("server") == 1
    assert session.conn.closed

    def scenario(env):
        with pytest.raises(ConnectionClosed):
            yield from session.checkpoint(1)

    cluster.run(scenario)


def test_kill_client_releases_client_resources(cluster):
    session = register_model(cluster)
    mrs_before = cluster.volta.nic.registered_mrs
    injector = FaultInjector(cluster.env, cluster)
    assert injector.kill_client("volta") == 1
    assert cluster.volta.nic.registered_mrs == mrs_before - len(SPECS)
    assert session.conn.closed
    assert session.qps[0].error is not None
    # A successor client can re-attach to the persisted index.
    new_session = register_model(cluster, seed=7)
    assert new_session is not session

    def scenario(env):
        new_session.model.update_step(3)
        return (yield from new_session.checkpoint(3))

    assert cluster.run(scenario)["step"] == 3


# -- plan execution ---------------------------------------------------------------


def test_installed_plan_applies_on_schedule(cluster):
    register_model(cluster)
    injector = FaultInjector(cluster.env, cluster)
    base = cluster.env.now  # plan times are absolute simulation times
    plan = (FaultPlan()
            .at(base + usecs(100), FaultKind.LINK_DOWN, "volta")
            .at(base + usecs(400), FaultKind.LINK_UP, "volta"))
    injector.install(plan)

    def scenario(env):
        yield env.timeout(usecs(200))
        assert not cluster.volta.nic.port.up
        yield env.timeout(usecs(400))
        assert cluster.volta.nic.port.up

    cluster.run(scenario)
    assert [entry[0] for entry in injector.log] == [base + usecs(100),
                                                    base + usecs(400)]
    assert len(injector.log_lines()) == 2
