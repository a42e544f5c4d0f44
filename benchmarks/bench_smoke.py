"""One-iteration, tiny-model smoke pass over the benchmark suite.

Each test drives the same experiment entry point as its full-size
sibling bench, shrunk to the smallest model/config and one iteration,
and asserts only structure (times positive, winners in the right
order).  The point is a seconds-long signal that every benchmark
datapath still runs end to end — ``scripts/bench_smoke.sh`` runs this
module; the full suite stays opt-in.
"""

import pytest

from repro.core.retry import RetryPolicy
from repro.faults import FaultInjector
from repro.harness.experiments import (engine_datapath_ablation,
                                       fig9_timeline, fig10_datapath,
                                       fig11_fig12_times, fig14_gpt_dump,
                                       table1_breakdown)
from repro.harness.cluster import PaperCluster
from repro.units import mib, msecs, secs, usecs

pytestmark = pytest.mark.bench_smoke


def test_smoke_table1_breakdown():
    shares = table1_breakdown("alexnet")
    assert shares
    assert abs(sum(shares.values()) - 1.0) < 1e-6


def test_smoke_fig10_datapath():
    result = fig10_datapath(sizes=[mib(1)])
    assert all(bw > 0 for curve in result["read_bw"].values()
               for bw in curve)
    assert all(bw > 0 for curve in result["write_bw"].values()
               for bw in curve)


def test_smoke_fig11_fig12_times():
    result = fig11_fig12_times(["alexnet"])
    ckpt, restore = result["checkpoint"], result["restore"]
    assert ckpt["portus"][0] < min(t[0] for name, t in ckpt.items()
                                   if name != "portus")
    assert restore["portus"][0] > 0


def test_smoke_fig14_gpt_dump():
    result = fig14_gpt_dump(configs=["gpt-1.5b"])
    assert result["portus"][0] < result["torch_save"][0]


def test_smoke_engine_ablation():
    result = engine_datapath_ablation("gpt-1.5b")
    assert 0 < result["striped_ns"] <= result["barrier_ns"]
    assert result["sliding_ns"] <= result["barrier_ns"] * 1.01


def test_smoke_fig9_timeline():
    result = fig9_timeline("alexnet", iterations=1)
    assert result


def test_smoke_traced_run_emits_valid_chrome_trace(tmp_path):
    """A traced benchmark run produces loadable Chrome trace JSON and a
    metrics snapshot, and tracing costs zero simulated time."""
    import json

    def run(tracing):
        cluster = PaperCluster(seed=97, ampere_nodes=0, tracing=tracing)
        holder = {}

        def scenario(env):
            session = yield from cluster.portus_register("alexnet")
            session.model.update_step(1)
            yield from session.checkpoint(1)
            yield from session.restore()
            holder["end"] = env.now

        cluster.run(scenario)
        return cluster, holder["end"]

    _plain, end_plain = run(False)
    traced, end_traced = run(True)
    assert end_plain == end_traced  # zero-cost contract

    trace_path = tmp_path / "smoke-trace.json"
    traced.obs.tracer.write(str(trace_path))
    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    assert events
    phases = {e["ph"] for e in events}
    assert phases <= {"X", "M"} and "X" in phases and "M" in phases
    for event in events:
        assert {"ph", "name", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert event["dur"] >= 0 and event["ts"] >= 0
    names = {e["name"] for e in events}
    assert {"client.DO_CHECKPOINT", "client.DO_RESTORE",
            "daemon.DO_CHECKPOINT", "daemon.DO_RESTORE",
            "engine.read", "engine.write"} <= names

    metrics_path = tmp_path / "smoke-metrics.json"
    traced.obs.metrics.write(str(metrics_path))
    snapshot = json.loads(metrics_path.read_text())
    assert snapshot["daemon.checkpoints_completed"]["value"] == 1
    assert snapshot["daemon.restores_completed"]["value"] == 1


def test_smoke_fault_recovery():
    policy = RetryPolicy(max_attempts=64, initial_backoff_ns=usecs(200),
                         max_backoff_ns=msecs(20), deadline_ns=secs(10),
                         reply_timeout_ns=secs(1))
    cluster = PaperCluster(seed=98, ampere_nodes=0, client_retry=policy)
    injector = FaultInjector(cluster.env, cluster)

    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        session.model.update_step(1)
        yield from session.checkpoint(1)
        injector.set_wr_fault_rate("server", rate=0.02)
        session.model.update_step(2)
        yield from session.checkpoint(2)
        return session.retries

    cluster.run(scenario)
    assert cluster.obs.metrics.value("daemon.checkpoints_completed") == 2
