"""Fault recovery: checkpoint cost under WR completion-fault rates.

Injects a per-WR failure probability on the server NIC (a flaky link /
marginal cable) and measures AlexNet checkpoint latency with the
retrying client.  Two claims: (1) the retry machinery is free when
nothing fails — the 0 %-fault path costs the same as the plain seed
client to within 2 %; (2) recovery degrades gracefully — even at a 5 %
per-WR fault rate every checkpoint still commits, it just pays retries.

The stress rates are calibrated to the transfer engine's WR
granularity: 4 MiB segmentation turns AlexNet's ~16 per-tensor WRs
into ~58, and a whole-checkpoint retry must win 58 independent
Bernoulli trials, so per-attempt success is (1-p)^58 — about 5 % at
p = 0.05 (≈20 attempts, well inside the policy budget) but ~2e-6 at
the pre-engine 20 % rate, which no finite budget survives.
"""

import random

import pytest

from repro.core.retry import RetryPolicy
from repro.faults import FaultInjector
from repro.harness.cluster import PaperCluster
from repro.harness.report import render_table
from repro.units import fmt_time, msecs, secs, usecs

from conftest import run_once

RATES = [0.0, 0.01, 0.02, 0.05]
STEPS = 3


def _policy():
    return RetryPolicy(rng=random.Random(99), max_attempts=512,
                       initial_backoff_ns=usecs(200),
                       max_backoff_ns=msecs(20),
                       deadline_ns=secs(10), reply_timeout_ns=secs(1))


def _run_steps(cluster, rate):
    injector = FaultInjector(cluster.env, cluster)
    holder = {}

    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        session.model.update_step(0)
        yield from session.checkpoint(0)  # warm-up: both slots allocated
        if rate:
            injector.set_wr_fault_rate("server", rate=rate)
        start = env.now
        for step in range(1, STEPS + 1):
            session.model.update_step(step)
            yield from session.checkpoint(step)
        holder["elapsed_ns"] = env.now - start
        holder["retries"] = session.retries

    cluster.run(scenario)
    entry = cluster.daemon.model_map["alexnet"]
    assert entry.meta.restorable()[1] == STEPS  # every step committed
    return {"per_ckpt_ns": holder["elapsed_ns"] // STEPS,
            "retries": holder["retries"]}


def _run_sweep():
    results = {}
    # Seed baseline: the plain client with no retry machinery at all.
    baseline = _run_steps(PaperCluster(seed=99, ampere_nodes=0), 0.0)
    results["baseline"] = baseline
    for rate in RATES:
        cluster = PaperCluster(seed=99, ampere_nodes=0,
                               client_retry=_policy())
        results[rate] = _run_steps(cluster, rate)
    return results


def test_fault_recovery(benchmark, shared_results):
    results = run_once(benchmark, "fault_recovery", _run_sweep,
                       shared_results)
    baseline = results["baseline"]["per_ckpt_ns"]
    rows = [["plain client, 0%", fmt_time(baseline), 0, "1.00x"]]
    for rate in RATES:
        entry = results[rate]
        rows.append([f"retry client, {rate:.0%}",
                     fmt_time(entry["per_ckpt_ns"]), entry["retries"],
                     f"{entry['per_ckpt_ns'] / baseline:.2f}x"])
    print(render_table(
        "Fault recovery: AlexNet checkpoint vs per-WR fault rate "
        f"({STEPS} steps)",
        ["configuration", "per-checkpoint", "retries", "vs plain"], rows))
    # Retry machinery is free on the fault-free path (<= 2% overhead).
    assert results[0.0]["per_ckpt_ns"] == pytest.approx(baseline, rel=0.02)
    assert results[0.0]["retries"] == 0
    # Faults cost retries, and more faults cost more time; but every
    # checkpoint still lands.
    assert results[0.05]["retries"] > results[0.02]["retries"] > 0
    assert results[0.05]["per_ckpt_ns"] > results[0.0]["per_ckpt_ns"]
