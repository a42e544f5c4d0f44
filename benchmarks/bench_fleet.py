"""Fleet-scale open-loop experiment: ~100 tenants over N shards.

The multi-tenant example, scaled two orders of magnitude: the same
workload generator (:mod:`repro.fleet.workload`) drives ~100 tenants,
each checkpointing on its own open-loop timer (a tick that finds the
previous dump still in flight is *skipped* and counted — open loop
never queues client-side).  The identical workload runs twice:

* **fleet** — ``storage_nodes`` shards, the placement ring spreading
  tenants across daemons, per-daemon admission control on;
* **single** — the same tenants hammering one daemon (the pre-fleet
  world), where the tail collapses under contention.

Recorded into ``BENCH_fleet.json`` at the repo root:

* per-run p50/p99 dump latency, completions, skips, errors;
* ``p99_improvement`` — single-daemon p99 over fleet p99 (the
  acceptance bar is >= 3x);
* per-daemon completion counts and their min/max ``fairness`` ratio
  (every shard must do real work — a ring that routes everything to
  one daemon reproduces the single-daemon collapse with extra steps);
* a live cross-shard migration of one tenant's model mid-workload,
  restored bit-exactly from the destination pool.

The full-size test is also the CI regression guard: it refuses a
``p99_improvement`` below 80% of the committed value.  ``CI_FAST=1``
shrinks the fleet and skips the guard and the JSON rewrite.
"""

import json
import os
import random

import pytest

from repro.core.retry import RetryPolicy
from repro.errors import ReproError
from repro.fleet import FleetClient, generate_tenants
from repro.harness.cluster import PaperCluster
from repro.harness.report import render_table
from repro.units import fmt_time, msecs, secs

from conftest import run_once

BENCH_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "BENCH_fleet.json")

#: Small end of the zoo: the open loop needs many concurrent models,
#: not huge ones (the huge ones get their own figures).
MODEL_CYCLE = ("resnet18", "resnet34", "swin_t", "convnext_tiny")

#: Full-size: 96 tenants over 4 shards, 3 open-loop ticks each.
FULL = {"tenants": 96, "daemons": 4, "ticks": 3,
        "base_period_ns": msecs(700)}
#: CI_FAST: 12 tenants over 2 shards, 2 ticks.
SMALL = {"tenants": 12, "daemons": 2, "ticks": 2,
         "base_period_ns": msecs(400)}


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[int(q * (len(ordered) - 1))]


def _run_fleet(cfg, daemons, seed=600, migrate=False):
    """One open-loop run over *daemons* shards; returns the stats."""
    # Open-loop clients under backpressure retry for as long as the
    # deadline allows — the per-daemon admission hints pace them.  The
    # reply timeout must comfortably exceed a contended dump, or the
    # client re-fires work the daemon is still completing and the
    # duplicate pulls melt the very tail being measured.
    policy = RetryPolicy(rng=random.Random(seed ^ 0xF1EE7),
                         max_attempts=512, deadline_ns=secs(12),
                         reply_timeout_ns=secs(4))
    # A coarse retry-after hint keeps ~90 turned-away clients from
    # polling a full daemon every few microseconds of simulated time.
    cluster = PaperCluster(seed=seed, ampere_nodes=2,
                           storage_nodes=daemons, client_retry=policy,
                           admission=dict(max_ingests=8,
                                          retry_after_ns=msecs(10)))
    fleet = FleetClient(cluster)
    tenants = generate_tenants(cfg["tenants"], seed=seed,
                               models=MODEL_CYCLE)
    sessions = []

    def setup(env):
        for spec in tenants:
            session = yield from fleet.register_spec(spec)
            sessions.append((spec, session))

    cluster.run(setup)

    stats = {"latencies": [], "skipped": 0, "errors": 0}

    def run_tenant(env, spec, session):
        period = spec.frequency * cfg["base_period_ns"]
        next_tick = env.now + period
        for step in range(1, cfg["ticks"] + 1):
            wait = next_tick - env.now
            if wait < 0:
                # Overran the tick while the previous dump was in
                # flight: open loop skips, never queues.
                stats["skipped"] += 1
            else:
                yield env.timeout(wait)
                start = env.now
                session.model.update_step(step)
                try:
                    yield from session.checkpoint(step)
                    stats["latencies"].append(env.now - start)
                except ReproError:
                    stats["errors"] += 1
            next_tick += period

    def open_loop(env):
        procs = [env.process(run_tenant(env, spec, session),
                             name=f"tenant:{spec.name}")
                 for spec, session in sessions]
        for proc in procs:
            yield proc

    cluster.run(open_loop)

    per_daemon = {
        shard.name: int(cluster.obs.metrics.value(
            "daemon.checkpoints_completed", shard=shard.name))
        for shard in cluster.shards
    }
    busiest = max(per_daemon.values())
    result = {
        "daemons": daemons,
        "completed": len(stats["latencies"]),
        "skipped": stats["skipped"],
        "errors": stats["errors"],
        "p50_ns": _percentile(stats["latencies"], 0.50),
        "p99_ns": _percentile(stats["latencies"], 0.99),
        "per_daemon_completed": per_daemon,
        "fairness": round(min(per_daemon.values()) / busiest, 3)
        if busiest else 0.0,
        "admission_rejects": int(cluster.obs.metrics.sum_counters(
            "fleet.admission.rejects.")),
    }

    if migrate:
        spec, session = sessions[0]
        src = fleet.shard_of(spec.name, spec.instance_name)
        dst = min((s for s in cluster.shards if s.name != src.name),
                  key=lambda s: per_daemon[s.name])

        def live_migrate(env):
            step, moved = yield from fleet.migrate(
                spec.name, spec.instance_name, dst.name)
            session.model.update_step(0)
            restored = yield from session.restore()
            return step, moved, restored

        step, moved, restored = cluster.run(live_migrate)
        bad = [t.name for t in session.model.tensors
               if not t.content().equals(t.expected_content(restored))]
        result["migration"] = {
            "model": spec.instance_name,
            "from": src.name, "to": dst.name,
            "bytes_moved": moved,
            "restored_step": restored,
            "newest_step": step,
            "bit_exact": bad == [],
        }
    return result


def _measure(cfg):
    fleet = _run_fleet(cfg, cfg["daemons"], migrate=True)
    single = _run_fleet(cfg, 1)
    return {
        "workload": dict(cfg, models=list(MODEL_CYCLE)),
        "fleet": fleet,
        "single": single,
        "p99_improvement": round(single["p99_ns"] / fleet["p99_ns"], 2),
    }


def test_fleet_open_loop(benchmark, shared_results):
    fast = os.environ.get("CI_FAST", "0") != "0"
    cfg = SMALL if fast else FULL
    results = run_once(benchmark, "fleet_open_loop",
                       lambda: _measure(cfg), shared_results)
    fleet, single = results["fleet"], results["single"]
    rows = [
        [f"{run['daemons']} daemon(s)", run["completed"],
         run["skipped"], fmt_time(run["p50_ns"]),
         fmt_time(run["p99_ns"])]
        for run in (single, fleet)
    ]
    print(render_table(
        f"Open loop, {cfg['tenants']} tenants: sharding gives "
        f"{results['p99_improvement']}x better p99 dump latency",
        ["topology", "completed", "skipped", "p50", "p99"], rows))
    print(f"  per-daemon completions: {fleet['per_daemon_completed']} "
          f"(fairness {fleet['fairness']})")

    # Every shard did real work and the migration round-tripped.
    assert all(count > 0
               for count in fleet["per_daemon_completed"].values()), \
        f"idle shard: {fleet['per_daemon_completed']}"
    assert fleet["migration"]["bit_exact"], fleet["migration"]
    assert fleet["errors"] == 0, f"fleet run dropped {fleet['errors']}"

    if fast:
        # Reduced scale: the structure must hold (sharding never makes
        # the tail worse) but the 3x bar belongs to the full fleet.
        assert results["p99_improvement"] > 1.0
        return  # no guard, no JSON rewrite

    # The acceptance bar: sharding buys >= 3x on the p99 tail.
    assert results["p99_improvement"] >= 3.0, \
        f"p99 improved only {results['p99_improvement']}x (< 3x bar)"

    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as fh:
            committed = json.load(fh)
        floor = committed["p99_improvement"] * 0.8
        assert results["p99_improvement"] >= floor, (
            f"fleet regressed: {results['p99_improvement']}x < 80% of "
            f"committed {committed['p99_improvement']}x")

    with open(BENCH_JSON, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.mark.bench_smoke
def test_smoke_fleet_shards_beat_one_daemon():
    """CI_FAST-sized structure check without the benchmark fixture."""
    results = _measure(SMALL)
    assert results["fleet"]["completed"] > 0
    assert results["single"]["completed"] > 0
    assert results["fleet"]["p99_ns"] <= results["single"]["p99_ns"]
