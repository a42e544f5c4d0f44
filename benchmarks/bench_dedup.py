"""Deduplicated checkpoints on the Fig. 14 incremental dump trace.

The Fig. 14 GPT experiment dumps a training run's checkpoint sequence;
its fine-tune analogue here is ViT-L/32 with a head-only trace — one
full checkpoint followed by head-only fine-tune steps.  This is the
delta-checkpoint ablation, in the Check-N-Run direction the paper cites
(§VII): the full (contiguous) layout re-pulls every byte each dump; the
dedup layout hashes per-tensor dirty spans client-side and moves only
chunks the pool-wide refcounted store does not already hold.

Recorded in the golden record (``benchmarks/golden.json``) under
``dedup_fig14``:

* ``bytes_moved`` full vs dedup over the whole trace, and ``reduction``
  (the acceptance bar is >= 3x; head-only traces land far above it);
* ``dump_ns`` mean per incremental step for each mode, and ``speedup``;
* ``chunks_recycled`` and ``registrations`` per dump: from the third
  head-only dump on, each new head chunk lands in a spare — a chunk the
  dump before displaced, still allocated and pinned — so the dump
  registers no memory;
* ``restore`` — the dedup restore must reassemble the mixed-step state
  (head at the newest step, backbone at the base step) bit-exactly.

Every run checks that a delta dump takes under 0.75x a full dump, and
that the head-only dumps after the second register nothing.  At
full size a head-only dump must also move under 1% of the model's bytes
(averaged over the trace); CI runs it with ``--golden check``, which
pins every value exactly.  ``CI_FAST=1`` shrinks the model and trace
and skips that check.
"""

import os

import pytest

from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.dnn.zoo import build_zoo_model, head_tensor_names
from repro.harness.cluster import PaperCluster
from repro.harness.report import render_table
from repro.units import fmt_bytes, fmt_time, kib

from conftest import run_once

#: Full-size trace: ViT-L/32, one full dump + 4 head-only dumps.
FULL = {"model": "vit_l_32", "steps": 5}
#: CI_FAST trace: ViT-B/32, one full dump + 3 head-only dumps (the
#: shortest trace whose ideal reduction, ~4x, clears the 3x bar).
SMALL = {"model": "vit_b_32", "steps": 4}


def _run_trace(cfg, dedup):
    """One mode over the fine-tune trace; returns bytes/time/restore."""
    spec = build_zoo_model(cfg["model"])
    head = head_tensor_names(spec)
    cluster = PaperCluster(seed=230, tracing=True)
    holder = {"dump_ns": [], "bytes_pulled": [], "chunks_recycled": [],
              "registrations": []}

    def scenario(env):
        instance = ModelInstance.materialize(
            cfg["model"], spec.tensors, cluster.volta.gpus[0],
            model_seed=14)
        session = yield from cluster.portus_register(instance, dedup=dedup)
        for step in range(1, cfg["steps"] + 1):
            instance.update_step(step, only=None if step == 1 else head)
            before = cluster.obs.metrics.value("daemon.bytes_pulled")
            start = env.now
            reply = yield from session.checkpoint(step)
            holder["dump_ns"].append(env.now - start)
            holder["bytes_pulled"].append(
                cluster.obs.metrics.value("daemon.bytes_pulled") - before)
            holder["chunks_recycled"].append(reply.get("chunks_recycled", 0))
            holder["registrations"].append(sum(
                1 for span in cluster.obs.tracer.named("mr.register")
                if span.start_ns >= start))
        # Scramble, restore, and verify the mixed-step reassembly.
        instance.update_step(cfg["steps"] + 7)
        restored = yield from session.restore()
        assert restored == cfg["steps"]
        bad = [t.name for t in instance.tensors
               if not t.content().equals(t.expected_content(
                   restored if t.name in head else 1))]
        holder["restore_bit_exact"] = bad == []
        holder["mismatches"] = bad

    cluster.run(scenario)
    incr = holder["dump_ns"][1:]
    return {
        "bytes_moved": sum(holder["bytes_pulled"]),
        "bytes_first": holder["bytes_pulled"][0],
        "bytes_incremental": sum(holder["bytes_pulled"][1:]),
        "dump_incremental_ns": sum(incr) // len(incr),
        "chunks_recycled": holder["chunks_recycled"],
        "registrations": holder["registrations"],
        "restore_bit_exact": holder["restore_bit_exact"],
        "mismatches": holder["mismatches"],
    }


def _measure(cfg):
    full = _run_trace(cfg, dedup=False)
    dedup = _run_trace(cfg, dedup=True)
    return {
        "workload": dict(cfg),
        "full": full,
        "dedup": dedup,
        "reduction": round(full["bytes_moved"] / dedup["bytes_moved"], 2),
        "speedup": round(full["dump_incremental_ns"]
                         / dedup["dump_incremental_ns"], 2),
    }


def test_dedup_fig14_trace(benchmark, shared_results):
    fast = os.environ.get("CI_FAST", "0") != "0"
    cfg = SMALL if fast else FULL
    results = run_once(benchmark, "dedup_fig14", lambda: _measure(cfg),
                       shared_results)
    full, dedup = results["full"], results["dedup"]
    rows = [
        ["full", fmt_bytes(full["bytes_moved"]),
         fmt_time(full["dump_incremental_ns"])],
        ["dedup", fmt_bytes(dedup["bytes_moved"]),
         fmt_time(dedup["dump_incremental_ns"])],
    ]
    print(render_table(
        f"Dedup on the Fig. 14 trace: {cfg['model']} head fine-tune, "
        f"{cfg['steps']} dumps -> {results['reduction']}x fewer bytes, "
        f"{results['speedup']}x faster incremental dump",
        ["layout", "bytes over the wire", "incremental dump time"], rows))

    assert dedup["restore_bit_exact"], dedup["mismatches"]
    assert full["restore_bit_exact"], full["mismatches"]
    # The acceptance bar: >= 3x fewer bytes moved across the trace.
    assert results["reduction"] >= 3.0, \
        f"reduction {results['reduction']}x below the 3x bar"
    # A delta dump takes under 0.75x a full dump.
    assert results["speedup"] > 1 / 0.75
    # From the third head-only dump on, the head chunks land in spares:
    # the dump registers no memory.
    assert dedup["registrations"][3:] == [0] * (cfg["steps"] - 3)
    assert all(dedup["chunks_recycled"][3:])

    if fast:
        return  # reduced scale: structure checked

    # A head-only dump moves under 1% of the model's bytes.
    head_dumps = cfg["steps"] - 1
    assert dedup["bytes_incremental"] / head_dumps \
        < full["bytes_first"] / 100


@pytest.mark.bench_smoke
def test_smoke_dedup_moves_fewer_bytes_and_restores():
    """Tiny model, structure only: the dedup datapath moves less than a
    third of the bytes and reassembles bit-exactly."""
    specs = [TensorSpec("backbone.weight", (256, 1024)),
             TensorSpec("backbone.bias", (1024,)),
             TensorSpec("head.weight", (64, 1024)),
             TensorSpec("head.bias", (64,))]
    cluster = PaperCluster(seed=231)
    holder = {}

    def scenario(env):
        instance = ModelInstance.materialize(
            "smoke", specs, cluster.volta.gpus[0], model_seed=3)
        session = yield from cluster.portus_register(
            instance, dedup=True, chunk_bytes=256 * kib(1))
        instance.update_step(1)
        first = yield from session.checkpoint(1)
        instance.update_step(2, only=["head.weight", "head.bias"])
        second = yield from session.checkpoint(2)
        instance.update_step(9)
        restored = yield from session.restore()
        holder.update(first=first, second=second, restored=restored,
                      model=instance)

    cluster.run(scenario)
    assert holder["restored"] == 2
    assert holder["second"]["bytes_pulled"] * 3 \
        <= holder["first"]["bytes_pulled"]
    head = {"head.weight", "head.bias"}
    for tensor in holder["model"].tensors:
        want = 2 if tensor.name in head else 1
        assert tensor.content().equals(tensor.expected_content(want)), \
            tensor.name
