"""Extension: incremental (dirty-tensor) checkpointing.

Check-N-Run (NSDI '22, cited in §VII) shows incremental checkpoints pay
off when most parameters are frozen.  Portus's per-tensor index makes
the extension natural: the client names the dirty tensors, the daemon
pulls only those over RDMA and completes the new version with local
PMem copies from the previous one.  This bench fine-tunes ViT-L/32's
classifier head and compares full vs incremental checkpoint time.
"""

from repro.harness.cluster import PaperCluster
from repro.harness.report import render_table
from repro.units import fmt_bytes, fmt_time

from conftest import run_once


def _run_ablation():
    cluster = PaperCluster(seed=220)
    holder = {}

    def scenario(env):
        session = yield from cluster.portus_register("vit_l_32")
        model = session.model
        model.update_step(1)
        start = env.now
        yield from session.checkpoint(1)
        holder["full_ns"] = env.now - start
        dirty = ["heads.head.weight", "heads.head.bias"]
        pulled_before = cluster.obs.metrics.value("daemon.bytes_pulled")
        model.update_step(2, only=dirty)
        start = env.now
        yield from session.checkpoint(2, dirty=dirty)
        holder["incremental_ns"] = env.now - start
        holder["dirty_bytes"] = (
            cluster.obs.metrics.value("daemon.bytes_pulled") - pulled_before)
        holder["total_bytes"] = model.total_bytes

    cluster.run(scenario)
    return holder


def test_ablation_incremental_checkpoint(benchmark, shared_results):
    results = run_once(benchmark, "ablation_incremental", _run_ablation,
                       shared_results)
    rows = [
        ["full", fmt_bytes(results["total_bytes"]),
         fmt_time(results["full_ns"])],
        ["incremental (head only)", fmt_bytes(results["dirty_bytes"]),
         fmt_time(results["incremental_ns"])],
    ]
    print(render_table(
        "Extension: incremental checkpointing, ViT-L/32 head fine-tune",
        ["mode", "bytes over the wire", "checkpoint time"], rows))
    # Wire traffic drops to just the head...
    assert results["dirty_bytes"] < results["total_bytes"] / 100
    # ...and wall time drops to the local-copy bound.
    assert results["incremental_ns"] < results["full_ns"] * 0.75
