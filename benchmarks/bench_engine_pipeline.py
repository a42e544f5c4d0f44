"""Engine ablation: sliding-window vs striped datapath.

Headline (the Fig. 14 dump, GPT-22.4B over 16 shards): the single-QP
sliding-window datapath runs the concurrent dump at the *congested*
PMem write rate (6.0 GB/s) because 16 models x QP_DEPTH in-flight WRs
swamp the Optane write-combining buffer.  The striped engine (4 QPs per
model, 4 MiB segmentation, daemon-wide ingest limiter) holds the media
at its uncongested 8.4 GB/s.  That ratio — 8.4/6.0 = 1.40x — is the
*entire* headroom scheduling can recover: the bench asserts >= 1.3x and
that the measurement never claims more than the physics allows.

The grid sweep (QP depth x chunk size x tensor-size skew) runs on a
synthetic single-model workload where the per-WR costs are visible:
depth 1 serializes one posting latency per WR, and chunking normalizes
a skewed tensor-size distribution to the uniform one.

Results are recorded in the golden record (``benchmarks/golden.json``)
under ``engine_pipeline``.
"""

import repro.core.daemon as daemon_module
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.harness.cluster import PaperCluster
from repro.harness.experiments import engine_datapath_ablation
from repro.harness.report import render_table
from repro.units import fmt_time, kib, mib

from conftest import run_once

#: The PMem congestion cliff bounds the headline speedup (DESIGN.md §7).
PHYSICAL_CEILING = 8.4 / 6.0

DEPTHS = [1, 8, 32]
CHUNKS = {"none": None, "64k": kib(64), "4m": mib(4)}
#: Same total bytes (256 MiB), very different distributions.
SKEWS = {
    "uniform": lambda: [TensorSpec(f"t{i}", (1024, 1024))  # 64 x 4 MiB
                        for i in range(64)],
    "skewed": lambda: [TensorSpec("giant", (32 * 1024, 1024))]  # 128 MiB
    + [TensorSpec(f"s{i}", (256, 1024)) for i in range(128)],  # + 1 MiB
}


def _grid_time(specs, depth, chunk_bytes, seed=203):
    original = daemon_module.QP_DEPTH
    daemon_module.QP_DEPTH = depth
    try:
        cluster = PaperCluster(
            seed=seed, ampere_nodes=0,
            daemon_kwargs={"engine_chunk_bytes": chunk_bytes})
        holder = {}

        def scenario(env):
            instance = ModelInstance.materialize(
                "grid", specs, cluster.volta.gpus[0], model_seed=1)
            session = yield from cluster.portus_client().register(instance)
            instance.update_step(1)
            start = env.now
            yield from session.checkpoint(1)
            holder["elapsed"] = env.now - start

        cluster.run(scenario)
        return holder["elapsed"], cluster.server.nic.wrs_posted
    finally:
        daemon_module.QP_DEPTH = original


def _run_grid():
    grid = {}
    for skew, make_specs in SKEWS.items():
        for depth in DEPTHS:
            for chunk_name, chunk_bytes in CHUNKS.items():
                elapsed, wrs = _grid_time(make_specs(), depth, chunk_bytes)
                grid[f"{skew}/depth{depth}/{chunk_name}"] = {
                    "elapsed_ns": elapsed, "wrs": wrs}
    return grid


def _run_all():
    return {"headline": engine_datapath_ablation(), "grid": _run_grid()}


def test_engine_pipeline(benchmark, shared_results):
    results = run_once(benchmark, "engine_pipeline", _run_all,
                       shared_results)
    headline, grid = results["headline"], results["grid"]

    speedup = headline["sliding_ns"] / headline["striped_ns"]
    rows = [
        ["sliding, 1 QP", fmt_time(headline["sliding_ns"]), "1.00x"],
        ["striped, 4 QP + ingest cap", fmt_time(headline["striped_ns"]),
         f"{speedup:.3f}x"],
    ]
    print(render_table(
        "Engine ablation: GPT-22.4B concurrent dump (ceiling 1.40x = "
        "PMem 8.4/6.0 GB/s)",
        ["datapath", "dump time", "speedup"], rows))
    grid_rows = [[cell, fmt_time(entry["elapsed_ns"]), entry["wrs"]]
                 for cell, entry in grid.items()]
    print(render_table(
        "Grid: 256 MiB model, skew x QP depth x chunk size",
        ["cell", "checkpoint", "WRs posted"], grid_rows))

    # The headline claim, bounded by physics on both sides.
    assert speedup >= 1.3
    assert speedup <= PHYSICAL_CEILING * 1.01

    for skew in SKEWS:
        # Depth 1 serializes one posting latency per WR.
        assert grid[f"{skew}/depth1/64k"]["elapsed_ns"] > \
            grid[f"{skew}/depth32/64k"]["elapsed_ns"]
    # Chunking normalizes the skewed distribution to the uniform one.
    uniform = grid["uniform/depth32/4m"]["elapsed_ns"]
    skewed = grid["skewed/depth32/4m"]["elapsed_ns"]
    assert abs(skewed - uniform) <= uniform * 0.02
