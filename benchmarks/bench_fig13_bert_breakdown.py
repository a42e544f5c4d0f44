"""Fig. 13: breakdown analysis of BERT checkpointing time.

Paper: RDMA transmission dominates Portus's (short) checkpoint time;
serialization + cuMemcpy contribute 46.5 % to ext4-NVMe and 57.2 % to
BeeGFS-PMem; ext4-NVMe spends 53.7 % of its time interacting with block
devices through kernel crossings; and Portus's one-sided transport beats
BeeGFS's two-sided RPCoRDMA.

Every phase of all three storage options comes from the spans of one
traced run each; fig13_bert_breakdown() itself asserts that each traced
run is bit-identical in simulated time to an untraced twin.  With
``--trace-out DIR`` the three Chrome traces are written there as
``fig13_<option>.json``.
"""

import json
import os

from repro.harness.experiments import fig13_bert_breakdown
from repro.harness.report import render_breakdown, render_metrics
from repro.units import fmt_time

from conftest import run_once

#: Span names each option's trace must hold: every layer of its path.
TRACE_NAMES = {
    "ext4_nvme": {"torch_save.gpu_to_dram", "torch_save.serialization",
                  "torch_save.fs_write", "fs.syscall", "fs.page_cache",
                  "fs.block_io"},
    "beegfs_pmem": {"torch_save.gpu_to_dram", "torch_save.serialization",
                    "torch_save.fs_write", "fs.syscall", "fs.staging",
                    "fs.dax_write"},
    "portus": {"client.DO_CHECKPOINT", "daemon.DO_CHECKPOINT",
               "engine.read", "wr.read"},
}


def test_fig13_bert_breakdown(benchmark, shared_results, trace_out_dir):
    result = run_once(benchmark, "fig13", fig13_bert_breakdown,
                      shared_results)
    for option in TRACE_NAMES:
        total = result[f"{option}_total_ns"]
        print(render_breakdown(
            f"Fig. 13: BERT checkpoint via {option} "
            f"(total {fmt_time(total)})", result[option]))
    print(render_metrics("Portus deployment metrics",
                         result["metrics"]["portus"]))

    # Every phase accounted, nothing negative.
    for option in TRACE_NAMES:
        assert all(share >= 0 for share in result[option].values())
        assert abs(sum(result[option].values()) - 1.0) < 1e-9
    # The RDMA pull *is* the Portus checkpoint.
    assert result["portus"]["rdma_pull"] > 0.95
    # Portus total is far below both baselines.
    assert result["portus_total_ns"] * 5 < result["ext4_nvme_total_ns"]
    assert result["portus_total_ns"] * 5 < result["beegfs_pmem_total_ns"]
    # Serialization + cuMemcpy shares (paper: 46.5% / 57.2%).
    ext4_share = result["ext4_nvme"]["serialization+cuMemcpy"]
    beegfs_share = result["beegfs_pmem"]["serialization+cuMemcpy"]
    # Note: the paper's Fig. 13 shares (46.5% ext4 / 57.2% BeeGFS) are in
    # mild tension with its Fig. 11 (near-equal totals for the two
    # baselines); our calibration matches Fig. 11, which puts both
    # serialization+cuMemcpy shares in the mid-50s.
    assert abs(ext4_share - 0.465) < 0.13
    assert abs(beegfs_share - 0.572) < 0.06
    # ext4 spends roughly half its time in block-device kernel crossings
    # (paper: 53.7%).
    assert abs(result["ext4_nvme"]["block_io_kernel"] - 0.537) < 0.13

    # Each trace is valid Chrome trace_event JSON with span + metadata
    # events for every layer of its path.
    for option, names in TRACE_NAMES.items():
        text = result["chrome_trace_json"][option]
        events = json.loads(text)["traceEvents"]
        assert names <= {e["name"] for e in events}, option
        assert all({"ph", "pid", "tid", "name"} <= set(e) for e in events)
        if trace_out_dir is not None:
            path = os.path.join(trace_out_dir, f"fig13_{option}.json")
            with open(path, "w") as handle:
                handle.write(text)
            print(f"chrome trace written to {path}")
    metrics = result["metrics"]["portus"]
    assert metrics["daemon.checkpoints_completed"]["value"] == 1
    assert metrics["daemon.checkpoint_latency_ns"]["count"] == 1
