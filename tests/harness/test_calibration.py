"""Tests pinning the calibration chain: constants -> predictions -> paper."""

import pytest

from repro.harness import calibration
from repro.harness.cluster import PaperCluster
from repro.harness.experiments import ENGINE_STRIPED_OPTS


def test_expected_table1_matches_paper():
    expected = calibration.expected_table1_fractions()
    for phase, paper in calibration.TABLE1_PAPER.items():
        assert expected[phase] == pytest.approx(paper, abs=0.01), phase


def test_fractions_sum_to_one():
    assert sum(calibration.expected_table1_fractions().values()) == \
        pytest.approx(1.0)


def test_predicted_speedup_in_paper_band():
    # The asymptotic large-model prediction brackets the paper's 8.49x
    # average (per-op overheads push individual models around it).
    assert 7.5 < calibration.predicted_checkpoint_speedup() < 9.0


def test_baseline_per_byte_cost():
    # ~1.39 ns/byte => ~0.72 GB/s end-to-end torch.save -> BeeGFS.
    assert calibration.baseline_checkpoint_ns_per_byte() == pytest.approx(
        1.386, rel=0.02)


def test_portus_per_byte_cost_is_bar_bound():
    assert calibration.portus_checkpoint_ns_per_byte() == pytest.approx(
        1e9 / calibration.GPU_BAR_READ_BPS, rel=1e-9)


def test_fig10_anchor_relationships():
    # GPU BAR read is 30% below the DRAM DMA read (the paper's phrasing).
    ratio = 1 - (calibration.GPU_BAR_READ_BPS
                 / calibration.NIC_DMA_READ_BPS)
    assert ratio == pytest.approx(0.30, abs=0.01)
    # The wire never bottlenecks a single stream.
    assert calibration.WIRE_EFFECTIVE_BPS > calibration.NIC_DMA_READ_BPS
    # The anchors are the rates the simulated testbed runs at.
    cluster = PaperCluster(ampere_nodes=0)
    gpu, nic = cluster.volta.gpus[0], cluster.server.nic
    assert gpu.pcie_read.capacity_bps == calibration.GPU_BAR_READ_BPS
    assert gpu.pcie_write.capacity_bps == calibration.GPU_PCIE_WRITE_BPS
    assert nic.dma_read.capacity_bps == calibration.NIC_DMA_READ_BPS
    assert nic.dma_write.capacity_bps == calibration.NIC_DMA_WRITE_BPS
    assert cluster.fabric.link_bw_bps == calibration.WIRE_EFFECTIVE_BPS
    assert (cluster.volta.nvme.write_channel.capacity_bps
            == calibration.NVME_WRITE_BPS)
    assert (cluster.server.pmem_devdax.write_channel.congestion_threshold
            == calibration.PMEM_INGEST_STREAMS)
    assert (ENGINE_STRIPED_OPTS["max_pmem_streams"]
            == calibration.PMEM_INGEST_STREAMS)


def test_serialization_slower_than_every_transport_phase():
    # Table I's core point: serialization is the single largest cost.
    per_byte = {
        "ser": 1 / calibration.SERIALIZATION_BPS,
        "d2h": 1 / calibration.CUDA_D2H_PAGEABLE_BPS,
        "dax": 1 / calibration.DAX_COPY_BPS,
        "staging": 1 / calibration.STAGING_COPY_BPS,
    }
    assert per_byte["ser"] == max(per_byte.values())
