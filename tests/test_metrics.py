"""Unit tests for cost ledgers and interval recorders."""

import pytest

from repro.metrics import CostLedger, IntervalRecorder, aggregate_utilization


# --- CostLedger ----------------------------------------------------------------


def test_ledger_accumulates():
    ledger = CostLedger()
    ledger.add("rdma", 100)
    ledger.add("rdma", 50)
    ledger.add("serialize", 150)
    assert ledger.get("rdma") == 150
    assert ledger.get("anything") == 0
    assert ledger.asdict() == {"rdma": 150, "serialize": 150}


def test_ledger_rejects_negative():
    ledger = CostLedger()
    with pytest.raises(ValueError):
        ledger.add("x", -1)


# --- IntervalRecorder -------------------------------------------------------------


def test_recorder_basic_utilization():
    recorder = IntervalRecorder("gpu")
    recorder.begin(0)
    recorder.end(60)
    recorder.begin(80)
    recorder.end(100)
    assert recorder.busy_ns(0, 100) == 80
    assert recorder.utilization(0, 100) == pytest.approx(0.8)


def test_recorder_window_clipping():
    recorder = IntervalRecorder()
    recorder.begin(10)
    recorder.end(90)
    assert recorder.busy_ns(50, 100) == 40
    assert recorder.busy_ns(0, 50) == 40
    assert recorder.busy_ns(200, 300) == 0


def test_recorder_open_interval_counts():
    recorder = IntervalRecorder()
    recorder.begin(50)
    assert recorder.busy
    assert recorder.utilization(0, 100) == pytest.approx(0.5)


def test_recorder_misuse_detected():
    recorder = IntervalRecorder("r")
    with pytest.raises(ValueError, match="idle"):
        recorder.end(10)
    recorder.begin(0)
    with pytest.raises(ValueError, match="busy"):
        recorder.begin(5)
    with pytest.raises(ValueError, match="before begin"):
        recorder.end(-1)


def test_recorder_trace_bins():
    recorder = IntervalRecorder()
    recorder.begin(0)
    recorder.end(50)
    trace = recorder.trace(0, 100, bin_ns=25)
    assert [u for _t, u in trace] == [1.0, 1.0, 0.0, 0.0]
    assert [t for t, _u in trace] == [0, 25, 50, 75]


def test_recorder_trace_validates_bin():
    recorder = IntervalRecorder()
    with pytest.raises(ValueError):
        recorder.trace(0, 100, bin_ns=0)


def test_aggregate_utilization():
    a = IntervalRecorder()
    a.begin(0)
    a.end(100)
    b = IntervalRecorder()
    b.begin(0)
    b.end(50)
    assert aggregate_utilization([a, b], 0, 100) == pytest.approx(0.75)
    assert aggregate_utilization([], 0, 100) == 0.0


def test_zero_length_window():
    recorder = IntervalRecorder()
    assert recorder.utilization(10, 10) == 0.0
