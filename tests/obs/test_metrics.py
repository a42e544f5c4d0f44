"""Tests for counters, gauges, HDR histograms, and the registry."""

import json

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_monotonic():
    counter = Counter("c")
    counter.inc()
    counter.inc(9)
    assert counter.value == 10
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.snapshot() == {"type": "counter", "value": 10}


def test_gauge_tracks_high_water_mark():
    gauge = Gauge("g")
    gauge.set(7)
    gauge.set(3)
    assert gauge.value == 3
    assert gauge.max == 7
    assert gauge.snapshot() == {"type": "gauge", "value": 3, "max": 7}


def test_histogram_small_values_are_exact():
    hist = Histogram("h", sub_bits=5)
    for value in range(32):  # below 2**sub_bits every value is its own bucket
        assert hist._index(value) == value
        assert hist._upper_bound(hist._index(value)) == value


def test_histogram_bucket_relative_error_is_bounded():
    hist = Histogram("h", sub_bits=5)
    for value in (33, 100, 1023, 4096, 10**6, 10**9, 37 * 10**9):
        upper = hist._upper_bound(hist._index(value))
        assert upper >= value
        # HDR guarantee: the bucket upper bound overshoots by < 1/2**sub_bits.
        assert (upper - value) / value < 1 / 32 + 1e-9


def test_histogram_percentiles_and_stats():
    hist = Histogram("lat")
    for value in range(1, 101):  # 1..100
        hist.record(value)
    assert hist.count == 100
    assert hist.min == 1
    assert hist.max == 100
    assert hist.mean == pytest.approx(50.5)
    assert hist.percentile(50) in range(48, 54)
    p99 = hist.percentile(99)
    assert 97 <= p99 <= 100
    # Percentiles never exceed the observed max even at bucket edges.
    assert hist.percentile(100) == 100
    with pytest.raises(ValueError):
        hist.percentile(0)
    with pytest.raises(ValueError):
        hist.record(-5)


def test_histogram_empty_snapshot():
    hist = Histogram("empty")
    snap = hist.snapshot()
    assert snap["count"] == 0
    assert snap["p50"] == 0
    assert snap["mean"] == 0.0


def test_histogram_snapshot_keys():
    hist = Histogram("lat")
    hist.record(10)
    snap = hist.snapshot()
    assert {"type", "count", "sum", "min", "max", "mean",
            "p50", "p90", "p99", "p99_9"} == set(snap)


def test_registry_get_or_create_and_kind_mismatch():
    registry = MetricsRegistry()
    counter = registry.counter("x")
    assert registry.counter("x") is counter
    with pytest.raises(TypeError):
        registry.gauge("x")
    assert registry.get("x") is counter
    assert registry.get("missing") is None
    registry.histogram("h").record(3)
    registry.gauge("g").set(2)
    assert registry.names() == ["g", "h", "x"]


def test_registry_snapshot_is_json_and_sorted():
    registry = MetricsRegistry()
    registry.counter("b").inc(2)
    registry.counter("a").inc(1)
    snapshot = registry.snapshot()
    assert list(snapshot) == ["a", "b"]
    parsed = json.loads(registry.to_json())
    assert parsed == {"a": {"type": "counter", "value": 1},
                      "b": {"type": "counter", "value": 2}}


def _fleet_registry():
    registry = MetricsRegistry()
    registry.counter("daemon.bytes", shard="server").inc(5)
    registry.counter("daemon.bytes", shard="server1").inc(7)
    registry.counter("daemon.errors.REGISTER", shard="server").inc(1)
    registry.counter("daemon.errors.DO_RESTORE", shard="server1").inc(2)
    registry.counter("daemon.errors.legacy").inc(4)
    return registry


def test_labelled_counter_is_one_series_per_label_set():
    registry = _fleet_registry()
    series = registry.counter("daemon.bytes", shard="server")
    assert registry.counter("daemon.bytes", shard="server") is series
    assert series.value == 5
    assert registry.counter("daemon.bytes", shard="server1").value == 7


def test_value_sums_every_series_whose_labels_include_the_given_ones():
    registry = _fleet_registry()
    assert registry.value("daemon.bytes") == 12
    assert registry.value("daemon.bytes", shard="server1") == 7
    assert registry.value("daemon.bytes", shard="server9") == 0
    assert registry.value("missing", shard="server") == 0
    # An unlabelled name has no series carrying a shard.
    assert registry.value("daemon.errors.legacy", shard="server") == 0
    registry.counter("moves", src="a", dst="b").inc(2)
    registry.counter("moves", src="a", dst="c").inc(3)
    registry.counter("moves", src="b", dst="c").inc(4)
    assert registry.value("moves", src="a") == 5
    assert registry.value("moves", dst="c") == 7
    assert registry.value("moves", src="a", dst="c") == 3


def test_sum_counters_with_and_without_labels():
    registry = _fleet_registry()
    assert registry.sum_counters("daemon.errors.") == 7
    assert registry.sum_counters("daemon.errors.", shard="server") == 1
    assert registry.sum_counters("daemon.errors.", shard="server1") == 2
    assert registry.sum_counters("daemon.errors.", shard="server2") == 0


def test_snapshot_keeps_one_entry_per_name_with_sorted_series():
    registry = MetricsRegistry()
    registry.counter("moves", src="b", dst="a").inc(1)
    registry.counter("moves", src="a", dst="b").inc(2)
    registry.counter("plain").inc(3)
    snapshot = registry.snapshot()
    assert list(snapshot) == ["moves", "plain"]
    assert snapshot["moves"] == {"type": "counter", "value": 3,
                                 "series": {"dst=a,src=b": 1,
                                            "dst=b,src=a": 2}}
    assert list(snapshot["moves"]["series"]) == ["dst=a,src=b",
                                                 "dst=b,src=a"]
    assert snapshot["plain"] == {"type": "counter", "value": 3}
    assert json.loads(registry.to_json()) == snapshot


def test_mixing_labelled_and_unlabelled_series_raises():
    registry = MetricsRegistry()
    registry.counter("labelled", shard="server").inc()
    with pytest.raises(TypeError):
        registry.counter("labelled")
    registry.counter("plain").inc()
    with pytest.raises(TypeError):
        registry.counter("plain", shard="server")
    with pytest.raises(TypeError):
        registry.gauge("labelled")


def test_mismatched_label_keys_raise():
    registry = MetricsRegistry()
    registry.counter("moves", src="a", dst="b").inc()
    with pytest.raises(TypeError):
        registry.counter("moves", src="a")
    with pytest.raises(TypeError):
        registry.counter("moves", src="a", dst="b", kind="x")
    with pytest.raises(TypeError):
        registry.counter("moves", shard="a", dst="b")
    assert registry.value("moves") == 1


def test_registry_write(tmp_path):
    registry = MetricsRegistry()
    registry.counter("written").inc(4)
    path = tmp_path / "metrics.json"
    registry.write(str(path))
    assert json.loads(path.read_text())["written"]["value"] == 4
