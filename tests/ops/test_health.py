"""The health model: pure classification of heartbeat health samples."""

from repro.ops.health import (H_CORRUPT, H_DEGRADED, H_DOWN, H_HEALTHY,
                              H_WEDGED, STATES, HealthThresholds, classify,
                              overlay_fsck, worst)
from repro.pmem.fsck import SEV_WARN, Finding, FsckReport
from repro.units import msecs


def sample(up=True, closed=False, utilization=0.1, oldest_inflight=0,
           **counters):
    base = {"requests": 10, "errors": 0, "checkpoints_aborted": 0,
            "restores_aborted": 0, "dropped_replies": 0,
            "reaped_sessions": 0}
    base.update(counters)
    return {"time_ns": 0, "up": up, "port": 9900, "models": 1,
            "attached": 1, "inflight": 1 if oldest_inflight else 0,
            "oldest_inflight_age_ns": oldest_inflight,
            "pool": {"closed": closed, "used_bytes": 0,
                     "capacity_bytes": 100, "utilization": utilization},
            "counters": base}


def dirty_report():
    report = FsckReport()
    report.add(Finding("stale-active", SEV_WARN, "v0 still ACTIVE"))
    return report


def test_missing_or_dead_samples_classify_down():
    assert classify(None)[0] == H_DOWN
    assert classify(sample(up=False))[0] == H_DOWN
    assert classify(sample(closed=True))[0] == H_DOWN


def test_quiet_sample_is_healthy():
    state, reasons = classify(sample())
    assert state == H_HEALTHY
    assert reasons == []


def test_stuck_inflight_request_means_wedged():
    thresholds = HealthThresholds(wedge_ns=msecs(10))
    state, reasons = classify(sample(oldest_inflight=msecs(50)),
                              thresholds=thresholds)
    assert state == H_WEDGED
    assert any("stuck" in reason for reason in reasons)
    # A pull younger than the threshold is liveness, not a wedge.
    assert classify(sample(oldest_inflight=msecs(5)),
                    thresholds=thresholds)[0] == H_HEALTHY


def test_nearly_full_pool_degrades():
    state, reasons = classify(sample(utilization=0.95))
    assert state == H_DEGRADED
    assert any("high water" in reason for reason in reasons)


def test_fault_burst_since_previous_sample_degrades():
    previous = sample()
    current = sample(errors=2, dropped_replies=2)
    assert classify(current, previous)[0] == H_DEGRADED
    # Without the previous sample there is no delta to judge.
    assert classify(current)[0] == H_HEALTHY
    # A burst below the threshold stays healthy.
    assert classify(sample(errors=1), previous)[0] == H_HEALTHY


def test_counter_resets_never_count_as_negative_bursts():
    previous = sample(errors=50)
    assert classify(sample(errors=0), previous)[0] == H_HEALTHY


def test_fsck_overlay_upgrades_to_corrupt_but_never_past_down():
    state, reasons = overlay_fsck(H_HEALTHY, [], dirty_report())
    assert state == H_CORRUPT
    assert any("stale-active" in reason for reason in reasons)
    assert overlay_fsck(H_WEDGED, [], dirty_report())[0] == H_CORRUPT
    assert overlay_fsck(H_DOWN, [], dirty_report())[0] == H_DOWN
    assert overlay_fsck(H_HEALTHY, [], FsckReport())[0] == H_HEALTHY
    assert overlay_fsck(H_HEALTHY, [], None)[0] == H_HEALTHY


def test_worst_follows_severity_order():
    assert worst([]) == H_HEALTHY
    assert worst([H_HEALTHY, H_DEGRADED]) == H_DEGRADED
    assert worst([H_CORRUPT, H_WEDGED, H_DOWN]) == H_DOWN
    assert list(STATES)[0] == H_HEALTHY and list(STATES)[-1] == H_DOWN


def test_classification_is_deterministic():
    previous = sample()
    current = sample(utilization=0.99, errors=5,
                     oldest_inflight=msecs(200))
    assert classify(current, previous) == classify(current, previous)
