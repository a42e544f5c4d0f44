"""The daemon/pool health model: heartbeat samples → health states.

A health *sample* is the dict :meth:`PortusDaemon.health_snapshot`
produces (and heartbeat acks carry): liveness, pool utilization,
inflight/lease counts, and the monotonic fault counters from the shared
:class:`~repro.obs.metrics.MetricsRegistry`.  :func:`classify` folds one
sample — plus the previous sample, for counter deltas — into one of five
states:

* ``healthy`` — serving, no fault signal;
* ``degraded`` — serving, but faults are accumulating (error/abort
  bursts since the last sample, dropped replies, or the pool is nearly
  full) — the operator steers clients onto the DRAM failover path;
* ``wedged`` — an in-flight request has held a model's CAS guard longer
  than any healthy pull could need: the datapath is stuck, only a
  restart recovers it;
* ``corrupt`` — the structural verifier found index damage (this state
  is overlaid by :func:`overlay_fsck`; a heartbeat alone cannot see it);
* ``down`` — the daemon process is gone or its pool is closed.

Classification is pure arithmetic on the sample dicts — deterministic,
simulation-clock-free, and identical whether it runs inside the
operator, in ``portusctl health``, or in a test.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.units import msecs

H_HEALTHY = "healthy"
H_DEGRADED = "degraded"
H_WEDGED = "wedged"
H_CORRUPT = "corrupt"
H_DOWN = "down"

#: All states, ordered from best to worst (index = severity).
STATES = (H_HEALTHY, H_DEGRADED, H_WEDGED, H_CORRUPT, H_DOWN)

SEVERITY = {state: index for index, state in enumerate(STATES)}

#: Counter keys whose *delta* between two samples counts as fault burst
#: evidence for the degraded state.
FAULT_COUNTERS = ("errors", "checkpoints_aborted", "restores_aborted",
                  "dropped_replies", "reaped_sessions")
#: Pool utilization above which a daemon is degraded.
POOL_HIGH_WATER = 0.92
#: Fault-counter delta between two samples that makes a daemon degraded.
FAULT_BURST = 3


class HealthThresholds:
    """The wedge threshold (default sized for the chaos rigs).

    ``wedge_ns`` must sit well above the longest *healthy* pull the
    deployment serves — the lease-reaper rule at the daemon applies
    here too: a live long pull is proof of liveness, not of a wedge.
    """

    def __init__(self, wedge_ns: int = msecs(50)) -> None:
        self.wedge_ns = wedge_ns


DEFAULT_THRESHOLDS = HealthThresholds()


def classify(sample: Optional[Dict],
             previous: Optional[Dict] = None,
             thresholds: Optional[HealthThresholds] = None
             ) -> Tuple[str, List[str]]:
    """One sample (plus the previous one, for deltas) → (state, reasons).

    Reasons are sorted, human-readable strings; they key the operator's
    decision log, so their wording is part of the determinism contract.
    """
    thresholds = thresholds or DEFAULT_THRESHOLDS
    if sample is None:
        return H_DOWN, ["no health sample (daemon unreachable)"]
    if not sample.get("up", False):
        return H_DOWN, ["daemon process is not serving"]
    if sample.get("pool", {}).get("closed", False):
        return H_DOWN, ["pool is closed under a live daemon"]

    reasons: List[str] = []
    state = H_HEALTHY

    oldest = sample.get("oldest_inflight_age_ns", 0)
    if oldest > thresholds.wedge_ns:
        state = H_WEDGED
        reasons.append(f"inflight request stuck for {oldest} ns "
                       f"(wedge threshold {thresholds.wedge_ns} ns)")

    utilization = sample.get("pool", {}).get("utilization", 0.0)
    if utilization > POOL_HIGH_WATER:
        if state == H_HEALTHY:
            state = H_DEGRADED
        reasons.append(f"pool {utilization:.1%} full "
                       f"(high water {POOL_HIGH_WATER:.0%})")

    if previous is not None:
        burst = _fault_delta(sample, previous)
        if burst >= FAULT_BURST:
            if state == H_HEALTHY:
                state = H_DEGRADED
            reasons.append(f"fault burst: {burst} faults since last "
                           f"sample (threshold {FAULT_BURST})")

    return state, sorted(reasons)


def _fault_delta(sample: Dict, previous: Dict) -> int:
    """Faults accumulated between two samples (counters are monotonic
    across daemon restarts because the obs registry is shared)."""
    current = sample.get("counters", {})
    older = previous.get("counters", {})
    return sum(max(0, current.get(key, 0) - older.get(key, 0))
               for key in FAULT_COUNTERS)


def overlay_fsck(state: str, reasons: List[str],
                 report) -> Tuple[str, List[str]]:
    """Fold a (read-only) fsck report into a heartbeat-derived state.

    Structural corruption outranks degraded/wedged — a daemon that is
    up but serving from a damaged index must be repaired before it is
    trusted — but never outranks ``down`` (a dead daemon has no open
    pool to verify).
    """
    if report is None or report.clean or state == H_DOWN:
        return state, reasons
    kinds = report.kinds()
    detail = ", ".join(f"{kind}x{kinds[kind]}" for kind in sorted(kinds))
    reasons = sorted(reasons + [f"fsck findings: {detail}"])
    if SEVERITY[state] < SEVERITY[H_CORRUPT]:
        state = H_CORRUPT
    return state, reasons


def worst(states) -> str:
    """The most severe of *states* (``healthy`` for an empty list)."""
    result = H_HEALTHY
    for state in states:
        if SEVERITY[state] > SEVERITY[result]:
            result = state
    return result


def format_health(state: str, reasons: List[str], sample: Dict) -> str:
    """The ``portusctl health`` text rendering of one classification."""
    pool = sample.get("pool", {})
    counters = sample.get("counters", {})
    lines = [f"state: {state}"]
    for reason in reasons:
        lines.append(f"  - {reason}")
    lines.append(f"daemon: up={sample.get('up')} port={sample.get('port')} "
                 f"models={sample.get('models')} "
                 f"attached={sample.get('attached')} "
                 f"inflight={sample.get('inflight')}")
    lines.append(f"pool: {pool.get('utilization', 0.0):.1%} of "
                 f"{pool.get('capacity_bytes', 0)} bytes"
                 + (" (closed)" if pool.get("closed") else ""))
    lines.append("counters: " + " ".join(
        f"{key}={counters[key]}" for key in sorted(counters)))
    return "\n".join(lines)
