"""Per-daemon admission control: bounded inflight work, typed rejects.

One :class:`AdmissionController` guards one daemon.  It bounds how many
registrations and checkpoint ingests the daemon will work on
concurrently; beyond the bound, requests are rejected *before* any
pool/engine state changes with :class:`~repro.errors.AdmissionReject`
carrying a deterministic ``retry_after_ns`` hint.  Rejection is cheap
(no QP churn — the client keeps its transport and just sleeps), so the
daemon sheds load instead of queueing unboundedly and wedging.

The retry-after hint grows linearly with the *consecutive* reject
streak (capped), which spreads a thundering herd without randomness:
the i-th rejected client in a burst is told to come back later than
the (i-1)-th, and the schedule is bit-identical across runs.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import AdmissionReject, ReproError
from repro.units import usecs

#: Default concurrent checkpoint ingests one daemon will accept.
DEFAULT_MAX_INFLIGHT_INGESTS = 8
#: Concurrent registrations one daemon will accept (attach storms after
#: a restart).
MAX_INFLIGHT_REGISTRATIONS = 16
#: Base retry-after; the streak multiplies it up to 8x.
DEFAULT_RETRY_AFTER_NS = usecs(200)

_KINDS = ("register", "ingest")


class AdmissionController:
    """Bounded inflight admission for one daemon instance."""

    def __init__(self,
                 max_ingests: int = DEFAULT_MAX_INFLIGHT_INGESTS,
                 retry_after_ns: int = DEFAULT_RETRY_AFTER_NS,
                 obs=None, shard: str = "") -> None:
        if max_ingests < 1:
            raise ValueError("admission bounds must be >= 1")
        self._limits = {"register": MAX_INFLIGHT_REGISTRATIONS,
                        "ingest": int(max_ingests)}
        self._inflight: Dict[str, int] = {k: 0 for k in _KINDS}
        self._reject_streak: Dict[str, int] = {k: 0 for k in _KINDS}
        self.retry_after_ns = int(retry_after_ns)
        self.rejects: Dict[str, int] = {k: 0 for k in _KINDS}
        self.obs = obs
        self.shard = shard

    def enter(self, kind: str) -> None:
        """Admit one unit of *kind* work or raise ``AdmissionReject``."""
        if kind not in self._limits:
            raise ReproError(f"unknown admission kind {kind!r}")
        if self._inflight[kind] >= self._limits[kind]:
            self._reject_streak[kind] += 1
            self.rejects[kind] += 1
            if self.obs is not None:
                self.obs.metrics.counter(
                    f"fleet.admission.rejects.{kind}").inc()
            hint = self.retry_after_ns * min(self._reject_streak[kind], 8)
            where = f" on {self.shard}" if self.shard else ""
            raise AdmissionReject(
                f"{kind} admission full{where} "
                f"({self._inflight[kind]}/{self._limits[kind]} inflight), "
                f"retry in {hint} ns", retry_after_ns=hint)
        self._inflight[kind] += 1

    def exit(self, kind: str) -> None:
        """Release one unit of *kind* work (always pair with enter)."""
        if self._inflight[kind] <= 0:
            raise ReproError(f"admission exit({kind!r}) without enter")
        self._inflight[kind] -= 1
        self._reject_streak[kind] = 0

    def inflight(self, kind: str) -> int:
        return self._inflight[kind]

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        return {kind: {"inflight": self._inflight[kind],
                       "limit": self._limits[kind],
                       "rejects": self.rejects[kind]}
                for kind in _KINDS}

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{k}={self._inflight[k]}/{self._limits[k]}" for k in _KINDS)
        return f"<AdmissionController {parts}>"
