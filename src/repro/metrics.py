"""Measurement helpers: cost ledgers and busy-interval recorders.

* :class:`CostLedger` — accumulates simulated nanoseconds per category.
  The baseline filesystems and checkpointers write into one; the
  Table I / Fig. 13 breakdown experiments read the categories out.
* :class:`IntervalRecorder` — records busy intervals (GPU compute, link
  busy, ...) and computes utilization over windows; this drives the
  Fig. 16 GPU-utilization trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class CostLedger:
    """Nanoseconds accumulated per named category."""

    def __init__(self) -> None:
        self._ns: Dict[str, int] = {}

    def add(self, category: str, ns: int) -> None:
        if ns < 0:
            raise ValueError(f"negative cost for {category!r}: {ns}")
        self._ns[category] = self._ns.get(category, 0) + ns

    def get(self, category: str) -> int:
        return self._ns.get(category, 0)

    def asdict(self) -> Dict[str, int]:
        return dict(self._ns)

    def __repr__(self) -> str:
        return f"<CostLedger {self._ns!r}>"


class IntervalRecorder:
    """Busy intervals on one resource, for utilization traces."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._intervals: List[Tuple[int, int]] = []
        self._open_since: Optional[int] = None

    def begin(self, now: int) -> None:
        if self._open_since is not None:
            raise ValueError(f"{self.name}: begin() while already busy")
        self._open_since = now

    def end(self, now: int) -> None:
        if self._open_since is None:
            raise ValueError(f"{self.name}: end() while idle")
        if now < self._open_since:
            raise ValueError(f"{self.name}: end before begin")
        self._intervals.append((self._open_since, now))
        self._open_since = None

    @property
    def busy(self) -> bool:
        return self._open_since is not None

    def busy_ns(self, start: int, end: int) -> int:
        """Busy time overlapping ``[start, end)`` (open interval included)."""
        if end < start:
            raise ValueError("window end before start")
        total = 0
        intervals = list(self._intervals)
        if self._open_since is not None:
            intervals.append((self._open_since, end))
        for lo, hi in intervals:
            total += max(0, min(hi, end) - max(lo, start))
        return total

    def utilization(self, start: int, end: int) -> float:
        """Fraction of ``[start, end)`` spent busy."""
        if end == start:
            return 0.0
        return self.busy_ns(start, end) / (end - start)

    def trace(self, start: int, end: int,
              bin_ns: int) -> List[Tuple[int, float]]:
        """Per-bin utilization series over ``[start, end)``."""
        if bin_ns <= 0:
            raise ValueError(f"bin must be positive, got {bin_ns}")
        series = []
        cursor = start
        while cursor < end:
            hi = min(cursor + bin_ns, end)
            series.append((cursor, self.utilization(cursor, hi)))
            cursor = hi
        return series


def aggregate_utilization(recorders: List[IntervalRecorder], start: int,
                          end: int) -> float:
    """Mean utilization across several recorders (e.g. all 16 GPUs)."""
    if not recorders:
        return 0.0
    return sum(r.utilization(start, end) for r in recorders) / len(recorders)
