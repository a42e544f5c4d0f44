"""Counters, gauges, and HDR-style percentile histograms.

A :class:`MetricsRegistry` is a flat name -> instrument map the daemon,
client, engine, limiter, repacker, and fault injector all write into.
Everything is plain Python arithmetic on the caller's thread — recording
never touches the simulation clock, so instrumented runs keep simulated
timings bit-identical to uninstrumented ones.

A counter may carry labels (``shard=``, ``src=``/``dst=``, ``kind=``):
``counter(name, **labels)`` is one *series* of that name, and reads sum
every series whose labels include the ones asked for — so one count per
event serves the fleet total and the per-shard view alike.

The :class:`Histogram` follows the HdrHistogram bucketing scheme:
power-of-two exponent buckets subdivided into ``2**sub_bits`` linear
sub-buckets, giving a bounded relative error (~1/2**sub_bits, ~3% at the
default 5 bits) at O(1) record cost over the full ns..hours range of
simulated latencies.  Percentiles report each bucket's upper bound, so
they never under-state a latency.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-able dicts
with sorted keys — deterministic, diffable, and merged as-is into the
harness experiment reports.  A labelled name keeps one entry: its total
``value`` plus a sorted ``series`` map (``"shard=server1": 3``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple


class Counter:
    """Monotonic count (events, bytes, retries)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counter increment {amount} < 0")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class LabelledCounter:
    """One counter name split into series by label values; every series
    carries the same label keys (others raise :class:`TypeError`)."""

    __slots__ = ("name", "keys", "series")

    def __init__(self, name: str, keys: Tuple[str, ...]) -> None:
        self.name = name
        #: The label keys, sorted.
        self.keys = keys
        #: Sorted ``(key, value)`` label pairs -> that series' counter.
        self.series: Dict[Tuple, Counter] = {}

    def child(self, labels: Dict[str, Any]) -> Counter:
        """The series for *labels* (created on first use)."""
        key = tuple(sorted(labels.items()))
        if tuple(name for name, _value in key) != self.keys:
            raise TypeError(
                f"metric {self.name!r} is labelled by {list(self.keys)}, "
                f"not {sorted(labels)}")
        counter = self.series.get(key)
        if counter is None:
            counter = self.series[key] = Counter(self.name)
        return counter

    def total(self, labels: Dict[str, Any]) -> int:
        """Sum of every series whose labels include *labels*."""
        wanted = labels.items()
        return sum(counter.value for key, counter in self.series.items()
                   if wanted <= dict(key).items())

    def snapshot(self) -> Dict[str, Any]:
        series = {",".join(f"{name}={value}" for name, value in key):
                  counter.value for key, counter in self.series.items()}
        return {"type": "counter", "value": self.total({}),
                "series": dict(sorted(series.items()))}


class Gauge:
    """Last-written value plus the high-water mark (queue depths)."""

    __slots__ = ("name", "value", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.max = 0

    def set(self, value: int) -> None:
        self.value = value
        if value > self.max:
            self.max = value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value, "max": self.max}

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value} max={self.max}>"


class Histogram:
    """HDR-style log-bucketed histogram of non-negative integers."""

    __slots__ = ("name", "sub_bits", "_sub", "_buckets", "count", "total",
                 "min", "max")

    #: Percentiles every snapshot reports.
    PERCENTILES = (50.0, 90.0, 99.0, 99.9)

    def __init__(self, name: str, sub_bits: int = 5) -> None:
        if sub_bits < 1:
            raise ValueError(f"sub_bits must be >= 1, got {sub_bits}")
        self.name = name
        self.sub_bits = sub_bits
        self._sub = 1 << sub_bits
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def _index(self, value: int) -> int:
        if value < self._sub:
            return value
        exponent = value.bit_length() - self.sub_bits - 1
        return (exponent + 1) * self._sub + ((value >> exponent) - self._sub)

    def _upper_bound(self, index: int) -> int:
        """Largest value mapping to *index* (what percentiles report)."""
        if index < self._sub:
            return index
        exponent = index // self._sub - 1
        mantissa = index % self._sub + self._sub
        return ((mantissa + 1) << exponent) - 1

    def record(self, value: int) -> None:
        value = int(value)
        if value < 0:
            raise ValueError(f"{self.name}: negative sample {value}")
        index = self._index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> int:
        """The value at or below which *pct* percent of samples fall."""
        if not 0 < pct <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {pct}")
        if not self.count:
            return 0
        rank = max(1, int(self.count * pct / 100.0 + 0.5))
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return min(self._upper_bound(index), self.max)
        return self.max  # pragma: no cover - rank <= count always lands

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"type": "histogram", "count": self.count,
                               "sum": self.total,
                               "min": self.min if self.min is not None else 0,
                               "max": self.max if self.max is not None else 0,
                               "mean": self.mean}
        for pct in self.PERCENTILES:
            key = f"p{pct:g}".replace(".", "_")
            out[key] = self.percentile(pct)
        return out

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.0f}>"


class MetricsRegistry:
    """Flat name -> instrument map with get-or-create accessors."""

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, cls, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, **kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}")
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for *name* — with *labels*, its series for them.
        A name is labelled or unlabelled for good: asking for the other
        kind raises :class:`TypeError`, so a stale read fails loudly."""
        if not labels:
            return self._get(name, Counter)
        family = self._get(name, LabelledCounter,
                           keys=tuple(sorted(labels)))
        return family.child(labels)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, sub_bits: int = 5) -> Histogram:
        return self._get(name, Histogram, sub_bits=sub_bits)

    def get(self, name: str):
        """The instrument registered under *name*, or None."""
        return self._instruments.get(name)

    def value(self, name: str, default: int = 0, **labels: Any) -> int:
        """Current value under *name* (*default* when absent; a labelled
        name sums every series whose labels include *labels*) — so a
        metric nobody incremented yet reads as zero, not a KeyError."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return default
        if isinstance(instrument, LabelledCounter):
            return instrument.total(labels)
        return default if labels else getattr(instrument, "value", default)

    def sum_counters(self, prefix: str, **labels: Any) -> int:
        """:meth:`value` summed over every counter whose name starts
        with *prefix* (e.g. all ``daemon.errors.*`` ops of one shard
        folded into one fault count)."""
        return sum(self.value(name, **labels)
                   for name, instrument in self._instruments.items()
                   if name.startswith(prefix)
                   and isinstance(instrument, (Counter, LabelledCounter)))

    def names(self):
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {name: self._instruments[name].snapshot()
                for name in sorted(self._instruments)}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write(self, path: str, indent: Optional[int] = 2) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json(indent=indent))

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self._instruments)} instruments>"
