"""Shared unit helpers for the whole library.

All simulated time is carried as integer **nanoseconds** so that event
ordering is exact and runs are bit-reproducible.  All sizes are integer
**bytes**.  Bandwidth is expressed in **bytes per second** (float), which is
the only place floating point enters the timing model; conversions round up
to whole nanoseconds so a transfer never finishes "early".
"""

from __future__ import annotations

import math

# --- size units -------------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB
TB = 1000 * GB


def kib(n: float) -> int:
    """Return *n* KiB as a whole number of bytes."""
    return int(n * KIB)


def mib(n: float) -> int:
    """Return *n* MiB as a whole number of bytes."""
    return int(n * MIB)


def gib(n: float) -> int:
    """Return *n* GiB as a whole number of bytes."""
    return int(n * GIB)


# --- time units (integer nanoseconds) ---------------------------------------

NS = 1
US = 1000
MS = 1000 * US
SECOND = 1000 * MS
MINUTE = 60 * SECOND
HOUR = 60 * MINUTE


def usecs(n: float) -> int:
    """Return *n* microseconds as integer nanoseconds."""
    return int(n * US)


def msecs(n: float) -> int:
    """Return *n* milliseconds as integer nanoseconds."""
    return int(n * MS)


def secs(n: float) -> int:
    """Return *n* seconds as integer nanoseconds."""
    return int(n * SECOND)


def to_seconds(ns: int) -> float:
    """Convert integer nanoseconds to float seconds (for reporting only)."""
    return ns / SECOND


# --- bandwidth --------------------------------------------------------------


def gbytes(n: float) -> float:
    """Gigabytes (1e9) per second -> bytes per second."""
    return n * 1e9


def transfer_time_ns(size_bytes: int, bandwidth_bps: float) -> int:
    """Time to move *size_bytes* at *bandwidth_bps*, rounded up to whole ns.

    A zero-byte transfer takes zero time; bandwidth must be positive.
    """
    if size_bytes < 0:
        raise ValueError(f"negative transfer size: {size_bytes}")
    if bandwidth_bps <= 0:
        raise ValueError(f"non-positive bandwidth: {bandwidth_bps}")
    if size_bytes == 0:
        return 0
    return max(1, math.ceil(size_bytes * SECOND / bandwidth_bps))


def fmt_bytes(n: int) -> str:
    """Human-readable size, binary units (matches the paper's MiB/GiB)."""
    if n < 0:
        return "-" + fmt_bytes(-n)
    for unit, width in ((TIB, "TiB"), (GIB, "GiB"), (MIB, "MiB"), (KIB, "KiB")):
        if n >= unit:
            return f"{n / unit:.2f}{width}"
    return f"{n}B"


def fmt_time(ns: int) -> str:
    """Human-readable duration from integer nanoseconds."""
    if ns < 0:
        return "-" + fmt_time(-ns)
    if ns >= SECOND:
        return f"{ns / SECOND:.3f}s"
    if ns >= MS:
        return f"{ns / MS:.3f}ms"
    if ns >= US:
        return f"{ns / US:.3f}us"
    return f"{ns}ns"


def fmt_bandwidth(bps: float) -> str:
    """Human-readable bandwidth from bytes/second."""
    if bps >= 1e9:
        return f"{bps / 1e9:.2f}GB/s"
    if bps >= 1e6:
        return f"{bps / 1e6:.2f}MB/s"
    if bps >= 1e3:
        return f"{bps / 1e3:.2f}KB/s"
    return f"{bps:.2f}B/s"
