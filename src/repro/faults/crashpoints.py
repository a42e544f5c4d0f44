"""Crash-point injection: power loss at exact metadata write boundaries.

Random power-loss chaos (``FaultPlan.random``) cuts the simulation at
*times*; this module cuts it at *places*.  The PMem metadata layer calls
``device.crash_hook(point, tag)`` at every persistence boundary:

* ``record.write``   — a :class:`~repro.pmem.layout.CommittedRecord`
  update is about to begin (nothing written yet);
* ``record.persist`` — the new frame sits in the store buffer, unflushed
  (power loss here loses or tears exactly that slot);
* ``alloc.commit``   — device space reserved, AllocTable not yet
  committed (power loss leaks the extent);
* ``free.release``   — removal committed, device space not yet released
  (power loss also leaks).

A :class:`CrashPointRecorder` installed as that hook numbers the
boundaries in execution order, and — when armed with ``crash_at=i`` —
power-fails the machine at exactly boundary *i* and raises
:class:`~repro.errors.PowerFailure` so the in-progress operation can
never complete.  A counting pass (``crash_at=None``) over a workload
enumerates its boundary schedule; a sweep then replays the workload once
per boundary.  Both passes are ordinary seeded simulations, so the
schedule is bit-identical across runs.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List, Optional, Tuple

from repro.errors import PowerFailure
from repro.hw.device import MemoryDevice


class CrashPointRecorder:
    """Numbers metadata write boundaries; optionally dies at one of them.

    Installing the recorder sets ``device.crash_hook``; it stays armed
    until it fires (it disarms itself first, so the power-fail path can
    touch the device without re-entering) or :meth:`disarm` is called.

    *power_fail* is what "the machine loses power" means for the caller:
    a cluster test passes the injector's POWER_LOSS primitive (daemon
    dies with the machine), a pool-level test passes
    ``lambda: device.crash(rng)``.
    """

    def __init__(self, device: MemoryDevice,
                 crash_at: Optional[int] = None,
                 power_fail: Optional[Callable[[], None]] = None) -> None:
        self.device = device
        self.crash_at = crash_at
        self.power_fail = power_fail
        #: Every boundary seen, as ``"index:point:tag"`` lines — the
        #: deterministic schedule two runs of the same seed can diff.
        self.boundaries: List[str] = []
        #: The boundary this recorder fired at, or None.
        self.fired: Optional[str] = None
        device.crash_hook = self

    def __call__(self, point: str, tag: str) -> None:
        index = len(self.boundaries)
        label = f"{index}:{point}:{tag}"
        self.boundaries.append(label)
        if self.crash_at is None or index != self.crash_at:
            return
        self.fired = label
        self.disarm()
        if self.power_fail is not None:
            self.power_fail()
        raise PowerFailure(f"injected power fault at boundary {label}")

    def disarm(self) -> None:
        """Stop observing (and never fire); idempotent."""
        if self.device.crash_hook is self:
            self.device.crash_hook = None

    @property
    def count(self) -> int:
        return len(self.boundaries)


def schedule_fingerprint(boundaries: List[str]) -> Tuple[int, str]:
    """A boundary schedule's identity: its length and the SHA-256 of its
    ``index:point:tag`` lines.  A sweep pins it, so a change that moves,
    adds or drops a metadata write fails loudly instead of silently
    re-deriving a different schedule."""
    digest = hashlib.sha256("\n".join(boundaries).encode()).hexdigest()
    return len(boundaries), digest
