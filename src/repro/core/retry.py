"""Client-side retry policy: exponential backoff + jitter + deadline.

The Portus control plane has exactly one failure-recovery primitive on
the client: tear the session's transport down, re-attach (new QP, new
TCP connection, re-sent REGISTER against the persisted index), and
re-issue the request.  This module decides *when* that is worth doing:

* **transport faults** (connection drops, link flaps, QP errors, WR
  completion errors, reply timeouts, a daemon that answers "I am
  restarting") are retried after an exponentially growing, jittered
  backoff until the attempt budget or the deadline runs out;
* **contention** (``CheckpointInProgress`` — e.g. the daemon is still
  finishing the pull of an attempt whose reply was lost) is retried
  without tearing the session down;
* everything else (``ModelNotFound``, ``NoValidCheckpoint``, spec
  mismatches, protocol errors) is permanent and surfaces immediately.

Jitter draws from a named :class:`~repro.sim.RandomStreams` stream so a
retried run is replayable from the master seed.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import (AdmissionReject, CheckpointInProgress,
                          ConnectionClosed, DaemonUnavailable, NetworkError,
                          NotAttached, QpStateError, RequestTimeout,
                          WorkRequestError)
from repro.units import msecs, usecs

#: Faults that invalidate the session transport: retry after re-attach.
TRANSPORT_FAULTS = (ConnectionClosed, NetworkError, QpStateError,
                    WorkRequestError, RequestTimeout, DaemonUnavailable,
                    NotAttached)
#: Faults retried on the existing transport (daemon-side contention /
#: admission backpressure — the daemon is healthy, just busy).
CONTENTION_FAULTS = (CheckpointInProgress, AdmissionReject)
#: Everything a retry attempt may absorb.
RETRYABLE_FAULTS = TRANSPORT_FAULTS + CONTENTION_FAULTS
#: Each retry waits this many times longer than the one before (capped).
BACKOFF_FACTOR = 2.0


class RetryPolicy:
    """Backoff schedule and give-up rules for one client session."""

    def __init__(self, rng: Optional[random.Random] = None,
                 max_attempts: int = 16,
                 initial_backoff_ns: int = usecs(200),
                 max_backoff_ns: int = msecs(20),
                 jitter: float = 0.25,
                 deadline_ns: Optional[int] = msecs(500),
                 reply_timeout_ns: Optional[int] = msecs(50)) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if not 0 <= jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.rng = rng if rng is not None else random.Random(0)
        self.max_attempts = max_attempts
        self.initial_backoff_ns = int(initial_backoff_ns)
        self.max_backoff_ns = int(max_backoff_ns)
        self.jitter = float(jitter)
        self.deadline_ns = deadline_ns
        self.reply_timeout_ns = reply_timeout_ns

    def is_transport_fault(self, exc: BaseException) -> bool:
        return isinstance(exc, TRANSPORT_FAULTS)

    def backoff_ns(self, attempt: int) -> int:
        """Backoff before retry number *attempt* (1-based), jittered."""
        base = min(
            self.initial_backoff_ns * BACKOFF_FACTOR ** (attempt - 1),
            float(self.max_backoff_ns))
        if self.jitter:
            base *= 1.0 + self.jitter * (2.0 * self.rng.random() - 1.0)
        return max(1, int(base))

    def exhausted(self, attempt: int, elapsed_ns: int) -> bool:
        """True once retry number *attempt* is no longer allowed."""
        if attempt >= self.max_attempts:
            return True
        if self.deadline_ns is not None and elapsed_ns >= self.deadline_ns:
            return True
        return False

    def __repr__(self) -> str:
        return (f"<RetryPolicy attempts<={self.max_attempts} "
                f"deadline={self.deadline_ns} "
                f"reply_timeout={self.reply_timeout_ns}>")
