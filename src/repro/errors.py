"""Exception hierarchy shared across the library.

Every subsystem raises exceptions rooted at :class:`ReproError` so callers
can distinguish library failures from programming errors.  The tree mirrors
the subsystem layout: simulation, hardware, RDMA, PMem, filesystem, and the
Portus protocol each get their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# --- simulation engine -------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event engine failures."""


class SimulationDeadlock(SimulationError):
    """The event queue drained while processes were still waiting."""


class ProcessInterrupted(SimulationError):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to ``interrupt()``.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


# --- hardware / devices ------------------------------------------------------


class HardwareError(ReproError):
    """Base class for device-level failures."""


class OutOfMemoryError(HardwareError):
    """A device allocation did not fit."""


class InvalidAddressError(HardwareError):
    """An access touched bytes outside any live allocation."""


# --- RDMA ---------------------------------------------------------------------


class RdmaError(ReproError):
    """Base class for RDMA verb failures."""


class MemoryRegionError(RdmaError):
    """Registration failure or access outside a registered region."""


class RkeyViolation(RdmaError):
    """A one-sided operation presented a stale or wrong rkey."""


class QpStateError(RdmaError):
    """Operation posted to a queue pair in the wrong state."""


class WorkRequestError(RdmaError):
    """A posted work request completed with an error status (the CQE
    carried IBV_WC_RETRY_EXC_ERR / IBV_WC_WR_FLUSH_ERR and friends)."""


# --- persistent memory ---------------------------------------------------------


class PmemError(ReproError):
    """Base class for persistent-memory pool failures."""


class PoolCorruption(PmemError):
    """Superblock/checksum validation failed when opening a pool."""


class PoolExhausted(PmemError):
    """The allocator could not satisfy a request."""


class PowerFailure(PmemError):
    """An injected power fault cut a persistence operation short.

    Raised by the crash-point harness from inside a metadata write
    boundary after the device has been power-failed; the in-progress
    operation must not complete.
    """


# --- filesystems ----------------------------------------------------------------


class FsError(ReproError):
    """Base class for simulated filesystem failures."""


class FileNotFound(FsError):
    """Path lookup failed."""


class FileExists(FsError):
    """Exclusive create hit an existing path."""


class NoSpace(FsError):
    """The backing device ran out of blocks."""


class IsADirectory(FsError):
    """A file operation was applied to a directory path."""


class NotADirectory(FsError):
    """A path component was not a directory."""


# --- network --------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for fabric / control-plane failures."""


class ConnectionClosed(NetworkError):
    """The peer closed the control-plane connection."""


class LinkDown(NetworkError):
    """A fabric path was requested while one of its links is down."""


# --- Portus protocol --------------------------------------------------------------


class PortusError(ReproError):
    """Base class for Portus client/daemon failures."""


class ModelNotFound(PortusError):
    """Lookup of a model name in the index found nothing."""


class ModelAlreadyRegistered(PortusError):
    """A registration collided with a live model of the same name."""


class NoValidCheckpoint(PortusError):
    """Restore found no completed (flag == DONE) checkpoint version."""


class CheckpointInProgress(PortusError):
    """A conflicting operation raced with an active checkpoint."""


class ProtocolError(PortusError):
    """Malformed or out-of-order control-plane message."""


class DaemonUnavailable(PortusError):
    """The daemon is (re)starting, crashed, or lost its pool mid-request.

    Transient by design: a client retry after re-attach is expected to
    succeed once the daemon is back."""


class NotAttached(PortusError):
    """The model exists in the index but no live client is attached
    (e.g. right after a daemon restart, before the client re-registers,
    or after its lease was reaped)."""


class RequestTimeout(PortusError):
    """A control-plane request exceeded its deadline (client gave up
    waiting for the reply, or the daemon aborted a wedged handler)."""


class AdmissionReject(PortusError):
    """The daemon (or its tenant's bandwidth budget) refused new work.

    Transient backpressure, not a failure: the session transport stays
    up and the client retries after ``retry_after_ns`` (the daemon's
    deterministic hint) instead of its own jittered backoff.
    """

    def __init__(self, message: str, retry_after_ns: int = 0) -> None:
        super().__init__(message)
        self.retry_after_ns = int(retry_after_ns)


class TenantQuotaExceeded(PortusError):
    """A registration would push the tenant past its byte quota.

    Permanent for the offending request: retrying without freeing
    capacity (or raising the quota) cannot succeed."""


class GroupError(PortusError):
    """Base class for parallel-group checkpoint failures (DESIGN.md §14)."""


class GroupNotFound(GroupError):
    """Lookup of a group name in the group table found nothing."""


class GroupCommitRefused(GroupError):
    """A group commit named a step some member has no DONE slot for.

    The commit record was *not* written: the group stays at its previous
    committed step, which every member still retains (the double-slot
    target rule never overwrites the newest DONE version)."""


class NoValidGroupCheckpoint(GroupError):
    """The group has no fully committed step to restore (committed step
    0, or a member cannot serve the committed step — a torn group fsck
    has not yet repaired)."""


class MigrationIncomplete(PortusError):
    """A migration failed *after* its commit point (the ring flip).

    The destination copy is committed and the ring routes to it — the
    move itself succeeded and must not be unwound.  What remains is
    leaked, not lost: possibly an un-evicted source copy and a session
    still rebinding.  ``leaked`` names what cleanup (re-running the
    eviction, re-attaching the session) still owes."""

    def __init__(self, message: str, leaked: tuple = ()) -> None:
        super().__init__(message)
        self.leaked = tuple(leaked)
