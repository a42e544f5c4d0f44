"""RDMA verbs: queue pairs, one-sided and two-sided ops.

One-sided READ/WRITE move content between registered regions with *zero*
involvement of the remote CPU: the operation composes a channel path
(source device egress → wire → destination device ingress) and performs
the actual content copy when the simulated transfer completes.

Torn-snapshot detection: the source allocation's version is recorded when
the data starts flowing; if it changed by completion (someone wrote the
region mid-flight) the destination receives
:class:`~repro.hw.content.TornContent`.  This is how the async-checkpoint
invariant ("the pull must finish before the optimizer updates parameters")
becomes *testable* rather than assumed.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import QpStateError, WorkRequestError
from repro.hw.content import TornContent
from repro.rdma.nic import (READ_LATENCY_NS, SEND_LATENCY_NS,
                             WRITE_LATENCY_NS, MemoryRegion, Rnic)
from repro.sim import Environment, Event, Store, Transfer
from repro.units import usecs

#: Time to create and transition a QP pair to RTS (driver + CM exchange).
QP_CONNECT_LATENCY_NS = usecs(120)


class QueuePair:
    """One end of a connected (RC) queue pair."""

    def __init__(self, env: Environment, nic: Rnic) -> None:
        self.env = env
        self.nic = nic
        self.remote: Optional["QueuePair"] = None
        self._recv_queue: Store = Store(env)
        self.connected = False
        #: Non-None once the QP transitioned to the error state.
        self.error: Optional[str] = None
        #: Flush generation: bumped by :meth:`flush`; outstanding WRs
        #: posted under an older generation complete with WR_FLUSH_ERR.
        self.epoch = 0
        self._flush_waiters: list = []
        nic.qps.append(self)

    def _bind(self, remote: "QueuePair") -> None:
        self.remote = remote
        self.connected = True

    def _require_connected(self) -> None:
        if self.error is not None:
            raise QpStateError(f"queue pair is in error state: {self.error}")
        if not self.connected or self.remote is None:
            raise QpStateError("queue pair is not in RTS state")

    def flush(self) -> None:
        """Invalidate every outstanding WR (their completions fail with
        :class:`WorkRequestError` and their data is discarded) — what a
        modify-to-ERR + drain does on a real QP."""
        self.epoch += 1
        waiters, self._flush_waiters = self._flush_waiters, []
        for parked in waiters:
            parked.succeed(None)

    def transition_to_error(self, reason: str = "QP error") -> None:
        """Move the QP to the error state: new posts are refused and
        outstanding WRs are flushed."""
        self.error = reason
        self.flush()

    # -- one-sided verbs -----------------------------------------------------------

    def read(self, local_mr: MemoryRegion, local_offset: int,
             rkey: int, remote_addr: int, length: int,
             label: str = "rdma-read") -> Event:
        """Post a one-sided READ: remote[addr..] -> local_mr[offset..].

        Returns the completion event (fires when the last byte lands and
        the copy has been applied).  Validation errors fail the event.
        """
        self._require_connected()
        completion = self.env.event()
        self.env.process(
            self._one_sided(completion, "read", local_mr, local_offset,
                            rkey, remote_addr, length, label),
            name=label)
        return completion

    def write(self, local_mr: MemoryRegion, local_offset: int,
              rkey: int, remote_addr: int, length: int,
              label: str = "rdma-write") -> Event:
        """Post a one-sided WRITE: local_mr[offset..] -> remote[addr..]."""
        self._require_connected()
        completion = self.env.event()
        self.env.process(
            self._one_sided(completion, "write", local_mr, local_offset,
                            rkey, remote_addr, length, label),
            name=label)
        return completion

    def _one_sided(self, completion: Event, kind: str,
                   local_mr: MemoryRegion, local_offset: int, rkey: int,
                   remote_addr: int, length: int,
                   label: str) -> Generator:
        posted_epoch = self.epoch
        self.nic._wr_posted()
        try:
            hook = self.nic.fault_hook
            if hook is not None:
                injected = hook(kind, label, length)
                if injected == "hang":
                    # The WR never completes (lost completion / wedged
                    # QP) unless a flush retires it.
                    yield from self._hang(label)
                elif injected is not None:
                    yield self.env.timeout(
                        READ_LATENCY_NS if kind == "read"
                        else WRITE_LATENCY_NS)
                    raise injected
            remote_nic = self.remote.nic
            fabric = self.nic.fabric
            if not local_mr.valid:
                raise QpStateError(f"local MR {local_mr!r} is invalid")
            if local_offset < 0 or local_offset + length > local_mr.length:
                raise QpStateError(
                    f"local access [{local_offset}, {local_offset + length})"
                    f" outside MR of length {local_mr.length}")
            remote_mr = remote_nic.lookup_mr(rkey, remote_addr, length)

            if kind == "read":
                src_mr, src_off = remote_mr, remote_addr - remote_mr.addr
                dst_mr, dst_off = local_mr, local_offset
                src_channels = remote_nic.egress_channels(remote_mr.device)
                dst_channels = self.nic.ingress_channels(local_mr.device)
                wire, wire_latency = fabric.path(remote_nic.port,
                                                 self.nic.port)
                base_latency = READ_LATENCY_NS + 2 * wire_latency
            else:
                src_mr, src_off = local_mr, local_offset
                dst_mr, dst_off = remote_mr, remote_addr - remote_mr.addr
                src_channels = self.nic.egress_channels(local_mr.device)
                dst_channels = remote_nic.ingress_channels(remote_mr.device)
                wire, wire_latency = fabric.path(self.nic.port,
                                                 remote_nic.port)
                base_latency = WRITE_LATENCY_NS + wire_latency

            version_before = src_mr.allocation.version
            content = src_mr.allocation.read(src_off, length)
            transfer = Transfer(
                self.env, src_channels + wire + dst_channels, length,
                latency_ns=base_latency, label=label)
            yield transfer
            if self.epoch != posted_epoch:
                # The QP was flushed mid-flight (abort / error
                # transition): the landed bytes are discarded and the
                # completion reports a flush error.
                raise WorkRequestError(f"{label}: WR flushed")
            if src_mr.allocation.version != version_before:
                content = TornContent(
                    length, note=f"{label}: source mutated mid-flight")
            dst_mr.allocation.write(dst_off, content)
        except BaseException as exc:  # noqa: BLE001 - surfaced via the event
            self.nic._wr_retired(kind, label, length, ok=False)
            completion.fail(exc)
            return
        self.nic._wr_retired(kind, label, length, ok=True)
        completion.succeed(length)

    def _hang(self, label: str) -> Generator:
        """Park until a flush retires the lost WR, then fail it."""
        parked = self.env.event()
        self._flush_waiters.append(parked)
        yield parked
        raise WorkRequestError(f"{label}: WR flushed after hang")

    # -- two-sided verbs ----------------------------------------------------------

    def send(self, payload: Any, size: int,
             label: str = "rdma-send") -> Event:
        """Post a two-sided SEND; completes when the payload is delivered.

        The receiver must consume it with :meth:`recv`.  Payloads are
        Python objects by reference; *size* is the wire size.
        """
        self._require_connected()
        completion = self.env.event()
        self.env.process(self._send(completion, payload, size, label),
                         name=label)
        return completion

    def _send(self, completion: Event, payload: Any, size: int,
              label: str) -> Generator:
        try:
            remote_nic = self.remote.nic
            wire, wire_latency = self.nic.fabric.path(self.nic.port,
                                                      remote_nic.port)
            # Two-sided transfers stage through host DRAM on both ends:
            # the sender's NIC DMA-reads the send buffer, the receiver's
            # NIC DMA-writes the posted receive buffer.
            channels = [self.nic.dma_read] + wire + [remote_nic.dma_write]
            transfer = Transfer(
                self.env, channels, size,
                latency_ns=SEND_LATENCY_NS + wire_latency,
                label=label)
            yield transfer
            yield self.remote._recv_queue.put((payload, size))
        except BaseException as exc:  # noqa: BLE001
            completion.fail(exc)
            return
        completion.succeed(size)

    def recv(self) -> Generator:
        """Process: wait for the next SEND from the peer; returns payload."""
        self._require_connected()
        payload, _size = yield self._recv_queue.get()
        return payload

    def __repr__(self) -> str:
        state = "RTS" if self.connected else "INIT"
        return f"<QueuePair {self.nic.name} {state}>"


def connect(env: Environment, initiator: Rnic,
            target: Rnic) -> Generator:
    """Process: establish an RC connection; returns (initiator_qp, target_qp).

    In the real system the two sides exchange QP numbers out of band (the
    Portus control plane does this over TCP); the simulation returns both
    endpoints to the caller, which hands the target QP to the server side.
    """
    yield env.timeout(QP_CONNECT_LATENCY_NS)
    qp_a = QueuePair(env, initiator)
    qp_b = QueuePair(env, target)
    qp_a._bind(qp_b)
    qp_b._bind(qp_a)
    return qp_a, qp_b
