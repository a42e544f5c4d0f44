"""RPC-over-RDMA: the two-sided protocol used by the BeeGFS baseline.

The paper attributes part of BeeGFS's checkpoint cost to its two-sided
RPCoRDMA transport: every chunk of data is a SEND that the *server CPU*
must receive, stage, and acknowledge, unlike Portus's one-sided reads.
This module models exactly that: bulk payloads are cut into chunks, each
chunk pays the two-sided wire cost plus a per-chunk server CPU handling
cost, and the caller waits for the final acknowledgement.

The resulting effective bandwidth — chunk_size / (wire_time + cpu_time +
ack) — is what Table I measures as the 30 % "Transmission (RDMA)" share,
about 3 GB/s with default calibration.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator

from repro.errors import ProtocolError, ReproError
from repro.hw.node import CpuSet
from repro.rdma.verbs import QueuePair
from repro.sim import Environment, Event, Resource
from repro.units import kib, usecs

#: BeeGFS-style streaming chunk (its wire protocol moves 512 KiB buffers).
DEFAULT_CHUNK_BYTES = kib(512)
#: Per-chunk server-side cost: recv completion, staging copy into the
#: daemon's buffer pool, work-queue hop, ack post.  Calibrated (with the
#: client staging copy and the wire) so the two-sided streaming rate lands
#: where Table I's 30 % "Transmission (RDMA)" share puts it; see
#: repro.harness.calibration for the derivation.
DEFAULT_CHUNK_CPU_NS = usecs(89)
#: Fixed per-call server cost: request parse, dispatch, response build.
CALL_CPU_NS = usecs(8)

Handler = Callable[[Any], Generator]


class RpcServer:
    """Serves RPCs arriving on registered queue pairs."""

    def __init__(self, env: Environment, cpus: CpuSet,
                 chunk_cpu_ns: int = DEFAULT_CHUNK_CPU_NS) -> None:
        self.env = env
        self.cpus = cpus
        self.chunk_cpu_ns = chunk_cpu_ns
        self._handlers: Dict[str, Handler] = {}
        self.calls_served = 0

    def register(self, op: str, handler: Handler) -> None:
        """Install *handler* for operation *op*.

        A handler is a generator function taking the request payload and
        returning ``(result, response_size_bytes)``.
        """
        self._handlers[op] = handler

    def serve(self, qp: QueuePair) -> Generator:
        """Process: serve requests on *qp* forever (run via env.process)."""
        while True:
            request = yield from qp.recv()
            # Each request is handled by its own worker so a slow handler
            # does not head-of-line block the connection.
            self.env.process(self._handle(qp, request),
                             name=f"rpc-{request.get('op')}")

    def _handle(self, qp: QueuePair, request: Dict[str, Any]) -> Generator:
        op = request.get("op")
        handler = self._handlers.get(op)
        if handler is None:
            raise ProtocolError(f"no RPC handler for op {op!r}")
        yield from self.cpus.execute(CALL_CPU_NS)
        payload_size = int(request.get("payload_size", 0))
        if payload_size:
            # Two-sided bulk: the server CPU touches every chunk.
            chunks = -(-payload_size // DEFAULT_CHUNK_BYTES)
            yield from self.cpus.execute(chunks * self.chunk_cpu_ns)
        try:
            result, response_size = yield from handler(request.get("args"))
        except ReproError as exc:
            # Application errors travel back to the caller; only transport
            # or programming errors may crash the daemon.
            self.calls_served += 1
            yield qp.send({"op": op, "error": exc}, size=128,
                          label=f"rpc-err-{op}")
            return
        self.calls_served += 1
        yield qp.send({"op": op, "result": result},
                      size=max(64, response_size), label=f"rpc-resp-{op}")


class RpcClient:
    """Issues RPCs over one queue pair, one outstanding call at a time.

    BeeGFS clients multiplex many connections for parallelism; callers that
    need concurrency open several clients (the striping layer does).
    """

    def __init__(self, env: Environment, qp: QueuePair) -> None:
        self.env = env
        self.qp = qp
        self._lock = Resource(env, capacity=1)

    def call(self, op: str, args: Any = None, payload_size: int = 0,
             request_size: int = 256) -> Generator:
        """Process: send a request (with optional bulk payload) and await
        the response.  Returns the handler's result.

        Calls from concurrent processes serialize on this connection —
        the kernel-client behaviour that makes all ranks of one node share
        a single bulk stream to the storage server.
        """
        lock = self._lock.request()
        yield lock
        try:
            wire_size = request_size + payload_size
            yield self.qp.send({"op": op, "args": args,
                                "payload_size": payload_size},
                               size=wire_size, label=f"rpc-{op}")
            response = yield from self.qp.recv()
        finally:
            self._lock.release(lock)
        if response.get("op") != op:
            raise ProtocolError(
                f"out-of-order RPC response: sent {op!r}, "
                f"got {response.get('op')!r}")
        error = response.get("error")
        if error is not None:
            raise error
        return response.get("result")
