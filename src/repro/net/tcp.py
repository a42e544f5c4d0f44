"""TCP sockets over IPoIB — the Portus control plane.

Portus moves *data* with RDMA verbs, but its control plane (model
registration packets, "DO_CHECKPOINT", completion notifications) is plain
TCP over IPoIB.  IPoIB traverses the kernel network stack on both ends, so
each message pays a fixed per-message cost (~25 µs one way) far above raw
RDMA latency — which is fine, because the control plane sends a handful of
small messages per checkpoint.

Messages are arbitrary Python objects with an explicit ``wire_size``; the
payload is delivered by reference (the control plane never carries tensor
data).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.errors import ConnectionClosed, NetworkError
from repro.net.fabric import Fabric, Port
from repro.sim import Environment, Store, Transfer
from repro.units import usecs

# One-way kernel-stack cost per message (send side + receive side).
MESSAGE_LATENCY_NS = usecs(25)
# IPoIB goodput is far below native RDMA; it only matters for large
# registration packets (one per training job).
TCP_BW_BPS = 2.5e9


class _Closed:
    """Sentinel queued to wake receivers when the peer closes."""


class TcpConnection:
    """One established, bidirectional, ordered byte-stream connection."""

    def __init__(self, env: Environment, fabric: Fabric,
                 local: Port, remote: Port) -> None:
        self.env = env
        self._fabric = fabric
        self._local = local
        self._remote = remote
        self._inbox: Store = Store(env)
        self._peer: Optional["TcpConnection"] = None
        self.closed = False

    def _bind(self, peer: "TcpConnection") -> None:
        self._peer = peer

    def send(self, message: Any, wire_size: int = 256) -> Generator:
        """Process: deliver *message* to the peer (completes on delivery)."""
        if self.closed:
            raise ConnectionClosed("send() on closed connection")
        if self._peer is None:
            raise NetworkError("connection not bound to a peer")
        channels, wire_latency = self._fabric.path(self._local, self._remote)
        transfer = Transfer(
            self.env, channels, wire_size,
            latency_ns=MESSAGE_LATENCY_NS + wire_latency,
            rate_cap_bps=TCP_BW_BPS,
            label="tcp")
        yield transfer
        if self._peer.closed:
            raise ConnectionClosed("peer closed during send")
        yield self._peer._inbox.put(message)

    def recv(self) -> Generator:
        """Process: wait for the next message from the peer."""
        if self.closed:
            raise ConnectionClosed("recv() on closed connection")
        message = yield self._inbox.get()
        if isinstance(message, _Closed):
            raise ConnectionClosed("peer closed the connection")
        return message

    def close(self) -> None:
        """Close both directions; pending receivers observe the close."""
        if self.closed:
            return
        self.closed = True
        if self._peer is not None and not self._peer.closed:
            self._peer._inbox.put(_Closed())

    def drop(self) -> None:
        """Abruptly sever the connection (fault injection / process death).

        Unlike :meth:`close`, both sides are torn down at once: pending
        receivers on *either* end observe :class:`ConnectionClosed`, as
        after an RST or the peer's host vanishing.
        """
        for side in (self, self._peer):
            if side is not None and not side.closed:
                side.closed = True
                side._inbox.put(_Closed())

    def __repr__(self) -> str:
        return f"<TcpConnection {self._local.name} -> {self._remote.name}>"


class _ListenerClosed:
    """Sentinel queued to wake a pending accept when the listener closes."""


class TcpListener:
    """A bound, listening server socket."""

    def __init__(self, stack: "TcpStack", port_number: int) -> None:
        self._stack = stack
        self.port_number = port_number
        self._backlog: Store = Store(stack.env)
        self.closed = False

    def accept(self) -> Generator:
        """Process: wait for the next inbound connection."""
        if self.closed:
            raise ConnectionClosed(
                f"accept() on closed listener :{self.port_number}")
        connection = yield self._backlog.get()
        if isinstance(connection, _ListenerClosed):
            raise ConnectionClosed(
                f"listener :{self.port_number} closed while accepting")
        return connection

    def close(self) -> None:
        """Unbind the port and wake any pending accept.

        Connections already established stay open; connections sitting in
        the backlog are dropped (the client will observe the close on its
        next send/recv), so a restarted daemon can re-bind the same port
        without inheriting half-open state.
        """
        if self.closed:
            return
        self.closed = True
        self._stack._listeners.pop(self.port_number, None)
        for pending in self._backlog.items:
            if isinstance(pending, TcpConnection):
                pending.drop()
        self._backlog.put(_ListenerClosed())


class TcpStack:
    """Per-node TCP endpoint: listen / connect over the fabric.

    Host addressing uses the endpoint name the node's port was attached
    under (the IPoIB interface name, morally).  The host registry lives on
    the fabric, so independent simulations never see each other.
    """

    def __init__(self, env: Environment, fabric: Fabric, port: Port,
                 hostname: str) -> None:
        self.env = env
        self.fabric = fabric
        self.port = port
        self.hostname = hostname
        self._listeners: Dict[int, TcpListener] = {}
        registry = getattr(fabric, "_tcp_hosts", None)
        if registry is None:
            registry = {}
            fabric._tcp_hosts = registry
        if hostname in registry:
            raise NetworkError(f"duplicate hostname {hostname!r} on fabric")
        registry[hostname] = self

    def listen(self, port_number: int) -> TcpListener:
        """Bind a listener on *port_number*."""
        if port_number in self._listeners:
            raise NetworkError(
                f"{self.hostname}: port {port_number} already bound")
        listener = TcpListener(self, port_number)
        self._listeners[port_number] = listener
        return listener

    def connect(self, hostname: str, port_number: int) -> Generator:
        """Process: three-way handshake with a listening peer."""
        try:
            peer_stack = self.fabric._tcp_hosts[hostname]
        except KeyError:
            raise NetworkError(f"no host named {hostname!r}") from None
        listener = peer_stack._listeners.get(port_number)
        if listener is None:
            raise NetworkError(
                f"connection refused: {hostname}:{port_number}")
        _channels, wire_latency = self.fabric.path(self.port, peer_stack.port)
        # SYN / SYN-ACK / ACK: ~1.5 RTTs of message latency.
        handshake = 3 * (MESSAGE_LATENCY_NS + wire_latency)
        yield self.env.timeout(handshake)
        client_side = TcpConnection(self.env, self.fabric, self.port,
                                    peer_stack.port)
        server_side = TcpConnection(self.env, self.fabric, peer_stack.port,
                                    self.port)
        client_side._bind(server_side)
        server_side._bind(client_side)
        yield listener._backlog.put(server_side)
        return client_side
