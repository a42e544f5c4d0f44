"""The BeeGFS kernel-module client on a compute node.

Implements the same operation surface as :class:`repro.fs.vfs.Filesystem`
(open / handle.write / fsync / close / mkdir / unlink / rename / stat /
listdir / read_file / write_file) but every operation is a syscall into
the kernel module followed by RPC round trips to the storage daemon.
Bulk writes additionally pay a client-side staging copy (user pages into
the module's message buffers), and all RPCs on one mount share a single
connection — concurrent writers on the same node serialize into one bulk
stream, which is the kernel client's real behaviour with one connection
per storage target and the reason a 16-rank Megatron checkpoint to a
shared filesystem crawls (Fig. 14).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import FsError
from repro.fs.beegfs.server import BeegfsServer
from repro.fs.vfs import SYSCALL_NS
from repro.hw.content import Content
from repro.hw.node import Node
from repro.obs import Observability
from repro.rdma.rpc import RpcClient
from repro.rdma.verbs import connect
from repro.sim import Environment, SharedChannel, Transfer
from repro.units import gbytes

#: User-page -> module-buffer staging copy rate.
STAGING_COPY_BPS = gbytes(8.0)


class BeegfsFileHandle:
    """Client-side open file: position tracking plus remote fd."""

    def __init__(self, client: "BeegfsClient", path: str, fd: int,
                 size: int) -> None:
        self.client = client
        self.path = path
        self.fd = fd
        self.position = 0
        self._size = size
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise FsError(f"I/O on closed file {self.path!r}")

    def write(self, content: Content) -> Generator:
        self._check_open()
        yield from self.client._syscall()
        yield from self.client._stage(content.size)
        yield from self.client.rpc.call(
            "write", {"fd": self.fd, "offset": self.position,
                      "content": content},
            payload_size=content.size)
        self.position += content.size
        self._size = max(self._size, self.position)
        return content.size

    def read(self, length: int, direct: bool = False) -> Generator:
        # The kernel client always stages through its message buffers, so
        # `direct` is accepted for interface parity but has no effect.
        self._check_open()
        yield from self.client._syscall()
        result = yield from self.client.rpc.call(
            "read", {"fd": self.fd, "offset": self.position,
                     "length": length})
        content = result["content"]
        yield from self.client._stage(content.size)
        self.position += content.size
        return content

    def seek(self, position: int) -> None:
        self._check_open()
        if position < 0:
            raise FsError(f"negative seek position {position}")
        self.position = position

    def fsync(self) -> Generator:
        self._check_open()
        yield from self.client._syscall()
        yield from self.client.rpc.call("fsync", {"fd": self.fd})

    def close(self) -> Generator:
        self._check_open()
        yield from self.client._syscall()
        yield from self.client.rpc.call("close", {"fd": self.fd})
        self.closed = True

    @property
    def size(self) -> int:
        return self._size


class BeegfsClient:
    """One mounted BeeGFS filesystem on one compute node."""

    def __init__(self, env: Environment, node: Node, rpc: RpcClient,
                 server: Optional[BeegfsServer] = None,
                 name: str = "beegfs",
                 obs: Optional[Observability] = None) -> None:
        self.env = env
        self.node = node
        self.rpc = rpc
        self.server = server
        self.name = name
        self.obs = obs if obs is not None else Observability()
        self._staging = SharedChannel(env, STAGING_COPY_BPS,
                                      f"{name}.staging")

    @classmethod
    def mount(cls, env: Environment, node: Node, server: BeegfsServer,
              name: str = "beegfs",
              obs: Optional[Observability] = None) -> Generator:
        """Process: connect the node's NIC to the daemon and mount."""
        if node.nic is None:
            raise FsError(f"{node.name} has no RNIC to mount BeeGFS over")
        client_qp, server_qp = yield from connect(env, node.nic,
                                                  server.node.nic)
        server.serve(server_qp)
        return cls(env, node, RpcClient(env, client_qp), server=server,
                   name=name, obs=obs)

    # -- cost helpers: one fs.<category> span each, as in the VFS -------------

    def _span(self, category: str):
        return self.obs.tracer.span(self.env, f"fs.{category}", cat="fs",
                                    track=self.name)

    def _syscall(self) -> Generator:
        with self._span("syscall"):
            yield self.env.timeout(SYSCALL_NS)

    def _stage(self, size: int) -> Generator:
        if size == 0:
            return
        with self._span("staging"):
            yield Transfer(self.env, [self._staging], size,
                           label=f"{self.name}:staging")

    # -- operation surface (mirrors Filesystem) -----------------------------------

    def open(self, path: str, create: bool = False, exclusive: bool = False,
             truncate: bool = False) -> Generator:
        yield from self._syscall()
        result = yield from self.rpc.call(
            "open", {"path": path, "create": create,
                     "exclusive": exclusive, "truncate": truncate})
        return BeegfsFileHandle(self, path, result["fd"], result["size"])

    def mkdir(self, path: str, parents: bool = False) -> Generator:
        yield from self._syscall()
        yield from self.rpc.call("mkdir", {"path": path, "parents": parents})

    def unlink(self, path: str) -> Generator:
        yield from self._syscall()
        yield from self.rpc.call("unlink", {"path": path})

    def rename(self, src: str, dst: str) -> Generator:
        yield from self._syscall()
        yield from self.rpc.call("rename", {"src": src, "dst": dst})

    def stat(self, path: str) -> Generator:
        yield from self._syscall()
        info = yield from self.rpc.call("stat", {"path": path})
        return info

    def listdir(self, path: str) -> Generator:
        yield from self._syscall()
        names = yield from self.rpc.call("listdir", {"path": path})
        return names

    def exists(self, path: str) -> bool:
        """Namespace probe straight at the server state (test convenience)."""
        if self.server is None:
            raise FsError("client was built without a server reference")
        return self.server.backing.exists(path)

    def read_file(self, path: str) -> Generator:
        handle = yield from self.open(path)
        content = yield from handle.read(handle.size)
        yield from handle.close()
        return content

    def write_file(self, path: str, content: Content,
                   fsync: bool = True) -> Generator:
        handle = yield from self.open(path, create=True, truncate=True)
        yield from handle.write(content)
        if fsync:
            yield from handle.fsync()
        yield from handle.close()
