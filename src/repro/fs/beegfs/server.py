"""The BeeGFS storage/metadata daemon on the storage node.

One daemon serves both roles of the paper's single-server deployment:
metadata (lookup / create / stat — each costing meta-worker CPU plus the
backing filesystem's namespace charges) and chunk I/O (each write RPC
costs per-chunk worker CPU via the RPC layer, then DAX writes into the
backing ext4-DAX filesystems).  The worker pool is bounded like the real
daemon's ``tuneNumWorkers``, which is what makes sixteen concurrent GPT
shard writers queue instead of scaling.

Files are striped RAID-0 style across the storage targets (512 KiB
chunks); each target holds the file's chunks back-to-back in its own
chunk file, and a write touching several targets runs its per-target
pieces in parallel.  The paper's deployment has a single PMem target;
the multi-target path is exercised by the striping ablation bench.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Union

from repro.errors import ProtocolError
from repro.fs.beegfs.striping import StripePattern
from repro.fs.vfs import FileHandle, Filesystem
from repro.hw.content import CompositeContent, Content
from repro.hw.node import CpuSet, StorageNode
from repro.rdma.rpc import RpcServer
from repro.rdma.verbs import QueuePair
from repro.sim import AllOf, Environment
from repro.units import usecs

#: The real daemon defaults to 8 worker threads per service.
WORKERS = 8
#: Metadata op handling: dentry work, ACL check, response build.
META_OP_CPU_NS = usecs(12)


class _OpenFile:
    """Server-side open file: one backing handle per storage target."""

    def __init__(self, path: str, handles: List[FileHandle],
                 size: int) -> None:
        self.path = path
        self.handles = handles
        self.size = size


class BeegfsServer:
    """Daemon state: backing target filesystems, fd table, RPC dispatch."""

    def __init__(self, env: Environment, node: StorageNode,
                 backing: Union[Filesystem, Sequence[Filesystem]],
                 stripe: Optional[StripePattern] = None) -> None:
        self.env = env
        self.node = node
        if isinstance(backing, Filesystem):
            self.targets: List[Filesystem] = [backing]
        else:
            self.targets = list(backing)
        if not self.targets:
            raise ValueError("BeeGFS needs at least one storage target")
        self.backing = self.targets[0]
        self.stripe = stripe or StripePattern(targets=len(self.targets))
        if self.stripe.targets != len(self.targets):
            raise ValueError(
                f"stripe width {self.stripe.targets} != "
                f"{len(self.targets)} targets")
        self.workers = CpuSet(env, WORKERS, name=f"{node.name}.beegfs-workers")
        self.rpc = RpcServer(env, self.workers)
        self._fd_table: Dict[int, _OpenFile] = {}
        self._file_sizes: Dict[str, int] = {}  # the metadata service
        self._next_fd = 3
        for op in ("open", "write", "read", "fsync", "close", "mkdir",
                   "unlink", "rename", "stat", "listdir"):
            self.rpc.register(op, getattr(self, f"_op_{op}"))

    def serve(self, qp: QueuePair) -> None:
        """Start serving a client connection (non-blocking)."""
        self.env.process(self.rpc.serve(qp), name="beegfs-serve")

    # -- fd bookkeeping ---------------------------------------------------------

    def _open_file_of(self, fd: int) -> _OpenFile:
        entry = self._fd_table.get(fd)
        if entry is None:
            raise ProtocolError(f"beegfs: unknown fd {fd}")
        return entry

    # -- RPC handlers (generator, return (result, response_size)) -----------------

    def _op_open(self, args: Dict[str, Any]) -> Generator:
        yield from self.workers.execute(META_OP_CPU_NS)
        path = args["path"]
        create = args.get("create", False)
        handles = []
        for target in self.targets:
            handle = yield from target.open(
                path, create=create,
                exclusive=args.get("exclusive", False),
                truncate=args.get("truncate", False))
            handles.append(handle)
        if args.get("truncate", False) or path not in self._file_sizes:
            if create and path not in self._file_sizes:
                self._file_sizes[path] = 0
            if args.get("truncate", False):
                self._file_sizes[path] = 0
        size = self._file_sizes.get(path, 0)
        self._next_fd += 1
        self._fd_table[self._next_fd] = _OpenFile(path, handles, size)
        return ({"fd": self._next_fd, "size": size}, 64)

    def _op_write(self, args: Dict[str, Any]) -> Generator:
        entry = self._open_file_of(args["fd"])
        content: Content = args["content"]
        offset = args["offset"]
        if self.stripe.targets == 1:
            # Fast path: no striping, one contiguous backing write.
            handle = entry.handles[0]
            handle.seek(offset)
            yield from handle.write(content)
            entry.size = max(entry.size, offset + content.size)
            self._file_sizes[entry.path] = max(
                self._file_sizes.get(entry.path, 0), entry.size)
            return ({"written": content.size}, 64)
        # Group the stripe pieces per target, then write targets in
        # parallel (each target's pieces stay in file order).
        per_target: Dict[int, List] = {}
        for target, file_off, length in self.stripe.split(offset,
                                                          content.size):
            per_target.setdefault(target, []).append((file_off, length))

        def write_target(target_index: int, pieces) -> Generator:
            handle = entry.handles[target_index]
            for file_off, length in pieces:
                piece = content.slice(file_off - offset, length)
                handle.seek(self.stripe.target_local_offset(file_off))
                yield from handle.write(piece)

        writers = [self.env.process(write_target(t, pieces),
                                    name=f"beegfs-write-t{t}")
                   for t, pieces in per_target.items()]
        yield AllOf(self.env, writers)
        entry.size = max(entry.size, offset + content.size)
        self._file_sizes[entry.path] = max(
            self._file_sizes.get(entry.path, 0), entry.size)
        return ({"written": content.size}, 64)

    def _op_read(self, args: Dict[str, Any]) -> Generator:
        entry = self._open_file_of(args["fd"])
        offset = args["offset"]
        length = min(args["length"], max(0, entry.size - offset))
        if self.stripe.targets == 1:
            handle = entry.handles[0]
            handle.seek(offset)
            content = yield from handle.read(length)
            return ({"content": content}, max(64, content.size))
        pieces = list(self.stripe.split(offset, length))
        results: List[Optional[Content]] = [None] * len(pieces)
        # One reader per target (a handle's position is stateful, so
        # same-target pieces must stay sequential); targets in parallel.
        per_target: Dict[int, List] = {}
        for index, (target, file_off, piece_len) in enumerate(pieces):
            per_target.setdefault(target, []).append(
                (index, file_off, piece_len))

        def read_target(target_index: int, target_pieces) -> Generator:
            handle = entry.handles[target_index]
            for index, file_off, piece_len in target_pieces:
                handle.seek(self.stripe.target_local_offset(file_off))
                results[index] = yield from handle.read(piece_len)

        readers = [self.env.process(read_target(t, tp),
                                    name=f"beegfs-read-t{t}")
                   for t, tp in per_target.items()]
        if readers:
            yield AllOf(self.env, readers)
        content = CompositeContent([c for c in results if c is not None])
        return ({"content": content}, max(64, content.size))

    def _op_fsync(self, args: Dict[str, Any]) -> Generator:
        entry = self._open_file_of(args["fd"])
        for handle in entry.handles:
            yield from handle.fsync()
        return ({}, 64)

    def _op_close(self, args: Dict[str, Any]) -> Generator:
        fd = args["fd"]
        entry = self._open_file_of(fd)
        for handle in entry.handles:
            yield from handle.close()
        del self._fd_table[fd]
        return ({}, 64)

    def _op_mkdir(self, args: Dict[str, Any]) -> Generator:
        yield from self.workers.execute(META_OP_CPU_NS)
        for target in self.targets:
            yield from target.mkdir(args["path"],
                                    parents=args.get("parents", False))
        return ({}, 64)

    def _op_unlink(self, args: Dict[str, Any]) -> Generator:
        yield from self.workers.execute(META_OP_CPU_NS)
        for target in self.targets:
            yield from target.unlink(args["path"])
        self._file_sizes.pop(args["path"], None)
        return ({}, 64)

    def _op_rename(self, args: Dict[str, Any]) -> Generator:
        yield from self.workers.execute(META_OP_CPU_NS)
        for target in self.targets:
            yield from target.rename(args["src"], args["dst"])
        if args["src"] in self._file_sizes:
            self._file_sizes[args["dst"]] = self._file_sizes.pop(
                args["src"])
        return ({}, 64)

    def _op_stat(self, args: Dict[str, Any]) -> Generator:
        yield from self.workers.execute(META_OP_CPU_NS)
        info = yield from self.backing.stat(args["path"])
        if info["kind"] == "file":
            info = {"kind": "file",
                    "size": self._file_sizes.get(args["path"], 0)}
        return (info, 64)

    def _op_listdir(self, args: Dict[str, Any]) -> Generator:
        yield from self.workers.execute(META_OP_CPU_NS)
        names = yield from self.backing.listdir(args["path"])
        return (names, 64 + 32 * len(names))
