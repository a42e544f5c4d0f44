"""VFS base: namespace, path resolution, syscall cost accounting.

Every operation is a generator (simulation process) because every
operation costs time: a user→kernel crossing per syscall, a per-component
charge for path resolution and permission checks (the paper blames
exactly these for ResNet50's poor small-file checkpoint performance), and
whatever the concrete filesystem charges for data movement via the
``_write_data`` / ``_read_data`` / ``_fsync_file`` hooks.

Each charge is a span on the filesystem's tracer (``fs.<category>``,
tracked by filesystem name), so the breakdown experiments (Table I,
Fig. 13) read exact shares from one traced run.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.errors import (FileExists, FileNotFound, FsError, IsADirectory,
                          NotADirectory)
from repro.hw.content import Content, SegmentBuffer, ZeroContent
from repro.obs import Observability
from repro.sim import Environment
from repro.units import usecs

#: One user->kernel->user crossing: syscall entry/exit plus VFS dispatch.
DEFAULT_SYSCALL_NS = usecs(1.2)
#: Per path component: dcache lookup + permission check.
DEFAULT_PATH_COMPONENT_NS = usecs(0.4)


class FileData:
    """Growable file contents built on a SegmentBuffer."""

    def __init__(self) -> None:
        self.size = 0
        self._buffer = SegmentBuffer(0)

    def _grow_to(self, size: int) -> None:
        if size <= self._buffer.size:
            self.size = max(self.size, size)
            return
        capacity = max(4096, self._buffer.size)
        while capacity < size:
            capacity *= 2
        grown = SegmentBuffer(capacity)
        if self.size > 0:
            grown.write(0, self._buffer.read(0, self.size))
        self._buffer = grown
        self.size = size

    def write(self, offset: int, content: Content) -> None:
        self._grow_to(offset + content.size)
        self._buffer.write(offset, content)

    def read(self, offset: int, length: int) -> Content:
        if offset >= self.size:
            return ZeroContent(0)
        length = min(length, self.size - offset)
        return self._buffer.read(offset, length)

    def truncate(self) -> None:
        self.size = 0
        self._buffer = SegmentBuffer(0)


class Inode:
    """A file or directory."""

    def __init__(self, kind: str, name: str) -> None:
        if kind not in ("file", "dir"):
            raise ValueError(f"bad inode kind {kind!r}")
        self.kind = kind
        self.name = name
        self.children: Dict[str, "Inode"] = {}
        self.data = FileData() if kind == "file" else None

    @property
    def is_dir(self) -> bool:
        return self.kind == "dir"


def split_path(path: str) -> List[str]:
    """Normalize an absolute path into components."""
    if not path.startswith("/"):
        raise FsError(f"paths must be absolute, got {path!r}")
    return [part for part in path.split("/") if part]


class FileHandle:
    """An open file: sequential/positional I/O as simulation processes."""

    def __init__(self, fs: "Filesystem", path: str, inode: Inode) -> None:
        self.fs = fs
        self.path = path
        self.inode = inode
        self.position = 0
        self.closed = False
        #: Bytes written since the last fsync (dirty data).
        self.dirty_bytes = 0

    def _check_open(self) -> None:
        if self.closed:
            raise FsError(f"I/O on closed file {self.path!r}")

    def write(self, content: Content) -> Generator:
        """Process: append/overwrite at the current position."""
        self._check_open()
        yield from self.fs._charge_syscall("write")
        yield from self.fs._write_data(self, self.position, content)
        self.inode.data.write(self.position, content)
        self.position += content.size
        self.dirty_bytes += content.size
        return content.size

    def read(self, length: int, direct: bool = False) -> Generator:
        """Process: read up to *length* bytes at the current position.

        ``direct=True`` models O_DIRECT / GPUDirect-Storage reads that
        bypass the page cache (concrete filesystems decide what that
        skips).
        """
        self._check_open()
        yield from self.fs._charge_syscall("read")
        content = self.inode.data.read(self.position, length)
        yield from self.fs._read_data(self, self.position, content.size,
                                      direct=direct)
        self.position += content.size
        return content

    def seek(self, position: int) -> None:
        """Reposition (free: lseek never leaves the process)."""
        self._check_open()
        if position < 0:
            raise FsError(f"negative seek position {position}")
        self.position = position

    def fsync(self) -> Generator:
        """Process: force dirty data and metadata to stable storage."""
        self._check_open()
        yield from self.fs._charge_syscall("fsync")
        yield from self.fs._fsync_file(self)
        self.dirty_bytes = 0

    def close(self) -> Generator:
        """Process: release the handle."""
        self._check_open()
        yield from self.fs._charge_syscall("close")
        yield from self.fs._close_file(self)
        self.closed = True

    @property
    def size(self) -> int:
        return self.inode.data.size


class Filesystem:
    """In-memory namespace plus cost accounting; subclasses add devices."""

    def __init__(self, env: Environment, name: str,
                 syscall_ns: int = DEFAULT_SYSCALL_NS,
                 path_component_ns: int = DEFAULT_PATH_COMPONENT_NS,
                 obs: Optional[Observability] = None) -> None:
        self.env = env
        self.name = name
        self.syscall_ns = syscall_ns
        self.path_component_ns = path_component_ns
        self.obs = obs if obs is not None else Observability()
        self.root = Inode("dir", "/")

    # -- cost hooks (overridden by concrete filesystems) ---------------------------

    def _span(self, category: str):
        """A span over one charged interval: ``fs.<category>``."""
        return self.obs.tracer.span(self.env, f"fs.{category}", cat="fs",
                                    track=self.name)

    def _charge_syscall(self, _op: str) -> Generator:
        with self._span("syscall"):
            yield self.env.timeout(self.syscall_ns)

    def _charge_path(self, components: int) -> Generator:
        with self._span("metadata"):
            yield self.env.timeout((components + 1) * self.path_component_ns)

    def _write_data(self, handle: FileHandle, offset: int,
                    content: Content) -> Generator:
        """Timing for moving *content* into storage; default: free."""
        return
        yield  # pragma: no cover - makes this a generator

    def _read_data(self, handle: FileHandle, offset: int,
                   length: int, direct: bool = False) -> Generator:
        return
        yield  # pragma: no cover

    def _fsync_file(self, handle: FileHandle) -> Generator:
        return
        yield  # pragma: no cover

    def _close_file(self, handle: FileHandle) -> Generator:
        return
        yield  # pragma: no cover

    # -- namespace ---------------------------------------------------------------

    def _walk(self, components: List[str]) -> Inode:
        node = self.root
        for part in components:
            if not node.is_dir:
                raise NotADirectory(f"{part!r} under a non-directory")
            child = node.children.get(part)
            if child is None:
                raise FileNotFound("/" + "/".join(components))
            node = child
        return node

    def _parent_of(self, path: str) -> (Inode, str):
        components = split_path(path)
        if not components:
            raise FsError("operation on filesystem root")
        parent = self._walk(components[:-1])
        if not parent.is_dir:
            raise NotADirectory(path)
        return parent, components[-1]

    # -- operations (all processes) ---------------------------------------------------

    def open(self, path: str, create: bool = False, exclusive: bool = False,
             truncate: bool = False) -> Generator:
        """Process: open *path*; optionally create/truncate."""
        components = split_path(path)
        yield from self._charge_syscall("open")
        yield from self._charge_path(len(components))
        parent, leaf = self._parent_of(path)
        inode = parent.children.get(leaf)
        if inode is None:
            if not create:
                raise FileNotFound(path)
            inode = Inode("file", leaf)
            parent.children[leaf] = inode
            yield from self._charge_path(1)  # directory entry insertion
        elif exclusive and create:
            raise FileExists(path)
        if inode.is_dir:
            raise IsADirectory(path)
        if truncate:
            inode.data.truncate()
        return FileHandle(self, path, inode)

    def mkdir(self, path: str, parents: bool = False) -> Generator:
        """Process: create a directory (optionally with parents)."""
        components = split_path(path)
        yield from self._charge_syscall("mkdir")
        yield from self._charge_path(len(components))
        node = self.root
        for depth, part in enumerate(components):
            child = node.children.get(part)
            if child is None:
                is_leaf = depth == len(components) - 1
                if not (parents or is_leaf):
                    raise FileNotFound("/" + "/".join(components[:depth + 1]))
                child = Inode("dir", part)
                node.children[part] = child
            elif not child.is_dir:
                raise NotADirectory(path)
            node = child

    def unlink(self, path: str) -> Generator:
        """Process: remove a file."""
        yield from self._charge_syscall("unlink")
        yield from self._charge_path(len(split_path(path)))
        parent, leaf = self._parent_of(path)
        inode = parent.children.get(leaf)
        if inode is None:
            raise FileNotFound(path)
        if inode.is_dir:
            raise IsADirectory(path)
        del parent.children[leaf]

    def rename(self, src: str, dst: str) -> Generator:
        """Process: atomically move *src* over *dst*."""
        yield from self._charge_syscall("rename")
        yield from self._charge_path(
            len(split_path(src)) + len(split_path(dst)))
        src_parent, src_leaf = self._parent_of(src)
        inode = src_parent.children.get(src_leaf)
        if inode is None:
            raise FileNotFound(src)
        dst_parent, dst_leaf = self._parent_of(dst)
        del src_parent.children[src_leaf]
        inode.name = dst_leaf
        dst_parent.children[dst_leaf] = inode

    def stat(self, path: str) -> Generator:
        """Process: return ``{kind, size}`` for *path*."""
        components = split_path(path)
        yield from self._charge_syscall("stat")
        yield from self._charge_path(len(components))
        inode = self._walk(components)
        size = inode.data.size if inode.kind == "file" else 0
        return {"kind": inode.kind, "size": size}

    def listdir(self, path: str) -> Generator:
        """Process: list directory entries."""
        components = split_path(path) if path != "/" else []
        yield from self._charge_syscall("listdir")
        yield from self._charge_path(len(components))
        inode = self._walk(components)
        if not inode.is_dir:
            raise NotADirectory(path)
        return sorted(inode.children)

    def exists(self, path: str) -> bool:
        """Namespace probe without timing (test convenience)."""
        try:
            self._walk(split_path(path))
            return True
        except FsError:
            return False

    def read_file(self, path: str) -> Generator:
        """Process: open, read everything, close; returns the content."""
        handle = yield from self.open(path)
        content = yield from handle.read(handle.size)
        yield from handle.close()
        return content

    def write_file(self, path: str, content: Content,
                   fsync: bool = True) -> Generator:
        """Process: create/truncate, write everything, fsync, close."""
        handle = yield from self.open(path, create=True, truncate=True)
        yield from handle.write(content)
        if fsync:
            yield from handle.fsync()
        yield from handle.close()
