"""Local ext4 on an NVMe SSD (the paper's "ext4-NVMe" baseline).

Write path: the syscall copies user data into the page cache (a CPU
memcpy), then the block layer streams it to the device in fixed-size
requests, each paying the device's per-I/O latency.  Checkpoint files are
far larger than the dirty-page thresholds, so writeback is effectively
synchronous with the writer — which is what the paper's Fig. 13 profile
shows: ext4-NVMe spends ~54 % of a BERT checkpoint inside block-device
kernel crossings.  ``fsync`` flushes the journal (two small serialized
I/Os) after any remaining data.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.fs.vfs import FileHandle, Filesystem
from repro.hw.content import Content
from repro.hw.devices import NVME_IO_LATENCY_NS, NvmeDevice
from repro.obs import Observability
from repro.sim import Environment, Transfer
from repro.units import gbytes, mib, transfer_time_ns

#: Page-cache copy rate: cache-cold memcpy from user buffers.
PAGE_CACHE_COPY_BPS = gbytes(8.0)
#: The block layer submits requests of this size for streaming writes.
BLOCK_REQUEST_BYTES = mib(1)


class LocalExtFilesystem(Filesystem):
    """ext4 over one local NVMe device."""

    def __init__(self, env: Environment, device: NvmeDevice,
                 name: str = "ext4-nvme",
                 obs: Optional[Observability] = None) -> None:
        super().__init__(env, name, obs=obs)
        self.device = device

    def _write_data(self, handle: FileHandle, offset: int,
                    content: Content) -> Generator:
        size = content.size
        if size == 0:
            return
        # User -> page cache copy.
        with self._span("page_cache"):
            yield self.env.timeout(transfer_time_ns(size,
                                                    PAGE_CACHE_COPY_BPS))
        # Block-layer writeback: one request stream; each request pays the
        # device's submission latency, data shares the device channel.
        requests = -(-size // BLOCK_REQUEST_BYTES)
        with self._span("block_io"):
            yield Transfer(
                self.env, [self.device.write_channel], size,
                latency_ns=NVME_IO_LATENCY_NS * requests,
                label=f"{self.name}:writeback")

    def _read_data(self, handle: FileHandle, offset: int,
                   length: int, direct: bool = False) -> Generator:
        if length == 0:
            return
        requests = -(-length // BLOCK_REQUEST_BYTES)
        with self._span("block_io"):
            yield Transfer(
                self.env, [self.device.read_channel], length,
                latency_ns=NVME_IO_LATENCY_NS * requests,
                label=f"{self.name}:readahead")
        if not direct:
            # Buffered read: device -> page cache -> user copy.
            with self._span("page_cache"):
                yield self.env.timeout(transfer_time_ns(length,
                                                        PAGE_CACHE_COPY_BPS))

    def _fsync_file(self, handle: FileHandle) -> Generator:
        # Data is already on the device (write-through model); the journal
        # commit is two small ordered I/Os.
        with self._span("block_io"):
            yield self.env.timeout(2 * NVME_IO_LATENCY_NS)
