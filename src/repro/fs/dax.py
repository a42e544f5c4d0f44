"""ext4-DAX over an fsdax PMem namespace.

DAX writes skip the page cache and block layer entirely: the kernel
memcpys user data straight onto persistent media with non-temporal
stores.  That CPU copy is the cost — about 7 GB/s in the paper's Table I
("Server DAX write", 12.8 % of a checkpoint) — modeled as a dedicated
per-filesystem copy channel shared by concurrent writers, in series with
the DIMMs' own write bandwidth.  ``fsync`` is nearly free (an sfence plus
a journal touch), which is exactly why stacking BeeGFS on fsdax is
attractive in the first place.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.fs.vfs import FileHandle, Filesystem
from repro.hw.content import Content
from repro.hw.devices import PmemDimm
from repro.obs import Observability
from repro.sim import Environment, SharedChannel, Transfer
from repro.units import gbytes, usecs

#: Kernel nt-store copy rate into PMem (the Table I "DAX write" anchor:
#: 12.8 % of a BERT checkpoint; see repro.harness.calibration).
DAX_COPY_BPS = gbytes(5.64)
#: DAX reads are plain loads from PMem through the CPU caches — faster
#: than nt-store writes.
DAX_READ_BPS = gbytes(8.0)


class DaxFilesystem(Filesystem):
    """ext4 mounted with -o dax on an fsdax namespace."""

    def __init__(self, env: Environment, device: PmemDimm,
                 name: str = "ext4-dax",
                 obs: Optional[Observability] = None) -> None:
        super().__init__(env, name, obs=obs)
        self.device = device
        self._copy_channel = SharedChannel(env, DAX_COPY_BPS,
                                           f"{name}.dax-copy")
        self._read_channel = SharedChannel(env, DAX_READ_BPS,
                                           f"{name}.dax-read")

    def _write_data(self, handle: FileHandle, offset: int,
                    content: Content) -> Generator:
        if content.size == 0:
            return
        with self._span("dax_write"):
            yield Transfer(
                self.env, [self._copy_channel, self.device.write_channel],
                content.size, label=f"{self.name}:dax-write")

    def _read_data(self, handle: FileHandle, offset: int,
                   length: int, direct: bool = False) -> Generator:
        if length == 0:
            return
        with self._span("dax_read"):
            yield Transfer(
                self.env, [self.device.read_channel, self._read_channel],
                length, label=f"{self.name}:dax-read")

    def _fsync_file(self, handle: FileHandle) -> Generator:
        # sfence + journal inode update: sub-microsecond, charge a token.
        with self._span("dax_write"):
            yield self.env.timeout(usecs(0.5))
