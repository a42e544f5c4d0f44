"""Tests for the VFS namespace, handles, and local filesystems."""

import pytest

from repro.errors import (FileExists, FileNotFound, FsError, IsADirectory,
                          NotADirectory)
from repro.fs import DaxFilesystem, Filesystem, LocalExtFilesystem
from repro.hw import ByteContent, NvmeDevice, PatternContent, PmemDimm
from repro.obs import Observability
from repro.sim import Environment
from repro.units import gbytes, gib, mib


def traced():
    return Observability(tracing=True)


@pytest.fixture
def fs():
    env = Environment()
    return env, Filesystem(env, "memfs", obs=traced())


def run(env, gen):
    return env.run_process(env.process(gen))


# --- namespace ------------------------------------------------------------------


def test_create_write_read_roundtrip(fs):
    env, fs = fs

    def scenario(env):
        yield from fs.mkdir("/ckpt")
        yield from fs.write_file("/ckpt/model.pt", ByteContent(b"weights"))
        content = yield from fs.read_file("/ckpt/model.pt")
        return content.to_bytes()

    assert run(env, scenario(env)) == b"weights"


def test_open_missing_file_fails(fs):
    env, fs = fs

    def scenario(env):
        with pytest.raises(FileNotFound):
            yield from fs.open("/nope")
        return True

    assert run(env, scenario(env))


def test_exclusive_create_conflict(fs):
    env, fs = fs

    def scenario(env):
        yield from fs.write_file("/f", ByteContent(b"x"))
        with pytest.raises(FileExists):
            yield from fs.open("/f", create=True, exclusive=True)
        return True

    assert run(env, scenario(env))


def test_truncate_resets_contents(fs):
    env, fs = fs

    def scenario(env):
        yield from fs.write_file("/f", ByteContent(b"long-old-content"))
        handle = yield from fs.open("/f", create=True, truncate=True)
        yield from handle.write(ByteContent(b"new"))
        yield from handle.close()
        content = yield from fs.read_file("/f")
        return content.to_bytes()

    assert run(env, scenario(env)) == b"new"


def test_mkdir_parents_and_nested_paths(fs):
    env, fs = fs

    def scenario(env):
        yield from fs.mkdir("/a/b/c", parents=True)
        yield from fs.write_file("/a/b/c/file", ByteContent(b"deep"))
        names = yield from fs.listdir("/a/b/c")
        return names

    assert run(env, scenario(env)) == ["file"]


def test_mkdir_without_parents_fails(fs):
    env, fs = fs

    def scenario(env):
        with pytest.raises(FileNotFound):
            yield from fs.mkdir("/no/such/parent")
        return True

    assert run(env, scenario(env))


def test_rename_atomic_replace(fs):
    env, fs = fs

    def scenario(env):
        yield from fs.write_file("/ckpt.tmp", ByteContent(b"new-version"))
        yield from fs.write_file("/ckpt", ByteContent(b"old-version"))
        yield from fs.rename("/ckpt.tmp", "/ckpt")
        content = yield from fs.read_file("/ckpt")
        exists = fs.exists("/ckpt.tmp")
        return content.to_bytes(), exists

    content, tmp_exists = run(env, scenario(env))
    assert content == b"new-version"
    assert not tmp_exists


def test_unlink_removes_file(fs):
    env, fs = fs

    def scenario(env):
        yield from fs.write_file("/gone", ByteContent(b"x"))
        yield from fs.unlink("/gone")
        return fs.exists("/gone")

    assert run(env, scenario(env)) is False


def test_unlink_directory_rejected(fs):
    env, fs = fs

    def scenario(env):
        yield from fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            yield from fs.unlink("/d")
        return True

    assert run(env, scenario(env))


def test_file_as_directory_component_rejected(fs):
    env, fs = fs

    def scenario(env):
        yield from fs.write_file("/f", ByteContent(b"x"))
        with pytest.raises(NotADirectory):
            yield from fs.open("/f/child", create=True)
        return True

    assert run(env, scenario(env))


def test_stat_reports_size(fs):
    env, fs = fs

    def scenario(env):
        yield from fs.write_file("/f", ByteContent(b"12345"))
        info = yield from fs.stat("/f")
        return info

    assert run(env, scenario(env)) == {"kind": "file", "size": 5}


def test_relative_path_rejected(fs):
    env, fs = fs

    def scenario(env):
        with pytest.raises(FsError, match="absolute"):
            yield from fs.open("relative/path")
        return True

    assert run(env, scenario(env))


def test_sparse_write_reads_zero_hole(fs):
    env, fs = fs

    def scenario(env):
        handle = yield from fs.open("/sparse", create=True)
        handle.seek(100)
        yield from handle.write(ByteContent(b"tail"))
        yield from handle.close()
        content = yield from fs.read_file("/sparse")
        return content.to_bytes()

    data = run(env, scenario(env))
    assert len(data) == 104
    assert data[:100] == bytes(100)
    assert data[100:] == b"tail"


def test_closed_handle_rejected(fs):
    env, fs = fs

    def scenario(env):
        handle = yield from fs.open("/f", create=True)
        yield from handle.close()
        with pytest.raises(FsError, match="closed"):
            yield from handle.write(ByteContent(b"x"))
        return True

    assert run(env, scenario(env))


def test_syscalls_cost_time(fs):
    env, fs = fs

    def scenario(env):
        yield from fs.write_file("/f", ByteContent(b"x"))
        return env.now

    elapsed = run(env, scenario(env))
    assert elapsed > 0
    tracer = fs.obs.tracer
    assert len(tracer.named("fs.syscall")) >= 4  # open, write, fsync, close
    assert tracer.total_ns("fs.syscall") > 0


# --- ext4-NVMe timing ---------------------------------------------------------------


def test_ext4_write_rate_near_device_limit():
    env = Environment()
    nvme = NvmeDevice(env)
    fs = LocalExtFilesystem(env, nvme, obs=traced())
    size = mib(512)

    def scenario(env):
        start = env.now
        yield from fs.write_file("/big", PatternContent(seed=1, size=size),
                                 fsync=False)
        return env.now - start

    elapsed = env.run_process(env.process(scenario(env)))
    observed_bps = size / (elapsed / 1e9)
    # Page-cache copy (8 GB/s) + block writeback (2.7 GB/s) + per-request
    # latency in series => ~1.75 GB/s effective streaming write.
    assert gbytes(1.6) < observed_bps < gbytes(1.9)
    tracer = fs.obs.tracer
    assert tracer.total_ns("fs.block_io") > tracer.total_ns("fs.page_cache")


def test_ext4_fsync_costs_journal_ios():
    env = Environment()
    nvme = NvmeDevice(env)
    fs = LocalExtFilesystem(env, nvme)

    def scenario(env):
        handle = yield from fs.open("/f", create=True)
        yield from handle.write(ByteContent(b"x" * 4096))
        before = env.now
        yield from handle.fsync()
        return env.now - before

    elapsed = env.run_process(env.process(scenario(env)))
    assert elapsed >= 2 * nvme.io_latency_ns


# --- ext4-DAX timing -----------------------------------------------------------------


def test_dax_write_rate_is_copy_bound():
    env = Environment()
    pmem = PmemDimm(env, dimms=3, dimm_capacity=gib(4))
    fs = DaxFilesystem(env, pmem, obs=traced())
    size = mib(512)

    def scenario(env):
        start = env.now
        yield from fs.write_file("/ckpt", PatternContent(seed=2, size=size),
                                 fsync=False)
        return env.now - start

    elapsed = env.run_process(env.process(scenario(env)))
    observed_bps = size / (elapsed / 1e9)
    assert observed_bps == pytest.approx(gbytes(5.64), rel=0.05)
    assert fs.obs.tracer.total_ns("fs.dax_write") > 0
    assert fs.obs.tracer.total_ns("fs.block_io") == 0


def test_dax_faster_than_nvme_for_same_write():
    env = Environment()
    pmem = PmemDimm(env, dimms=3, dimm_capacity=gib(4))
    nvme = NvmeDevice(env)
    dax = DaxFilesystem(env, pmem)
    ext4 = LocalExtFilesystem(env, nvme)
    size = mib(256)

    def timed_write(env, fs):
        start = env.now
        yield from fs.write_file("/f", PatternContent(seed=3, size=size))
        return env.now - start

    dax_ns = env.run_process(env.process(timed_write(env, dax)))
    ext4_ns = env.run_process(env.process(timed_write(env, ext4)))
    assert dax_ns < ext4_ns
