"""Unit tests for unit helpers and formatting."""

import pytest

from repro import units


def test_size_constants():
    assert units.KIB == 1024
    assert units.MIB == 1024 ** 2
    assert units.GIB == 1024 ** 3
    assert units.mib(1.5) == 1536 * 1024


def test_time_constants():
    assert units.SECOND == 1_000_000_000
    assert units.usecs(2.5) == 2500
    assert units.msecs(1) == 1_000_000
    assert units.secs(0.25) == 250_000_000


def test_bandwidth_conversions():
    assert units.gbytes(5.8) == pytest.approx(5.8e9)


def test_transfer_time_rounds_up():
    # 1 byte at 1 GB/s is 1ns exactly; 1 byte at 3 GB/s rounds up to 1ns.
    assert units.transfer_time_ns(1, 1e9) == 1
    assert units.transfer_time_ns(1, 3e9) == 1
    assert units.transfer_time_ns(int(1e9), 1e9) == units.SECOND
    assert units.transfer_time_ns(0, 1e9) == 0


def test_transfer_time_validates():
    with pytest.raises(ValueError):
        units.transfer_time_ns(-1, 1e9)
    with pytest.raises(ValueError):
        units.transfer_time_ns(1, 0)


def test_fmt_bytes():
    assert units.fmt_bytes(512) == "512B"
    assert units.fmt_bytes(units.mib(97)) == "97.00MiB"
    assert units.fmt_bytes(units.gib(1) + units.mib(256)) == "1.25GiB"
    assert units.fmt_bytes(-units.KIB) == "-1.00KiB"


def test_fmt_time():
    assert units.fmt_time(500) == "500ns"
    assert units.fmt_time(units.usecs(3)) == "3.000us"
    assert units.fmt_time(units.msecs(42)) == "42.000ms"
    assert units.fmt_time(units.secs(1.5)) == "1.500s"


def test_fmt_bandwidth():
    assert units.fmt_bandwidth(5.8e9) == "5.80GB/s"
    assert units.fmt_bandwidth(2.5e6) == "2.50MB/s"
    assert units.fmt_bandwidth(999) == "999.00B/s"
