"""`.f2fn` table files: edge cases, pipes, value checks and peak memory."""

import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from f2reglab import FunctionTable, read_table, write_table
from f2reglab.tableio import (
    MalformedHeaderError,
    TruncatedPayloadError,
    ValueRangeError,
)

HEADER = struct.Struct("<4sBI")


def file_bytes(n, values):
    return HEADER.pack(b"F2FN", 1, n) + np.asarray(values, dtype="<f8").tobytes()


def half_table(n):
    return file_bytes(n, np.full(1 << n, 0.5))


def raises_exactly(path, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        read_table(path)
    assert type(info.value) is error


class TestEdgeCases:
    def test_payload_one_byte_short(self, tmp_path):
        path = tmp_path / "t.f2fn"
        path.write_bytes(half_table(4)[:-1])
        raises_exactly(path, TruncatedPayloadError, "payload holds 127 bytes, need 128")

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.f2fn"
        path.write_bytes(half_table(4)[: HEADER.size])
        raises_exactly(path, TruncatedPayloadError, "payload holds 0 bytes, need 128")

    def test_one_trailing_byte(self, tmp_path):
        path = tmp_path / "t.f2fn"
        path.write_bytes(half_table(4) + b"\0")
        raises_exactly(
            path, MalformedHeaderError, "payload longer than the header's dimension implies"
        )

    def test_short_header(self, tmp_path):
        path = tmp_path / "t.f2fn"
        path.write_bytes(half_table(4)[: HEADER.size - 1])
        raises_exactly(path, MalformedHeaderError, "file shorter than the 9-byte header")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.f2fn"
        path.write_bytes(b"NOPE" + half_table(4)[4:])
        raises_exactly(path, MalformedHeaderError, "bad magic b'NOPE'")


def read_through_pipe(data):
    """read_table of `data` written into a pipe by another thread."""
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read_table(f"/dev/fd/{r}")
    finally:
        writer.join(timeout=30)
        os.close(r)
        assert not writer.is_alive()


class TestPipe:
    def test_pipe_reads_like_the_file(self, tmp_path):
        # 128 KiB: more than one pipe buffer, so the payload arrives in parts
        f = FunctionTable(14, np.random.default_rng(4).random(1 << 14))
        path = tmp_path / "t.f2fn"
        write_table(path, f)
        back = read_through_pipe(path.read_bytes())
        assert back.values.tobytes() == read_table(path).values.tobytes() == f.values.tobytes()

    def test_pipe_errors(self):
        with pytest.raises(MalformedHeaderError, match="longer"):
            read_through_pipe(half_table(14) + b"\0")
        with pytest.raises(TruncatedPayloadError, match="holds 131071 bytes"):
            read_through_pipe(half_table(14)[:-1])


BAD_VALUES = [np.nan, np.inf, -np.inf, -1e-300, np.nextafter(1.0, 2.0)]


class TestValueRange:
    @pytest.mark.parametrize("bad", BAD_VALUES)
    @pytest.mark.parametrize("index", [0, 37, 63])
    def test_out_of_range_rejected(self, tmp_path, bad, index):
        values = np.full(64, 0.5)
        values[index] = bad
        path = tmp_path / "t.f2fn"
        path.write_bytes(file_bytes(6, values))
        with pytest.raises(ValueRangeError, match=r"^table values outside \[0, 1\]$"):
            read_table(path)

    def test_endpoints_and_negative_zero_accepted(self, tmp_path):
        values = np.array([0.0, -0.0, 1.0, 0.25])
        path = tmp_path / "t.f2fn"
        path.write_bytes(file_bytes(2, values))
        assert read_table(path).values.tobytes() == values.tobytes()


def traced_peak(fn, *args):
    """fn(*args) and its peak of traced memory above the call's entry."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    N = 18

    def test_read_holds_one_table(self, tmp_path):
        path = tmp_path / "t.f2fn"
        write_table(path, FunctionTable(self.N, np.random.default_rng(5).random(1 << self.N)))
        table, peak = traced_peak(read_table, path)
        assert peak <= table.values.nbytes + (1 << 20), peak

    def test_write_copies_nothing(self, tmp_path):
        f = FunctionTable(self.N, np.random.default_rng(6).random(1 << self.N))
        _, peak = traced_peak(write_table, tmp_path / "t.f2fn", f)
        assert peak <= 1 << 20, peak
        assert (tmp_path / "t.f2fn").read_bytes() == file_bytes(self.N, f.values)

    def test_count_table_streams_its_values(self, tmp_path):
        # an n = 20 count table's float values would take 8 MiB: the write
        # builds them a block at a time, with the bytes of the whole array
        n = 20
        counts = np.random.default_rng(7).integers(0, 8, size=1 << n, dtype=np.uint8)
        f = FunctionTable.from_counts(n, counts, 7)
        path = tmp_path / "t.f2fn"
        _, peak = traced_peak(write_table, path, f)
        assert peak < 2 << 20, peak
        assert vars(f)["values"] is None
        expected = counts.astype(np.float64)
        expected /= 7.0
        assert path.read_bytes() == file_bytes(n, expected)
        assert f.values.tobytes() == expected.tobytes()
        # once built, the values themselves are written
        write_table(tmp_path / "u.f2fn", f)
        assert (tmp_path / "u.f2fn").read_bytes() == path.read_bytes()

    def test_count_table_writes_the_values_it_was_given(self, tmp_path):
        counts = np.arange(1 << 8, dtype=np.uint8) % 4
        values = counts / 4.0  # not counts / 3
        f = FunctionTable(8, values, counts=counts, denominator=3)
        write_table(tmp_path / "t.f2fn", f)
        assert (tmp_path / "t.f2fn").read_bytes() == file_bytes(8, values)
