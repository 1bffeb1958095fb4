"""Binary file format for dense function tables.

Layout: 4-byte magic "F2FN", one format version byte, n as a 32-bit
little-endian unsigned integer, then 2^n IEEE-754 binary64 values in
little-endian index order.  Reads and writes round-trip bit-exactly.

Neither direction copies a float payload.  `write_table` writes the
header and then the table's own float64 buffer, or, for a count table
whose float values were never given nor read (`FunctionTable`), the
values counts / denominator built from the counts _WRITE_BLOCK entries
at a time, with the same bytes and no full-size float array.
`read_table` reads the payload straight into the one float64 array the
returned table holds, and tells a short file from an over-long one by
the bytes it read and a one-byte probe after them, so it works on pipes
as on regular files; its range check is the table's own (a min and a
max), raised as ValueRangeError.  Above what the caller holds, a read
peaks at the table's 8 * 2^n bytes and a write at one block of
8 * _WRITE_BLOCK bytes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .fourier import FunctionTable
from .gf2 import DEFAULT_DENSE_LIMIT, check_dense

MAGIC = b"F2FN"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBI")
# Payload entries written at once; a count table without float values
# builds each block's from its counts.
_WRITE_BLOCK = 1 << 16


class TableFormatError(Exception):
    """Base class for table file problems."""


class MalformedHeaderError(TableFormatError):
    pass


class TruncatedPayloadError(TableFormatError):
    pass


class ValueRangeError(TableFormatError):
    pass


def write_table(path: "str | Path", f: FunctionTable) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, f.n))
        for block in f._float_blocks(_WRITE_BLOCK):
            fh.write(np.ascontiguousarray(block, dtype="<f8"))


def read_table(path: "str | Path", dense_limit: int = DEFAULT_DENSE_LIMIT) -> FunctionTable:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise MalformedHeaderError(f"file shorter than the {_HEADER.size}-byte header")
        magic, version, n = _HEADER.unpack(header)
        if magic != MAGIC:
            raise MalformedHeaderError(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise MalformedHeaderError(f"unsupported format version {version}")
        if n == 0 or n > 62:
            raise MalformedHeaderError(f"implausible dimension n={n}")
        check_dense(n, dense_limit, "table entries")
        values = np.empty(1 << n, dtype="<f8")
        got = fh.readinto(values)
        if got < values.nbytes:
            raise TruncatedPayloadError(f"payload holds {got} bytes, need {values.nbytes}")
        if fh.read(1):
            raise MalformedHeaderError("payload longer than the header's dimension implies")
    try:
        return FunctionTable(n, values)
    except ValueError as exc:  # the header fixed n and the length: only the range is left
        raise ValueRangeError("table values outside [0, 1]") from exc
