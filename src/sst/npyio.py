"""Reader and writer for the NPY v1.0 single-array container.

The published sensor datasets ship as headerless numerical tensors in this
format, so ingestion cannot lean on pickle or other sidecars.  Parsing is
strict: every failure names the byte offset where the file went wrong.
Only little-endian float32/float64 payloads are supported.  Files written
here are readable by any conforming NPY reader and vice versa.

Layout: 6-byte magic, 2-byte version, 2-byte little-endian header length,
an ASCII dict literal with keys descr/fortran_order/shape padded so the
data section starts on a 64-byte boundary, then the raw buffer.
"""

from __future__ import annotations

import ast
import math
import os
from dataclasses import dataclass

import numpy as np

from sst.fileio import atomic_write

MAGIC = b"\x93NUMPY"
VERSION = (1, 0)
HEADER_ALIGN = 64

SUPPORTED_DESCRS = {"<f4": np.float32, "<f8": np.float64}


class NpyFormatError(ValueError):
    """File does not conform to NPY v1.0 or uses an unsupported feature."""


@dataclass
class NpyArray:
    descr: str
    shape: tuple[int, ...]
    fortran_order: bool
    array: np.ndarray


def write_npy(arr, path) -> None:
    """Serialize a float32/float64 ndarray, C-order, version 1.0; an
    interrupted write leaves any previous file at ``path`` intact.  A
    C-contiguous array is written from its own buffer, without a copy."""
    arr = np.asarray(arr)
    if arr.dtype == np.float32:
        descr = "<f4"
    elif arr.dtype == np.float64:
        descr = "<f8"
    else:
        raise NpyFormatError(f"unsupported dtype {arr.dtype}, expected float32 or float64")

    header = "{'descr': %r, 'fortran_order': False, 'shape': %r, }" % (
        descr, tuple(int(s) for s in arr.shape)
    )
    # pad with spaces so the data section starts 64-byte aligned; the
    # newline terminator is part of the padded header
    unpadded = len(MAGIC) + 2 + 2 + len(header) + 1
    pad = (-unpadded) % HEADER_ALIGN
    header_bytes = (header + " " * pad + "\n").encode("latin1")

    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes(VERSION))
        fh.write(len(header_bytes).to_bytes(2, "little"))
        fh.write(header_bytes)
        fh.write(memoryview(np.ravel(arr)).cast("B"))


def read_npy(path) -> NpyArray:
    """Read and parse an NPY file.  The file is read into one buffer, and
    the returned array is a writable view of it, so the data is held once."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        blob = bytearray(size)
        got = fh.readinto(blob)
    if got != size:
        raise NpyFormatError(f"file ends at byte {got}, but its size was {size} bytes")
    return parse_npy(blob)


def parse_npy(blob: bytes | bytearray) -> NpyArray:
    """Parse an NPY image.  The array is a view of ``blob``'s data section,
    read-only when ``blob`` is ``bytes``."""
    if blob[:6] != MAGIC:
        raise NpyFormatError("bad magic at byte 0: not an NPY file")
    if len(blob) < 10:
        raise NpyFormatError(f"file ends at byte {len(blob)}, header incomplete")
    version = (blob[6], blob[7])
    if version != VERSION:
        raise NpyFormatError(f"unsupported NPY version {version} at byte 6, expected (1, 0)")
    header_len = int.from_bytes(blob[8:10], "little")
    data_offset = 10 + header_len
    if len(blob) < data_offset:
        raise NpyFormatError(
            f"header declares {header_len} bytes at byte 8 but file ends at byte {len(blob)}"
        )

    header_text = blob[10:data_offset].decode("latin1")
    try:
        header = ast.literal_eval(header_text.strip())
    except (ValueError, SyntaxError, TypeError) as err:  # TypeError: unhashable key
        raise NpyFormatError(f"unparseable header dict at byte 10: {err}") from err
    if not isinstance(header, dict) or set(header) != {"descr", "fortran_order", "shape"}:
        raise NpyFormatError(
            f"header at byte 10 must have exactly descr/fortran_order/shape, got {header!r}"
        )

    descr = header["descr"]
    if not isinstance(descr, str) or descr not in SUPPORTED_DESCRS:
        raise NpyFormatError(
            f"unsupported descr {descr!r} at byte 10, expected one of {sorted(SUPPORTED_DESCRS)}"
        )
    fortran_order = header["fortran_order"]
    if not isinstance(fortran_order, bool):
        raise NpyFormatError(f"fortran_order at byte 10 must be a bool, got {fortran_order!r}")
    shape = header["shape"]
    if not (isinstance(shape, tuple) and all(isinstance(s, int) and s >= 0 for s in shape)):
        raise NpyFormatError(f"shape at byte 10 must be a tuple of non-negative ints, got {shape!r}")

    dtype = np.dtype(SUPPORTED_DESCRS[descr])
    count = math.prod(shape)  # exact: an int64 product could wrap around
    expected = count * dtype.itemsize
    actual = len(blob) - data_offset
    if actual != expected:
        raise NpyFormatError(
            f"expected {expected} data bytes at byte {data_offset}, found {actual}"
        )

    flat = np.frombuffer(blob, dtype=dtype, count=count, offset=data_offset)
    try:  # an empty array can still declare more axes or extent than numpy allows
        array = np.reshape(flat, shape, order="F" if fortran_order else "C")
    except ValueError as err:
        raise NpyFormatError(f"shape {shape!r} at byte 10 is not representable: {err}") from err
    return NpyArray(descr=descr, shape=tuple(shape), fortran_order=fortran_order, array=array)
