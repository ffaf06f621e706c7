"""NPY container: bit-exact round trips, numpy interop, corruption errors."""

import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sst import npyio
from sst.npyio import NpyFormatError, parse_npy, read_npy, write_npy


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (5,), (3, 4), (3, 2, 4)])
def test_round_trip_bit_exact(tmp_path, dtype, shape):
    rng = np.random.default_rng(42)
    arr = rng.normal(size=shape).astype(dtype)
    path = tmp_path / "a.npy"
    write_npy(arr, path)
    got = read_npy(path)
    assert got.array.dtype == dtype
    assert got.shape == shape
    np.testing.assert_array_equal(got.array, arr)


def test_file_round_trip_byte_identical(tmp_path):
    arr = np.random.default_rng(0).normal(size=(4, 3))
    p1, p2 = tmp_path / "a.npy", tmp_path / "b.npy"
    write_npy(arr, p1)
    write_npy(read_npy(p1).array, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_reads_numpy_written_file(tmp_path):
    arr = np.random.default_rng(1).normal(size=(2, 3, 4))
    path = tmp_path / "np.npy"
    np.save(path, arr)
    np.testing.assert_array_equal(read_npy(path).array, arr)


def test_numpy_reads_our_file(tmp_path):
    arr = np.random.default_rng(2).normal(size=(3, 2, 4)).astype(np.float32)
    path = tmp_path / "ours.npy"
    write_npy(arr, path)
    np.testing.assert_array_equal(np.load(path), arr)


def test_read_and_write_hold_the_data_once(tmp_path):
    """A write sends the array's own buffer, and a read parses the one
    buffer the file was read into: under tracemalloc the write peaks far
    below one copy of the data and the read near one copy."""
    arr = np.random.default_rng(5).normal(size=(512, 1024))
    path = tmp_path / "big.npy"
    tracemalloc.start()
    try:
        write_npy(arr, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        got = read_npy(path).array
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == arr.tobytes() and got.flags.writeable
    assert write_peak < 0.25 * arr.nbytes
    assert read_peak < 1.25 * arr.nbytes


def test_file_shorter_than_its_size_is_a_format_error(tmp_path, monkeypatch):
    """A file that shrinks while it is read fills less than its buffer."""
    path = tmp_path / "a.npy"
    write_npy(np.zeros(4), path)
    grown = SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=os.fstat(fd).st_size + 8))
    monkeypatch.setattr(npyio, "os", grown)
    with pytest.raises(NpyFormatError, match="file ends at byte"):
        read_npy(path)


@pytest.mark.parametrize("cut", [8, 100], ids=["data_section", "header"])
def test_truncated_file_error_names_the_file(tmp_path, cut):
    """``read_npy`` names its file in every format error, so no caller has
    to add it."""
    path = tmp_path / "a.npy"
    write_npy(np.zeros((4, 3)), path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(NpyFormatError) as err:
        read_npy(path)
    assert str(err.value).startswith(f"{path}: ")


def test_big_endian_array_is_not_written(tmp_path):
    with pytest.raises(NpyFormatError, match="unsupported dtype >f8"):
        write_npy(np.zeros(3, dtype=">f8"), tmp_path / "a.npy")


def test_data_section_64_byte_aligned(tmp_path):
    path = tmp_path / "a.npy"
    write_npy(np.zeros((7, 11)), path)
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:10], "little")
    assert (10 + header_len) % 64 == 0


def test_fortran_order_file_readable(tmp_path):
    arr = np.asfortranarray(np.random.default_rng(3).normal(size=(4, 5)))
    path = tmp_path / "f.npy"
    np.save(path, arr)
    got = read_npy(path)
    assert got.fortran_order is True
    np.testing.assert_array_equal(got.array, arr)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.npy"
    path.write_bytes(b"\x93NUMPZ" + b"\x00" * 100)
    with pytest.raises(NpyFormatError, match="byte 0"):
        read_npy(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v2.npy"
    path.write_bytes(b"\x93NUMPY" + bytes((2, 0)) + b"\x00" * 100)
    with pytest.raises(NpyFormatError, match="byte 6"):
        read_npy(path)


def test_short_data_names_offset(tmp_path):
    # header declares 10 elements, file carries 8
    path = tmp_path / "short.npy"
    write_npy(np.arange(10, dtype=np.float64), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(NpyFormatError, match=r"expected 80 data bytes at byte 128, found 64"):
        read_npy(path)


def test_unsupported_dtype(tmp_path):
    path = tmp_path / "ints.npy"
    np.save(path, np.arange(6))
    with pytest.raises(NpyFormatError, match="descr"):
        read_npy(path)


def test_mangled_header_dict(tmp_path):
    path = tmp_path / "a.npy"
    write_npy(np.zeros(3), path)
    blob = bytearray(path.read_bytes())
    blob[12] = ord("!")
    path.write_bytes(bytes(blob))
    with pytest.raises(NpyFormatError, match="byte 10"):
        read_npy(path)


def test_write_rejects_int_array(tmp_path):
    with pytest.raises(NpyFormatError, match="dtype"):
        write_npy(np.arange(4), tmp_path / "i.npy")


def _with_header(header: str, data: bytes) -> bytes:
    """An NPY v1.0 blob with the given header dict text and data bytes."""
    text = header.encode("latin1") + b"\n"
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text + data


@pytest.mark.parametrize("header", [
    "{[1]: 2}",
    "{'descr': [1], 'fortran_order': False, 'shape': (1,), }",
])
def test_unhashable_header_key_is_a_format_error(header):
    with pytest.raises(NpyFormatError, match="byte 10"):
        parse_npy(_with_header(header, b""))


@pytest.mark.parametrize("shape", ["(2, True)", "(True, 2)"])
def test_bool_in_shape_is_a_format_error(shape):
    """A bool is an int to isinstance, but not an extent: the header is
    malformed, even with the data bytes its product would need."""
    header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': {shape}, }}"
    with pytest.raises(NpyFormatError, match="byte 10"):
        parse_npy(_with_header(header, b"\x00" * 16))


def test_shape_whose_int64_product_wraps_is_a_format_error():
    """274177 * 67280421310721 is 2**64 + 1, which wraps to 1 in int64 and
    would match 8 data bytes."""
    header = "{'descr': '<f8', 'fortran_order': False, 'shape': (274177, 67280421310721), }"
    with pytest.raises(NpyFormatError, match="data bytes"):
        parse_npy(_with_header(header, b"\x00" * 8))


def test_empty_shape_beyond_numpy_limits_is_a_format_error():
    header = "{'descr': '<f8', 'fortran_order': False, 'shape': (0, 4611686018427387904), }"
    with pytest.raises(NpyFormatError, match="shape"):
        parse_npy(_with_header(header, b""))


def _valid_npy() -> bytes:
    header = "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 3), }"
    return _with_header(header, np.arange(6.0).tobytes())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_truncated_or_corrupted_npy_parses_or_raises_format_error(data):
    """Any truncation or single-byte change of a valid file either parses or
    raises NpyFormatError, never another exception."""
    blob = bytearray(_valid_npy())
    if data.draw(st.booleans()):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    try:
        parse_npy(bytes(blob))
    except NpyFormatError:
        pass
