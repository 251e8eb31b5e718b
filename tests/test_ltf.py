"""LTF tensor files: round-trips and malformed-input rejection."""

import struct

import numpy as np
import pytest

from trimodal.errors import FormatError
from trimodal.ltf import MAGIC, load_ltf, save_ltf
from trimodal.rng import Stream


OVERSIZED_DIMS = [[2**31, 2**28], [2**40], [2**62]]


def ltf_header(dims) -> bytes:
    """A float64 LTF header declaring `dims`, without its payload."""
    return (MAGIC + struct.pack("<BBH", 0, len(dims), 0)
            + b"".join(struct.pack("<Q", d) for d in dims))


class TestRoundTrip:
    def test_bitwise_roundtrip(self, tmp_path):
        arr = Stream(1, "ltf").normal((5, 7))
        path = tmp_path / "a.ltf"
        save_ltf(path, arr)
        assert np.array_equal(load_ltf(path).data, arr)

    def test_rank3_and_rank0(self, tmp_path):
        for arr in (Stream(2).normal((2, 3, 4)), np.asarray(3.25)):
            save_ltf(tmp_path / "t.ltf", arr)
            back = load_ltf(tmp_path / "t.ltf").data
            assert back.shape == arr.shape
            assert np.array_equal(back, arr)

    def test_header_layout(self, tmp_path):
        save_ltf(tmp_path / "h.ltf", np.zeros((2, 3)))
        raw = (tmp_path / "h.ltf").read_bytes()
        assert raw[:4] == MAGIC
        code, rank, pad = struct.unpack("<BBH", raw[4:8])
        assert (code, rank, pad) == (0, 2, 0)
        assert struct.unpack("<QQ", raw[8:24]) == (2, 3)
        assert len(raw) == 24 + 6 * 8

    def test_same_content_same_bytes(self, tmp_path):
        arr = Stream(3).normal((4, 4))
        save_ltf(tmp_path / "x.ltf", arr)
        save_ltf(tmp_path / "y.ltf", arr)
        assert (tmp_path / "x.ltf").read_bytes() == (tmp_path / "y.ltf").read_bytes()


class TestRejection:
    def _write_good(self, tmp_path):
        path = tmp_path / "good.ltf"
        save_ltf(path, np.ones((2, 2)))
        return path

    def test_bad_magic_names_path(self, tmp_path):
        path = self._write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="good.ltf"):
            load_ltf(path)

    def test_unknown_dtype(self, tmp_path):
        path = self._write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="dtype"):
            load_ltf(path)

    def test_nonzero_reserved_bytes(self, tmp_path):
        path = self._write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[6] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="reserved"):
            load_ltf(path)

    def test_truncated_payload(self, tmp_path):
        path = self._write_good(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(FormatError, match="truncated"):
            load_ltf(path)

    @pytest.mark.parametrize("dims", OVERSIZED_DIMS, ids=str)
    def test_payload_larger_than_file_rejected_before_reading(self, tmp_path, dims):
        path = tmp_path / "forged.ltf"
        path.write_bytes(ltf_header(dims) + bytes(64))
        with pytest.raises(FormatError, match="truncated"):
            load_ltf(path)

    def test_trailing_garbage(self, tmp_path):
        path = self._write_good(tmp_path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            load_ltf(path)
