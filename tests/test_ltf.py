"""LTF tensor files: round-trips and malformed-input rejection."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimodal.errors import FormatError
from trimodal.ltf import MAGIC, load_ltf, save_ltf
from trimodal.rng import Stream
from trimodal.tensor import Tensor


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

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "a.ltf"
        save_ltf(path, np.ones(3))
        before = path.read_bytes()
        with pytest.raises(FormatError, match="dtype"):
            save_ltf(path, np.ones(3, dtype=np.float32))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["a.ltf"]

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


@st.composite
def _forged(draw):
    """A real magic with arbitrary fields: any dtype code, rank and dims (zero,
    huge or past numpy's dimension limit), then a payload of arbitrary bytes,
    often exactly as long as the dims declare."""
    code = draw(st.sampled_from([0, 0, 1, 2, 255]))
    dims = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1)), max_size=70))
    header = (MAGIC + struct.pack("<BBH", code, len(dims), draw(st.sampled_from([0, 0, 1])))
              + b"".join(struct.pack("<Q", d) for d in dims))
    size = math.prod(dims) * 8
    exact = draw(st.booleans()) and size <= 72
    return header + draw(st.binary(min_size=size if exact else 0, max_size=size if exact else 48))


def _valid_then_mutated(draw_shape, edits):
    """A valid file of normal draws, with header bytes overwritten."""
    shape = tuple(draw_shape)
    payload = np.asarray(Stream(4, "mutate").normal(shape)).tobytes()
    raw = bytearray(ltf_header(shape) + payload)
    header = 8 + 8 * len(shape)
    for pos, value in edits:
        raw[pos % header] = value
    return bytes(raw)


_MUTATED = st.builds(
    _valid_then_mutated,
    st.lists(st.integers(0, 3), max_size=3),
    st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=4),
)


class TestArbitraryBytes:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("ltf-bytes") / "x.ltf"

    @settings(max_examples=150, deadline=None)
    @given(raw=st.one_of(st.binary(max_size=64), _forged(), _MUTATED))
    @example(raw=ltf_header([0, 2**62, 4]))  # empty payload, dims numpy cannot represent
    @example(raw=ltf_header([1]) + np.array([np.nan]).tobytes())
    @example(raw=ltf_header([2]) + np.array([1e308, 1e308]).tobytes())  # finite, sum overflows
    def test_loads_a_tensor_or_raises_format_error(self, path, raw):
        path.write_bytes(raw)
        try:
            value = load_ltf(path)
        except FormatError:
            return
        assert isinstance(value, Tensor)
