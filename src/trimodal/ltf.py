"""LTF: a minimal binary tensor format.

Layout:
    magic  b"LTF1"
    dtype  1 byte (0 = float64, 1 = uint8)
    rank   1 byte
    pad    2 bytes, must be zero
    dims   rank x u64, little-endian
    data   row-major payload, little-endian

Readers reject bad magic, unknown dtypes, nonzero padding, dims that form
no array shape and truncated payloads; a payload larger than the rest of the
file is rejected before it is read, and `load_ltf` rejects NaN and infinite
values. uint8 exists only to embed opaque byte blobs (e.g. the config
document inside a checkpoint archive); numeric tensors are always float64.

Files are written atomically (`atomic_write`): a write that fails, or a
process that dies mid-write, leaves the previous file, never a truncated one.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
from typing import BinaryIO, Iterator

import numpy as np

from .errors import FormatError
from .tensor import Tensor

MAGIC = b"LTF1"
DTYPE_F64 = 0
DTYPE_U8 = 1

_DTYPES = {DTYPE_F64: np.dtype("<f8"), DTYPE_U8: np.dtype("u1")}
_CODES = {np.dtype("float64"): DTYPE_F64, np.dtype("uint8"): DTYPE_U8}


@contextlib.contextmanager
def atomic_write(path) -> Iterator[BinaryIO]:
    """A binary file whose bytes replace `path` only when the block completes.

    The bytes go to a temporary file in the same directory, which
    `os.replace` then moves over `path`. If the block raises, the temporary
    file is removed and `path` keeps its previous contents."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_stream(f: BinaryIO, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)  # 0-d arrays are already contiguous
    code = _CODES.get(arr.dtype)
    if code is None:
        raise FormatError(f"unsupported dtype {arr.dtype}")
    if arr.ndim > 255:
        raise FormatError("rank exceeds 255")
    f.write(MAGIC)
    f.write(struct.pack("<BBH", code, arr.ndim, 0))
    for dim in arr.shape:
        f.write(struct.pack("<Q", dim))
    f.write(arr.astype(_DTYPES[code], copy=False).tobytes(order="C"))


def _read_exact(f: BinaryIO, n: int, path: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"{path}: truncated (wanted {n} bytes, got {len(buf)})")
    return buf


def read_stream(f: BinaryIO, path: str = "<stream>") -> np.ndarray:
    magic = _read_exact(f, 4, path)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    code, rank, pad = struct.unpack("<BBH", _read_exact(f, 4, path))
    if code not in _DTYPES:
        raise FormatError(f"{path}: unknown dtype code {code}")
    if pad != 0:
        raise FormatError(f"{path}: nonzero reserved bytes")
    dims = [struct.unpack("<Q", _read_exact(f, 8, path))[0] for _ in range(rank)]
    dtype = _DTYPES[code]
    size = math.prod(dims) * dtype.itemsize
    here = f.tell()
    left = f.seek(0, io.SEEK_END) - here
    f.seek(here)
    if size > left:  # checked before reading: a forged header must not size an allocation
        raise FormatError(f"{path}: truncated (header declares {size} payload bytes, "
                          f"{left} left)")
    payload = _read_exact(f, size, path)
    try:
        return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    except ValueError as e:  # empty payload, but dims numpy cannot represent
        raise FormatError(f"{path}: dims {dims} are not an array shape ({e})") from e


def save_ltf(path, value: Tensor | np.ndarray) -> None:
    arr = value.data if isinstance(value, Tensor) else np.asarray(value)
    with atomic_write(path) as f:
        write_stream(f, arr)


def load_ltf(path) -> Tensor:
    """Read a float64 LTF file into a Tensor (exact round-trip of save_ltf)."""
    with open(path, "rb") as f:
        arr = read_stream(f, str(path))
        extra = f.read(1)
    if extra:
        raise FormatError(f"{path}: trailing bytes after payload")
    if arr.dtype != np.float64:
        raise FormatError(f"{path}: expected float64 payload")
    if not np.isfinite(arr).all():
        raise FormatError(f"{path}: payload holds NaN or infinite values")
    with np.errstate(over="ignore"):  # the Tensor's finiteness screen sums the payload
        return Tensor(arr)
