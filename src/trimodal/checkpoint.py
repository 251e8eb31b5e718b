"""LAVC checkpoint archives: every parameter, optimizer state and the
fully-resolved config in one bitwise-reproducible file.

Layout:
    magic   b"LAVC"
    count   u32 little-endian number of entries
    entry   u16 LE name length, UTF-8 name, LTF blob

Entry names: `param.<hierarchical name>`, `adam.m.<name>`, `adam.v.<name>`,
`state.counters` (float64 [step, epochs_done, adam_t]) and `config` (the
JSON document as a uint8 byte tensor). Names must be unique; readers reject
bad magic, duplicates and truncation. Archives are written atomically.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config as cfg_mod
from . import ltf
from .encoders import EncoderStack
from .errors import ConfigError, FormatError
from .optim import Adam

MAGIC = b"LAVC"


def _write_archive(path, entries: list[tuple[str, np.ndarray]]) -> None:
    names = [name for name, _ in entries]
    if len(set(names)) != len(names):
        raise FormatError("duplicate entry names in checkpoint")
    with ltf.atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            ltf.write_stream(f, arr)


def _read_archive(path) -> dict[str, np.ndarray]:
    path = Path(path)
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        header = f.read(4)
        if len(header) != 4:
            raise FormatError(f"{path}: truncated header")
        (count,) = struct.unpack("<I", header)
        entries: dict[str, np.ndarray] = {}
        for _ in range(count):
            raw_len = f.read(2)
            if len(raw_len) != 2:
                raise FormatError(f"{path}: truncated entry header")
            (name_len,) = struct.unpack("<H", raw_len)
            raw = f.read(name_len)
            if len(raw) != name_len:
                raise FormatError(f"{path}: truncated entry name")
            name = raw.decode("utf-8")
            if name in entries:
                raise FormatError(f"{path}: duplicate entry {name!r}")
            entries[name] = ltf.read_stream(f, f"{path}:{name}")
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after last entry")
    return entries


@dataclass
class Checkpoint:
    stack: EncoderStack
    adam: Adam
    config: dict
    epochs_done: int
    step: int


def save_checkpoint(path, stack: EncoderStack, adam: Adam, config: dict,
                    epochs_done: int, step: int) -> None:
    blob = json.dumps({"config": config, "stack_dims": stack.dims},
                      sort_keys=True).encode("utf-8")
    entries: list[tuple[str, np.ndarray]] = []
    for name, p in stack.parameters():
        entries.append((f"param.{name}", p.data))
    for name, _ in stack.parameters():
        entries.append((f"adam.m.{name}", adam.m[name]))
    for name, _ in stack.parameters():
        entries.append((f"adam.v.{name}", adam.v[name]))
    entries.append(("state.counters", np.array([step, epochs_done, adam.t], dtype=np.float64)))
    entries.append(("config", np.frombuffer(blob, dtype=np.uint8)))
    _write_archive(path, entries)


def require(path, entries: dict[str, np.ndarray], *names: str) -> list[np.ndarray]:
    """The named archive entries, or a `FormatError` naming the first missing one."""
    for name in names:
        if name not in entries:
            raise FormatError(f"{path}: missing entry {name!r}")
    return [entries[name] for name in names]


def read_config(path, entries: dict[str, np.ndarray], *keys: str) -> dict:
    """An archive's `config` entry: a UTF-8 JSON object holding every key in `keys`."""
    (raw,) = require(path, entries, "config")
    try:
        blob = json.loads(raw.tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: entry 'config' is not UTF-8 JSON ({e})") from e
    for key in keys:
        if not isinstance(blob, dict) or key not in blob:
            raise FormatError(f"{path}: entry 'config' has no {key!r}")
    return blob


_RAW_DIMS = ("d_video_raw", "d_audio_raw", "vocab")


def _stack_from_dims(path, dims) -> EncoderStack:
    """The stack that a `config` entry's `stack_dims` object describes, or a
    `FormatError` naming the entry."""
    where = f"{path}: 'stack_dims' in entry 'config'"
    if not isinstance(dims, dict):
        raise FormatError(f"{where} is not an object")
    for key in _RAW_DIMS:
        value = dims.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise FormatError(f"{where} has no positive integer {key!r}")
    try:
        return EncoderStack(seed=0, **dims)
    except ConfigError as e:
        raise FormatError(f"{where}: {e}") from e


def _counters(path, counters: np.ndarray) -> tuple[int, int, int]:
    """`state.counters` as (step, epochs_done, adam_t), or a `FormatError`."""
    if (counters.shape != (3,) or not np.isfinite(counters).all()
            or (counters < 0).any() or (counters != np.floor(counters)).any()):
        raise FormatError(f"{path}: entry 'state.counters' must hold 3 non-negative "
                          f"integers [step, epochs_done, adam_t], got "
                          f"{np.array2string(counters, threshold=6)}")
    return tuple(int(c) for c in counters)


def load_checkpoint(path) -> Checkpoint:
    entries = _read_archive(path)
    blob = read_config(path, entries, "config", "stack_dims")
    (counters,) = require(path, entries, "state.counters")
    step, epochs_done, adam_t = _counters(path, counters)
    config = cfg_mod.validate(blob["config"])
    stack = _stack_from_dims(path, blob["stack_dims"])
    adam = cfg_mod.adam(config, stack.parameters())
    for name, p in stack.parameters():
        for prefix, target in (("param.", None), ("adam.m.", adam.m), ("adam.v.", adam.v)):
            key = prefix + name
            (arr,) = require(path, entries, key)
            if arr.shape != p.data.shape:
                raise FormatError(f"{path}: shape mismatch for {key!r} "
                                  f"({arr.shape} vs {p.data.shape})")
            if target is None:
                p.data[...] = arr
            else:
                target[name][...] = arr
    adam.t = adam_t
    return Checkpoint(stack=stack, adam=adam, config=config,
                      epochs_done=epochs_done, step=step)
