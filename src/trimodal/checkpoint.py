"""LAVC checkpoint archives: every parameter, optimizer state and the
fully-resolved config in one bitwise-reproducible file.

Layout:
    magic   b"LAVC"
    count   u32 little-endian number of entries
    entry   u16 LE name length, UTF-8 name, LTF blob

Entry names: `param.<hierarchical name>`, `adam.m.<name>`, `adam.v.<name>`,
`state.counters` (float64 [step, epochs_done, adam_t]) and `config`, the
JSON object `{"config": <resolved document>}` as a uint8 byte tensor. That
document is the archive's only description of its model: loading checks
every `param.*`/`adam.*` entry against the shapes it implies
(`config.parameter_shapes`) before allocating anything, then rebuilds the
stack from it with `config.encoder_stack` and fills in the entries.
Archives written by earlier versions also carry a `stack_dims` key beside
it, which loading ignores. A probe head (`evaluate.save_probe`) is an
archive of `param.probe.W`, `param.probe.b` and a `config` entry `{"mode"}`.
Names must be unique; readers reject bad magic, names that are not UTF-8,
duplicates, truncation and (as every LTF reader does) float64 entries
holding NaN or infinite values, and any fault in a stored entry raises
`FormatError`. Archives are written atomically.
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
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(f"{path}: entry name {raw!r} is not UTF-8 ({e.reason})") from e
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
    """Write `stack`, `adam` and the run counters to `path`. `config` must be
    the resolved document the stack was built from (`config.encoder_stack`):
    it is all that `load_checkpoint` rebuilds the stack from."""
    blob = json.dumps({"config": config}, sort_keys=True).encode("utf-8")
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


def _counters(path, counters: np.ndarray) -> tuple[int, int, int]:
    """`state.counters` as (step, epochs_done, adam_t), or a `FormatError`."""
    if (counters.shape != (3,) or (counters < 0).any()
            or (counters != np.floor(counters)).any()):
        raise FormatError(f"{path}: entry 'state.counters' must hold 3 non-negative "
                          f"integers [step, epochs_done, adam_t], got "
                          f"{np.array2string(counters, threshold=6)}")
    return tuple(int(c) for c in counters)


def load_checkpoint(path) -> Checkpoint:
    entries = _read_archive(path)
    blob = read_config(path, entries, "config")
    (counters,) = require(path, entries, "state.counters")
    step, epochs_done, adam_t = _counters(path, counters)
    try:
        config = cfg_mod.validate(blob["config"])
    except ConfigError as e:
        raise FormatError(f"{path}: 'config' in entry 'config' is invalid: {e}") from e
    # Every entry is checked against the shapes the config implies before
    # anything is allocated, so a config claiming a larger model than the
    # archive holds fails at its first missing or misshapen entry.
    for name, shape in cfg_mod.parameter_shapes(config):
        for key in (f"param.{name}", f"adam.m.{name}", f"adam.v.{name}"):
            (arr,) = require(path, entries, key)
            if arr.shape != shape:
                raise FormatError(f"{path}: shape mismatch for {key!r} "
                                  f"({arr.shape} vs {shape})")
    stack = cfg_mod.encoder_stack(config, 0)
    adam = cfg_mod.adam(config, stack.parameters())
    for name, p in stack.parameters():
        p.data[...] = entries[f"param.{name}"]
        adam.m[name][...] = entries[f"adam.m.{name}"]
        adam.v[name][...] = entries[f"adam.v.{name}"]
    adam.t = adam_t
    return Checkpoint(stack=stack, adam=adam, config=config,
                      epochs_done=epochs_done, step=step)
