"""Deterministic random streams built on the SplitMix64 generator.

Every random decision in the package (weight init, synthetic data, batch
shuffling, augmentation noise) is drawn from a `Stream` keyed by a seed plus
a tuple of labels, so any single stream can be reproduced in isolation and in
any other implementation of the same generator.

Generator definition (all arithmetic mod 2^64):

    state_i = stream_seed + i * 0x9E3779B97F4A7C15        (i = 1, 2, 3, ...)
    out_i   = mix64(state_i)

where mix64 is the SplitMix64 finalizer:

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Derived quantities:

    uniform in [0, 1):  (out >> 11) * 2^-53
    normal (n draws):   Box-Muller on one block of 2p outputs, p = ceil(n / 2):
                        for k < p, u1_k = ((out_k >> 11) + 1) * 2^-53 in (0, 1]
                        from the first half, u2_k = (out_{p+k} >> 11) * 2^-53
                        in [0, 1) from the second half;
                        z_2k = sqrt(-2 ln u1_k) cos(2 pi u2_k),
                        z_2k+1 = sqrt(-2 ln u1_k) sin(2 pi u2_k); the first n
                        z in order, times sigma
    integer in [0, b):  out mod b   (modulo bias is irrelevant at these scales)
    shuffle:            Fisher-Yates, descending index, j = draw mod (i + 1)

Stream seeds are derived from (seed, *key) by folding each key element into
the running state with mix64; strings fold byte by byte (see `_fold`).

Stream families: a key element may also be a sequence of ints or strings,
which adds one axis to the stream's family shape. `Stream(seed, "clip",
ids, range(1, 4))` is an `[len(ids), 3]` family whose member `[r, j]` is
the stream `Stream(seed, "clip", ids[r], j + 1)`. A family draws every
member at once: `u64`, `uniform`, `normal` and `integers` return
`[*family, *shape]` arrays whose rows are bitwise the member streams' own
draws, and all members advance one shared counter. `permutation(n)` of a
family is an `[*family, n]` int64 array whose rows are bitwise the members'
permutations: every member's Fisher-Yates draws come at once, and each step
swaps one column across all rows. `shuffle` takes a single stream only.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix64(z: int | np.ndarray) -> int | np.ndarray:
    """SplitMix64 finalizer on a Python int in [0, 2^64) or a uint64 array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _fold(state: int | np.ndarray, item: int | str) -> int | np.ndarray:
    """Fold one key element into a stream seed, or into every seed of a
    family (a uint64 array)."""
    if isinstance(item, str):
        for b in item.encode("utf-8"):
            state = mix64(state ^ mix64(b + _GOLDEN))  # b < 256: no wrap
        return state
    if isinstance(item, (int, np.integer)):
        return mix64(state ^ mix64((int(item) & _MASK64) + _GOLDEN & _MASK64))
    raise TypeError(f"stream key elements must be int or str, got {type(item).__name__}")


def _fold_axis(state: int | np.ndarray, items) -> np.ndarray:
    """Fold each of `items` into `state`: the seeds gain one trailing axis."""
    out = np.empty((*np.shape(state), len(items)), dtype=np.uint64)
    for i, item in enumerate(items):
        out[..., i] = _fold(state, item)
    return out


class Stream:
    """A deterministic, independently seeded random stream, or a family of them.

    `Stream(seed, "video", 17)` always yields the same sequence, regardless
    of what any other stream has produced. `Stream(seed, "video", [3, 17])`
    is the family of `Stream(seed, "video", 3)` and `Stream(seed, "video",
    17)`: its draws carry a leading `[2]` axis, one row per member.
    """

    def __init__(self, seed: int, *key: int | str | Sequence[int | str]):
        state = mix64(int(seed) & _MASK64)
        for item in key:
            if isinstance(item, (list, tuple, range, np.ndarray)):
                state = _fold_axis(state, item)
            else:
                state = _fold(state, item)
        self.family: tuple[int, ...] = state.shape if isinstance(state, np.ndarray) else ()
        # a family's seeds take a trailing axis that broadcasts over draws
        self._seed = state[..., None] if self.family else state
        self._counter = 0

    def _shaped(self, flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray | float:
        """`[*family, n]` draws as `[*family, *shape]`; one scalar draw of a
        single stream as a float."""
        if self.family or shape:
            return flat.reshape(self.family + shape)
        return float(flat[0])

    def u64(self, n: int) -> np.ndarray:
        """Next `n` raw 64-bit outputs (`[*family, n]`)."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return mix64(idx * _GOLDEN + self._seed)

    def uniform(self, shape: int | tuple[int, ...] = ()) -> np.ndarray | float:
        """Uniform float64 in [0, 1)."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        return self._shaped((self.u64(math.prod(shape)) >> 11) * 2.0**-53, shape)

    def normal(self, shape: int | tuple[int, ...] = (), sigma: float = 1.0) -> np.ndarray | float:
        """Standard-normal float64 draws via Box-Muller, scaled by `sigma`."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = math.prod(shape)
        pairs = (n + 1) // 2
        raw = self.u64(2 * pairs) >> 11
        u1 = (raw[..., :pairs] + 1.0) * 2.0**-53  # (0, 1]
        u2 = raw[..., pairs:] * 2.0**-53          # [0, 1)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(raw.shape, dtype=np.float64)
        out[..., 0::2] = r * np.cos(2.0 * math.pi * u2)
        out[..., 1::2] = r * np.sin(2.0 * math.pi * u2)
        return self._shaped(out[..., :n] * sigma, shape)

    def integers(self, n: int, bound: int) -> np.ndarray:
        """`n` integers in [0, bound) via modulo reduction."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.u64(n) % bound).astype(np.int64)

    def _swaps(self, n: int) -> np.ndarray:
        """Fisher-Yates `j` for i = n-1 .. 1, draw mod (i + 1), all reduced
        in one array op (`[*family, n - 1]`)."""
        return self.u64(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)

    def shuffle(self, items: list) -> list:
        """Fisher-Yates shuffle; returns a new list, input untouched."""
        if self.family:
            raise ValueError("shuffle draws from one stream, not a family")
        out = list(items)
        n = len(out)
        if n < 2:
            return out
        for i, j in zip(range(n - 1, 0, -1), self._swaps(n).tolist()):
            out[i], out[j] = out[j], out[i]
        return out

    def permutation(self, n: int) -> list[int] | np.ndarray:
        """`shuffle(range(n))` as a list; a family's as one `[*family, n]`
        int64 array, each row bitwise its member's permutation. A family
        swaps one column per Fisher-Yates step across all members."""
        if not self.family:
            return self.shuffle(list(range(n)))
        rows = math.prod(self.family)
        out = np.tile(np.arange(n, dtype=np.int64), (rows, 1))
        if n >= 2:
            js = self._swaps(n).reshape(rows, n - 1).astype(np.int64)
            r = np.arange(rows)
            for i, j in zip(range(n - 1, 0, -1), js.T):
                held = out[:, i].copy()
                out[:, i] = out[r, j]
                out[r, j] = held
        return out.reshape(*self.family, n)
