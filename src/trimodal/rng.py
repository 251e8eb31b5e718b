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
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix64(z: int | np.ndarray) -> int | np.ndarray:
    """SplitMix64 finalizer on a Python int in [0, 2^64) or a uint64 array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _fold(state: int, item: int | str) -> int:
    """Fold one key element into a stream seed."""
    if isinstance(item, str):
        for b in item.encode("utf-8"):
            state = mix64(state ^ mix64(b + _GOLDEN))  # b < 256: no wrap
        return state
    if isinstance(item, (int, np.integer)):
        return mix64(state ^ mix64((int(item) & _MASK64) + _GOLDEN & _MASK64))
    raise TypeError(f"stream key elements must be int or str, got {type(item).__name__}")


class Stream:
    """A deterministic, independently seeded random stream.

    `Stream(seed, "video", 17)` always yields the same sequence, regardless
    of what any other stream has produced.
    """

    def __init__(self, seed: int, *key: int | str):
        state = mix64(int(seed) & _MASK64)
        for item in key:
            state = _fold(state, item)
        self._seed = state
        self._counter = 0

    def u64(self, n: int) -> np.ndarray:
        """Next `n` raw 64-bit outputs."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return mix64(idx * _GOLDEN + self._seed)

    def uniform(self, shape: int | tuple[int, ...] = ()) -> np.ndarray | float:
        """Uniform float64 in [0, 1)."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = math.prod(shape)
        out = (self.u64(n) >> 11) * 2.0**-53
        return out.reshape(shape) if shape else float(out[0])

    def normal(self, shape: int | tuple[int, ...] = (), sigma: float = 1.0) -> np.ndarray | float:
        """Standard-normal float64 draws via Box-Muller, scaled by `sigma`."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = math.prod(shape)
        pairs = (n + 1) // 2
        raw = self.u64(2 * pairs) >> 11
        u1 = (raw[:pairs] + 1.0) * 2.0**-53  # (0, 1]
        u2 = raw[pairs:] * 2.0**-53          # [0, 1)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(2.0 * math.pi * u2)
        out[1::2] = r * np.sin(2.0 * math.pi * u2)
        out = out[:n] * sigma
        return out.reshape(shape) if shape else float(out[0])

    def integers(self, n: int, bound: int) -> np.ndarray:
        """`n` integers in [0, bound) via modulo reduction."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.u64(n) % bound).astype(np.int64)

    def shuffle(self, items: list) -> list:
        """Fisher-Yates shuffle; returns a new list, input untouched."""
        out = list(items)
        n = len(out)
        if n < 2:
            return out
        # j for i = n-1 .. 1 is draw mod (i + 1), all reduced in one array op
        js = (self.u64(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(range(n - 1, 0, -1), js):
            out[i], out[j] = out[j], out[i]
        return out

    def permutation(self, n: int) -> list[int]:
        return self.shuffle(list(range(n)))
