"""Neural building blocks: linear maps, layer norm, multi-head self-attention,
transformer encoder stacks, token embeddings, positional encoding, pooling.

An encoder block is two graph nodes, one per post-norm sublayer
(`tensor.attention_sublayer` and `tensor.feedforward_sublayer`). Each keeps
its output, its norm's scales and, for attention, the probabilities; its
backward rebuilds the projections, the heads' output and the ReLU hidden
from its input.

Sequence layers take `[..., T, d]`: a `[T, d]` sample, or `[B, T, d]` for B
samples of one length T. Each sample's output is bitwise what it gets on its
own, since every op works per stacked matrix and no sample sees another.

All weights are initialized Uniform(+/- sqrt(6 / (fan_in + fan_out))) from a
stream keyed by the parameter's hierarchical name, biases and layer-norm
offsets at zero, so construction order never affects the draw.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .rng import Stream
from .tensor import Tensor


def _uniform_init(shape: tuple[int, ...], fan_in: int, fan_out: int, seed: int, name: str) -> Tensor:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    u = Stream(seed, "init", name).uniform(shape)
    return Tensor((2.0 * u - 1.0) * limit, requires_grad=True)


class Linear:
    """y = x W + b with W[in, out] for x[..., in], bias broadcast over rows;
    with `relu`, max(y, 0) in the same graph node."""

    def __init__(self, d_in: int, d_out: int, seed: int, name: str, relu: bool = False):
        self.name = name
        self.relu = relu
        self.W = _uniform_init((d_in, d_out), d_in, d_out, seed, name + ".W")
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return (T.linear_relu if self.relu else T.linear)(x, self.W, self.b)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(self.name + ".W", self.W), (self.name + ".b", self.b)]


class MLP:
    """Two linear maps with a ReLU between (the audio front-end)."""

    def __init__(self, d_in: int, d_hidden: int, d_out: int, seed: int, name: str):
        self.l1 = Linear(d_in, d_hidden, seed, name + ".l1", relu=True)
        self.l2 = Linear(d_hidden, d_out, seed, name + ".l2")

    def forward(self, x: Tensor) -> Tensor:
        return self.l2.forward(self.l1.forward(x))

    def parameters(self):
        return self.l1.parameters() + self.l2.parameters()


class LayerNorm:
    """The post-norm step of a residual sublayer: LN(x + sublayer(x)),
    normalised over the last axis, then scaled by gamma and shifted by beta.
    `MultiHeadAttention.forward` takes the norm that closes it; `forward`
    here runs the feed-forward sublayer this norm closes."""

    def __init__(self, d: int, name: str, eps: float = 1e-5):
        self.name = name
        self.eps = eps
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)

    def forward(self, x: Tensor, ff1: Linear, ff2: Linear) -> Tensor:
        """LN(x + relu(x W1 + b1) W2 + b2) as one `tensor.feedforward_sublayer`
        node, which keeps neither the hidden nor the sum."""
        return T.feedforward_sublayer(x, ff1.W, ff1.b, ff2.W, ff2.b, self.gamma, self.beta,
                                      self.eps)

    def parameters(self):
        return [(self.name + ".gamma", self.gamma), (self.name + ".beta", self.beta)]


class MultiHeadAttention:
    """Scaled dot-product self-attention over [..., T, d_model] sequences,
    with its output projection `Wo`, as a post-norm residual sublayer."""

    def __init__(self, d_model: int, n_heads: int, seed: int, name: str):
        if d_model % n_heads != 0:
            raise ShapeError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.Wq = Linear(d_model, d_model, seed, name + ".Wq")
        self.Wk = Linear(d_model, d_model, seed, name + ".Wk")
        self.Wv = Linear(d_model, d_model, seed, name + ".Wv")
        self.Wo = Linear(d_model, d_model, seed, name + ".Wo")

    def forward(self, x: Tensor, norm: LayerNorm) -> Tensor:
        """LN(x + MHA(x) Wo + bo) under `norm`, as one
        `tensor.attention_sublayer` node, which keeps the probabilities and
        none of q, k, v, the heads' output or the sum."""
        if x.data.ndim < 2 or x.shape[-1] != self.d_model:
            raise ShapeError(f"attention input must be [..., T, {self.d_model}], got {x.shape}")
        return T.attention_sublayer(x, self.Wq.W, self.Wq.b, self.Wk.W, self.Wk.b,
                                    self.Wv.W, self.Wv.b, self.Wo.W, self.Wo.b,
                                    norm.gamma, norm.beta, self.n_heads, norm.eps)

    def parameters(self):
        return (self.Wq.parameters() + self.Wk.parameters()
                + self.Wv.parameters() + self.Wo.parameters())


class EncoderBlock:
    """Post-norm transformer block: h = LN(x + MHA(x)), then LN(h + FF(h)).

    Two graph nodes, one per sublayer: `attn` with `ln1`
    (`tensor.attention_sublayer`) and `ln2` with `ff1` and `ff2`
    (`tensor.feedforward_sublayer`). Values and gradients are bitwise those
    of the unfused graph (`linear`, `attention`, `add`, `relu` and
    `layer_norm_rows` nodes, twelve in all). Per [T, d] sample the graph
    keeps the two [T, d] outputs, the attention probabilities [H, T, T], and
    each norm's `xhat` [T, d] and `inv` [T, 1]: 8 (4 T d + H T^2 + 2 T)
    bytes, against 8 (12 T d + 2 T d_ff + H T^2 + 2 T) + T d_ff unfused. The
    rest (q, k, v, the heads' output and the ReLU hidden) is rebuilt from
    the sublayer's input in backward.
    """

    def __init__(self, d_model: int, n_heads: int, d_ff: int, seed: int, name: str):
        self.attn = MultiHeadAttention(d_model, n_heads, seed, name + ".attn")
        self.ff1 = Linear(d_model, d_ff, seed, name + ".ff1")
        self.ff2 = Linear(d_ff, d_model, seed, name + ".ff2")
        self.ln1 = LayerNorm(d_model, name + ".ln1")
        self.ln2 = LayerNorm(d_model, name + ".ln2")

    def forward(self, x: Tensor) -> Tensor:
        return self.ln2.forward(self.attn.forward(x, self.ln1), self.ff1, self.ff2)

    def parameters(self):
        return (self.attn.parameters() + self.ff1.parameters() + self.ff2.parameters()
                + self.ln1.parameters() + self.ln2.parameters())


_POS_CACHE: dict[tuple[int, int], np.ndarray] = {}


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """Fixed sin/cos position table: even columns sine, odd columns cosine."""
    key = (n, d)
    cached = _POS_CACHE.get(key)
    if cached is not None:
        return cached
    pos = np.arange(n, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    _POS_CACHE[key] = table
    return table


class TransformerEncoder:
    """`n_layers` post-norm blocks over [..., T, d_model] sequences.

    Sinusoidal positions are added on entry, as a constant `[T, d]` table
    (`tensor.add_const`); `add_positional=False` is a test hook that restores
    permutation equivariance.
    """

    def __init__(self, d_model: int, n_heads: int, n_layers: int, d_ff: int, seed: int, name: str):
        self.d_model = d_model
        self.n_heads = n_heads
        self.n_layers = n_layers
        self.blocks = [
            EncoderBlock(d_model, n_heads, d_ff, seed, f"{name}.layer{i}")
            for i in range(n_layers)
        ]

    def forward(self, x: Tensor, add_positional: bool = True) -> Tensor:
        if x.data.ndim < 2 or x.shape[-2] < 1:
            raise ShapeError(f"encoder input must be [..., T>=1, d], got {x.shape}")
        if x.shape[-1] != self.d_model:
            raise ShapeError(f"encoder expects d_model={self.d_model}, got {x.shape}")
        if add_positional:
            x = T.add_const(x, sinusoidal_positions(x.shape[-2], self.d_model))
        for block in self.blocks:
            x = block.forward(x)
        return x

    def parameters(self):
        out = []
        for block in self.blocks:
            out.extend(block.parameters())
        return out


class EmbeddingTable:
    """vocab x d_model lookup table; gradients reach the selected rows."""

    def __init__(self, vocab: int, d_model: int, seed: int, name: str):
        if vocab < 1:
            raise ShapeError("vocab must be >= 1")
        self.name = name
        self.vocab = vocab
        self.table = _uniform_init((vocab, d_model), vocab, d_model, seed, name + ".table")

    def lookup(self, ids) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size < 1:
            raise ShapeError("token id sequence must be 1-D and non-empty")
        if ids.min() < 0 or ids.max() >= self.vocab:
            raise ShapeError(f"token id out of vocabulary (vocab={self.vocab})")
        return T.gather_rows(self.table, ids)

    def parameters(self):
        return [(self.name + ".table", self.table)]


def mean_pool(x: Tensor) -> Tensor:
    """Columnwise mean of [..., T, d] sequences -> [..., d] embeddings."""
    return T.mean_axis0(x)
