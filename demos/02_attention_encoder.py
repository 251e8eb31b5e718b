"""Transformer encoders from the layer zoo: attention, blocks, pooling.

Run:  python demos/02_attention_encoder.py
"""

import numpy as np

from trimodal.layers import (LayerNorm, MultiHeadAttention, TransformerEncoder, mean_pool,
                             sinusoidal_positions)
from trimodal.rng import Stream
from trimodal.tensor import Tensor

print("== a self-attention sublayer, LN(x + MHA(x) Wo), over a [T, d_model] sequence ==")
mha = MultiHeadAttention(d_model=16, n_heads=4, seed=0, name="demo")
norm = LayerNorm(16, name="demo.ln")
x = Tensor(Stream(1).normal((6, 16)))
out = mha.forward(x, norm)
print("input", x.shape, "-> output", out.shape)

print("\n== attention alone is permutation-equivariant ==")
perm = Stream(2).permutation(6)
swapped = mha.forward(Tensor(x.data[perm]), norm)
print("max |out[perm] - out_of_permuted| =", np.abs(out.data[perm] - swapped.data).max())

print("\n== the encoder adds sinusoidal positions, breaking that symmetry ==")
enc = TransformerEncoder(d_model=16, n_heads=4, n_layers=2, d_ff=32, seed=3, name="enc")
with_pos = enc.forward(Tensor(x.data))
with_pos_perm = enc.forward(Tensor(x.data[perm]))
print("max |enc(x)[perm] - enc(x[perm])| =",
      np.abs(with_pos.data[perm] - with_pos_perm.data).max(), "(nonzero: order matters)")
no_pos = enc.forward(Tensor(x.data), add_positional=False)
no_pos_perm = enc.forward(Tensor(x.data[perm]), add_positional=False)
print("same check without positions:",
      np.abs(no_pos.data[perm] - no_pos_perm.data).max(), "(equivariance restored)")

print("\n== sequences pool to a single embedding by the token mean ==")
z = mean_pool(with_pos)
print("pooled embedding shape:", z.shape)

print("\n== a zero-layer encoder is just input + positions ==")
trivial = TransformerEncoder(d_model=16, n_heads=4, n_layers=0, d_ff=32, seed=4, name="t")
print("matches input + position table:",
      bool(np.allclose(trivial.forward(Tensor(x.data)).data,
                       x.data + sinusoidal_positions(6, 16))))
