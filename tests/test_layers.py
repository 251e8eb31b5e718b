"""Layers: linear, attention, encoder blocks, embeddings, pooling."""

import math

import numpy as np
import pytest

from test_tensor import closure_arrays
from trimodal import tensor as T
from trimodal.errors import ShapeError
from trimodal.gradcheck import max_rel_err
from trimodal.layers import (EmbeddingTable, EncoderBlock, LayerNorm, Linear,
                             MultiHeadAttention, TransformerEncoder, mean_pool,
                             sinusoidal_positions)
from trimodal.rng import Stream
from trimodal.tensor import Tensor, backward


class TestLinear:
    def test_identity_weights(self):
        layer = Linear(3, 3, seed=0, name="l")
        layer.W.data[...] = np.eye(3)
        layer.b.data[...] = 0.0
        x = Stream(1).normal((4, 3))
        assert np.array_equal(layer.forward(Tensor(x)).data, x)

    def test_zero_weights_all_ones_bias(self):
        layer = Linear(3, 2, seed=0, name="l")
        layer.W.data[...] = 0.0
        layer.b.data[...] = 1.0
        out = layer.forward(Tensor(Stream(2).normal((5, 3))))
        assert np.array_equal(out.data, np.ones((5, 2)))

    def test_gradients(self):
        layer = Linear(4, 3, seed=7, name="l")
        x = Tensor(Stream(3).normal((5, 4)), requires_grad=True)
        w = Tensor(Stream(4).uniform((5, 3)) + 0.5)
        err = max_rel_err([layer.W, layer.b, x],
                          lambda: T.sum_all(T.mul(layer.forward(x), w)))
        assert err < 1e-6

    def test_init_is_name_keyed(self):
        a = Linear(4, 3, seed=7, name="same")
        b = Linear(4, 3, seed=7, name="same")
        c = Linear(4, 3, seed=7, name="other")
        assert np.array_equal(a.W.data, b.W.data)
        assert not np.array_equal(a.W.data, c.W.data)

    def test_init_bounds(self):
        layer = Linear(30, 20, seed=1, name="l")
        limit = np.sqrt(6.0 / 50)
        assert np.abs(layer.W.data).max() <= limit
        assert np.array_equal(layer.b.data, np.zeros(20))


class TestAttention:
    def test_single_token_is_projected_value_row(self):
        # one token attends only to itself: LN(x + (x Wv + bv) Wo + bo)
        mha, ln = MultiHeadAttention(d_model=8, n_heads=2, seed=3, name="attn"), LayerNorm(8, "ln")
        x = Tensor(Stream(5).normal((1, 8)))
        expected = T.layer_norm_rows(T.add(x, mha.Wo.forward(mha.Wv.forward(x))),
                                     ln.gamma, ln.beta, ln.eps)
        assert np.allclose(mha.forward(x, ln).data, expected.data, atol=1e-12)

    def test_attention_rows_are_distributions(self):
        mha, ln = MultiHeadAttention(d_model=8, n_heads=2, seed=3, name="attn"), LayerNorm(8, "ln")
        for shape in ((5, 8), (3, 5, 8)):
            x = Tensor(Stream(6, *shape).normal(shape))
            # the probabilities the sublayer's forward and backward both compute
            q, k = (lin.forward(x).data for lin in (mha.Wq, mha.Wk))
            p = T._attention_probs(q, k, 2, 1.0 / math.sqrt(mha.d_head))
            assert p.shape == shape[:-2] + (2, 5, 5) and (p >= 0.0).all()
            assert np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-12

    def test_permutation_equivariance(self):
        mha, ln = MultiHeadAttention(d_model=6, n_heads=3, seed=4, name="attn"), LayerNorm(6, "ln")
        x = Stream(7).normal((5, 6))
        perm = Stream(8).permutation(5)
        out = mha.forward(Tensor(x), ln).data
        out_perm = mha.forward(Tensor(x[perm]), ln).data
        assert np.allclose(out[perm], out_perm, atol=1e-12)

    def test_gradients_through_attention(self):
        mha, ln = MultiHeadAttention(d_model=4, n_heads=2, seed=9, name="attn"), LayerNorm(4, "ln")
        x = Tensor(Stream(10).normal((3, 4)), requires_grad=True)
        w = Tensor(Stream(11).uniform((3, 4)) + 0.5)
        leaves = [x] + [p for _, p in mha.parameters() + ln.parameters()]
        err = max_rel_err(leaves, lambda: T.sum_all(T.mul(mha.forward(x, ln), w)))
        assert err < 1e-4

    def test_heads_must_divide_width(self):
        with pytest.raises(ShapeError):
            MultiHeadAttention(d_model=7, n_heads=2, seed=0, name="bad")


def unfused_block(block, x):
    """The graph of `linear`, `attention`, `add`, `layer_norm_rows` and
    `relu` nodes that `EncoderBlock.forward` fuses into two nodes."""
    a, ln1, ln2 = block.attn, block.ln1, block.ln2
    heads = T.attention(*(T.linear(x, lin.W, lin.b) for lin in (a.Wq, a.Wk, a.Wv)), a.n_heads)
    h = T.layer_norm_rows(T.add(x, T.linear(heads, a.Wo.W, a.Wo.b)), ln1.gamma, ln1.beta, ln1.eps)
    ff = T.linear(T.relu(T.linear(h, block.ff1.W, block.ff1.b)), block.ff2.W, block.ff2.b)
    return T.layer_norm_rows(T.add(h, ff), ln2.gamma, ln2.beta, ln2.eps)


def graph_inside(out):
    """The nodes between `out` and the leaves (input and parameters), and
    the arrays their closures keep besides the nodes' outputs."""
    nodes, seen, todo = [], set(), [out]
    while todo:
        t = todo.pop()
        if id(t) in seen or t._op == "leaf":
            continue
        seen.add(id(t))
        nodes.append(t)
        todo.extend(t._parents)
    outputs = {id(t.data) for t in nodes}
    kept = {id(a): a for t in nodes for a in closure_arrays(t) if id(a) not in outputs}
    return nodes, list(kept.values())


class TestEncoderBlock:
    @staticmethod
    def run(params, forward, x, g):
        for p in params:
            p.grad = None
        xt = Tensor(x, requires_grad=True)
        out = forward(xt)
        backward(T.sum_all(T.mul(out, Tensor(g))))
        return [out.data.tobytes(), xt.grad.tobytes()] + [p.grad.tobytes() for p in params]

    @pytest.mark.parametrize("upstream", ["random", "zero rows, negative gammas"])
    @pytest.mark.parametrize("shape", [(5, 8), (3, 4, 8), (12, 64), (3, 12, 64)])
    def test_bits_match_unfused_graph(self, shape, upstream):
        # d 8 with 2 heads, and the desk default d 64 with 4 heads; d_ff 2 d.
        # One block, then a 2-layer encoder against its blocks unfused.
        d = shape[-1]
        encoder = TransformerEncoder(d, 2 if d == 8 else 4, 2, 2 * d, seed=21, name="enc")
        s = Stream(22, *shape, upstream)
        x, g = s.normal(shape), s.normal(shape)
        for block in encoder.blocks:
            for ln in (block.ln1, block.ln2):
                ln.gamma.data[...] = s.normal(d)
                ln.beta.data[...] = s.normal(d)
            if upstream != "random":
                block.ln2.gamma.data[::2] = -np.abs(block.ln2.gamma.data[::2])
        if upstream != "random":
            g[..., 1, :] = 0.0
        block = encoder.blocks[0]
        h = block.attn.forward(Tensor(x), block.ln1)
        pre = T.linear(h, block.ff1.W, block.ff1.b).data
        assert (pre < 0).any() and (pre > 0).any()  # the ReLU masks some entries
        params = [p for _, p in block.parameters()]
        assert (self.run(params, block.forward, x, g)
                == self.run(params, lambda xt: unfused_block(block, xt), x, g))

        def unfused_encoder(xt):
            for blk in encoder.blocks:
                xt = unfused_block(blk, xt)
            return xt

        params = [p for _, p in encoder.parameters()]
        fused = self.run(params, lambda xt: encoder.forward(xt, add_positional=False), x, g)
        assert fused == self.run(params, unfused_encoder, x, g)

    def test_graph_keeps_only_its_two_outputs(self):
        # One [T, d] sample, T = 5, d = 8, H = 2, d_ff = 16, float64. Two
        # nodes whose outputs are two [T, d] arrays (640 bytes), and nothing
        # in their closures. The unfused graph has twelve nodes (4,480 bytes
        # of outputs, 1,200 in closures with the ReLU mask): 640 bytes
        # against 5,680 (11%).
        block = EncoderBlock(8, 2, 16, seed=21, name="blk")
        x = Tensor(Stream(23).normal((5, 8)), requires_grad=True)
        nodes, kept = graph_inside(block.forward(x))
        assert sorted(t._op for t in nodes) == ["attention_sublayer", "feedforward_sublayer"]
        assert sum(t.data.nbytes for t in nodes) == 640
        assert kept == []
        nodes, kept = graph_inside(unfused_block(block, x))
        assert len(nodes) == 12
        assert sum(t.data.nbytes for t in nodes) + sum(a.nbytes for a in kept) == 5680


class TestEncoder:
    def test_zero_layers_is_positional_add(self):
        enc = TransformerEncoder(d_model=6, n_heads=2, n_layers=0, d_ff=8, seed=0, name="e")
        x = Stream(12).normal((4, 6))
        out = enc.forward(Tensor(x)).data
        assert np.allclose(out, x + sinusoidal_positions(4, 6), atol=1e-15)

    def test_shape_preserved(self):
        enc = TransformerEncoder(d_model=8, n_heads=2, n_layers=2, d_ff=16, seed=1, name="e")
        for t in (1, 3, 9):
            out = enc.forward(Tensor(Stream(13, t).normal((t, 8))))
            assert out.shape == (t, 8)

    def test_deterministic(self):
        enc = TransformerEncoder(d_model=8, n_heads=2, n_layers=2, d_ff=16, seed=1, name="e")
        x = Stream(14).normal((4, 8))
        a = enc.forward(Tensor(x)).data
        b = enc.forward(Tensor(x)).data
        assert np.array_equal(a, b)

    def test_empty_sequence_rejected(self):
        enc = TransformerEncoder(d_model=4, n_heads=2, n_layers=1, d_ff=4, seed=2, name="e")
        with pytest.raises(ShapeError):
            enc.forward(Tensor(np.zeros((0, 4))))

    def test_gradients_through_two_layers(self):
        enc = TransformerEncoder(d_model=4, n_heads=2, n_layers=2, d_ff=4, seed=3, name="e")
        x = Tensor(Stream(15).normal((3, 4)), requires_grad=True)
        w = Tensor(Stream(16).uniform((3, 4)) + 0.5)
        leaves = [x] + [p for _, p in enc.parameters()]
        err = max_rel_err(leaves, lambda: T.sum_all(T.mul(enc.forward(x), w)))
        assert err < 1e-4

    def test_permutation_equivariant_without_positions(self):
        enc = TransformerEncoder(d_model=6, n_heads=2, n_layers=2, d_ff=8, seed=4, name="e")
        x = Stream(17).normal((5, 6))
        perm = Stream(18).permutation(5)
        out = enc.forward(Tensor(x), add_positional=False).data
        out_perm = enc.forward(Tensor(x[perm]), add_positional=False).data
        assert np.allclose(out[perm], out_perm, atol=1e-12)


class TestPositionalEncoding:
    def test_layout(self):
        pe = sinusoidal_positions(3, 4)
        assert pe.shape == (3, 4)
        assert np.allclose(pe[0], [0.0, 1.0, 0.0, 1.0])  # sin(0), cos(0) pattern
        assert np.allclose(pe[1, 0], np.sin(1.0))
        assert np.allclose(pe[1, 1], np.cos(1.0))

    def test_cached_instance(self):
        assert sinusoidal_positions(5, 8) is sinusoidal_positions(5, 8)


class TestEmbeddingTable:
    def test_lookup_selects_rows(self):
        table = EmbeddingTable(vocab=6, d_model=4, seed=5, name="emb")
        out = table.lookup([3, 0, 3])
        assert np.array_equal(out.data, table.table.data[[3, 0, 3]])

    def test_out_of_vocab_rejected(self):
        table = EmbeddingTable(vocab=6, d_model=4, seed=5, name="emb")
        with pytest.raises(ShapeError):
            table.lookup([6])

    def test_gradient_reaches_rows(self):
        table = EmbeddingTable(vocab=6, d_model=4, seed=5, name="emb")
        backward(T.sum_all(table.lookup([2, 2, 4])))
        g = table.table.grad
        assert np.array_equal(g[2], np.full(4, 2.0))
        assert np.array_equal(g[4], np.ones(4))
        assert np.array_equal(g[[0, 1, 3, 5]], np.zeros((4, 4)))


class TestMeanPool:
    def test_single_row(self):
        row = Stream(19).normal(5)
        assert np.array_equal(mean_pool(Tensor(row[None, :])).data, row)

    def test_hand_mean(self):
        assert np.array_equal(mean_pool(Tensor([[1.0, 3.0], [3.0, 1.0]])).data, [2.0, 2.0])

    def test_gradient_is_one_over_t(self):
        x = Tensor(Stream(20).normal((4, 3)), requires_grad=True)
        backward(T.sum_all(mean_pool(x)))
        assert np.allclose(x.grad, np.full((4, 3), 0.25))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            mean_pool(Tensor(np.zeros((0, 3))))
