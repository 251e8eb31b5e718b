"""Numeric core: op semantics, gradient rules, graph discipline."""

import math

import numpy as np
import pytest

from trimodal import tensor as T
from trimodal.errors import DegenerateVectorError, GraphError, NumericError, ShapeError
from trimodal.gradcheck import end_to_end_case, max_rel_err
from trimodal.rng import Stream
from trimodal.tensor import Tensor, backward


def leaf(arr):
    return Tensor(np.asarray(arr, dtype=float), requires_grad=True)


class TestTensorBasics:
    def test_shape_and_data_agree(self):
        t = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert t.shape == (2, 3)
        assert t.size == 6

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            Tensor([1.0, float("nan")])
        with pytest.raises(NumericError):
            Tensor([float("inf")])

    def test_non_finite_screen_raises_without_a_numpy_warning(self):
        # tier-1 turns every RuntimeWarning into an error, so a screen that
        # warned on the way (a sum meeting +inf and -inf) would fail here
        with pytest.raises(NumericError):
            T._ensure_finite(np.array([np.inf, -np.inf, 1.0]), "op")

    def test_finite_values_whose_sum_overflows_are_accepted(self):
        big = np.array([1e308, 1e308, -1e308, 1.7e308])
        assert Tensor(big).data.tobytes() == big.tobytes()

    def test_grad_buffer_matches_shape(self):
        x = leaf([[1.0, 2.0], [3.0, 4.0]])
        backward(T.sum_all(x))
        assert x.grad.shape == x.data.shape

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_hand_multiplied(self):
        a = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(T.matmul(a, b).data, [[0.0, 1.0], [0.0, 0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_against_finite_differences(self):
        s = Stream(3, "mm")
        a = leaf(s.normal((5, 7)))
        b = leaf(s.normal((7, 3)))
        err = max_rel_err([a, b], lambda: T.sum_all(T.matmul(a, b)))
        assert err < 1e-6

    def test_associativity(self):
        for k in range(10):
            s = Stream(k, "assoc")
            a, b, c = s.normal((3, 4)), s.normal((4, 5)), s.normal((5, 2))
            left = (a @ b) @ c
            right = a @ (b @ c)
            assert np.abs(left - right).max() < 1e-9


class TestSoftmaxRows:
    def test_symmetry(self):
        out = T.softmax_rows(Tensor([[0.0, 0.0]])).data
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_max_subtraction_prevents_overflow(self):
        out = T.softmax_rows(Tensor([[1000.0, 1000.0, 1000.0]])).data
        assert np.allclose(out, [[1 / 3] * 3], atol=1e-15)

    def test_rows_sum_to_one_and_open_interval(self):
        for k in range(20):
            x = Tensor(Stream(k, "sm").normal((4, 6), sigma=3.0))
            p = T.softmax_rows(x).data
            assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_gradient(self):
        x = leaf(Stream(11, "smg").normal((4, 6)))
        w = Tensor(Stream(12, "w").uniform((4, 6)) + 0.5)
        err = max_rel_err([x], lambda: T.sum_all(T.mul(T.softmax_rows(x), w)))
        assert err < 1e-6


def _softmax_nll_rows_reference(logits, labels):
    """`softmax_nll_rows` as it was written with method calls and a
    two-axis label index."""
    n = logits.shape[0]
    rows = np.arange(n)
    top = logits.max(axis=1, keepdims=True)
    p = np.exp(logits - top)
    total = p.sum(axis=1, keepdims=True)
    nll = (np.log(total[:, 0]) + top[:, 0]) - logits[rows, labels]
    p /= total
    p[rows, labels] -= 1.0
    return np.asarray(nll.mean()), p


class TestSoftmaxNllRows:
    @pytest.mark.parametrize("n", [1, 7, 32])
    @pytest.mark.parametrize("kind", ["normal", "tied", "spread-1e3"])
    def test_bits_match_reference(self, n, kind):
        y = Stream(n, "nll-labels").integers(n, 10)
        if kind == "tied":
            logits = np.repeat(Stream(n, "nll", kind).normal((n, 1)), 10, axis=1)
            logits[:, ::3] += 1.0  # ties for the row max as well
        else:
            sigma = 1e3 if kind == "spread-1e3" else 4.0
            logits = Stream(n, "nll", kind).normal((n, 10), sigma=sigma)
        loss, g = T.softmax_nll_rows(logits.copy(), y)
        ref_loss, ref_g = _softmax_nll_rows_reference(logits, y)
        assert loss.shape == () and g.shape == (n, 10)
        assert loss.tobytes() == ref_loss.tobytes()
        assert g.tobytes() == ref_g.tobytes()


class TestCrossEntropyRows:
    @pytest.mark.parametrize("n", [1, 7, 32])
    def test_bits_match_two_pass_definition(self, n):
        # the op's definition before `softmax_nll_rows` shared it with the
        # probe fit: shifted logits exponentiated once for the log-sum-exp
        # and once more for the softmax
        logits = Stream(n, "ce").normal((n, 10), sigma=4.0)
        y = Stream(n, "ce-labels").integers(n, 10)
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
        expect_loss = np.asarray((lse - logits[np.arange(n), y]).mean())
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), y] -= 1.0
        x = leaf(logits)
        loss = T.cross_entropy_rows(x, y)
        backward(loss)
        assert loss.data.tobytes() == expect_loss.tobytes()
        assert x.grad.tobytes() == (np.zeros_like(p) + p * (1.0 / n)).tobytes()


class TestLinear:
    """`linear` is one node with the bits of `add_rowvec(matmul(x, W), b)`,
    forward and backward."""

    @pytest.mark.parametrize("shape", [(5, 6), (3, 4, 6), (2, 3, 1, 6)])
    def test_bits_match_matmul_then_add_rowvec(self, shape):
        x = Stream(41, "linear", len(shape)).normal(shape)
        W = Stream(42, "linear").normal((6, 5))
        b = Stream(43, "linear").normal(5)
        g = Stream(44, "linear", len(shape)).normal(shape[:-1] + (5,))
        grads = []
        for build in (lambda x, W, b: T.linear(x, W, b),
                      lambda x, W, b: T.add_rowvec(T.matmul(x, W), b)):
            leaves = [leaf(x), leaf(W), leaf(b)]
            out = build(*leaves)
            backward(T.sum_all(T.mul(out, Tensor(g))))
            grads.append([out.data.tobytes()] + [p.grad.tobytes() for p in leaves])
        assert grads[0] == grads[1]

    def test_one_node(self):
        x, W, b = leaf(np.ones((2, 3))), leaf(np.ones((3, 4))), leaf(np.ones(4))
        out = T.linear(x, W, b)
        assert out._op == "linear" and out._parents == (x, W, b)

    @pytest.mark.parametrize("shapes", [((3,), (3, 2), (2,)), ((2, 3), (4, 2), (2,)),
                                        ((2, 3), (3, 2), (3,)), ((2, 3), (3, 2), (1, 2))])
    def test_shape_mismatch(self, shapes):
        with pytest.raises(ShapeError):
            T.linear(*(Tensor(np.ones(s)) for s in shapes))


def closure_arrays(t):
    """The numpy arrays a node's backward closure keeps alive."""
    return [c.cell_contents for c in t._backward.__closure__
            if isinstance(c.cell_contents, np.ndarray)]


def attention_graph(x, Wq, bq, Wk, bk, Wv, bv, Wo, bo, gamma, beta, n_heads):
    """The graph `attention_sublayer` stands for."""
    heads = T.attention(T.linear(x, Wq, bq), T.linear(x, Wk, bk), T.linear(x, Wv, bv), n_heads)
    return T.layer_norm_rows(T.add(x, T.linear(heads, Wo, bo)), gamma, beta)


def feedforward_graph(x, W1, b1, W2, b2, gamma, beta):
    """The graph `feedforward_sublayer` stands for."""
    hidden = T.relu(T.linear(x, W1, b1))
    return T.layer_norm_rows(T.add(x, T.linear(hidden, W2, b2)), gamma, beta)


class TestFusedOps:
    """`linear_relu`, `attention_sublayer`, `feedforward_sublayer` and
    `add_const` are one node each with the bits of the graph they stand for,
    forward and backward, on 2-D, 3-D and 4-D inputs; each keeps only what
    its backward reads."""

    SHAPES = [(5, 6), (3, 4, 6), (2, 3, 1, 6)]

    @staticmethod
    def run(build, arrays, g):
        leaves = [leaf(a) for a in arrays]
        out = build(*leaves)
        backward(T.sum_all(T.mul(out, Tensor(g))))
        return [out.data.tobytes()] + [p.grad.tobytes() for p in leaves]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_linear_relu_bits_match_relu_of_linear(self, shape):
        s = Stream(61, "linear_relu", len(shape))
        arrays = [s.normal(shape), s.normal((6, 5)), s.normal(5)]
        g = s.normal(shape[:-1] + (5,))
        g[..., 0, :] = -np.abs(g[..., 0, :])  # masked entries of negative upstream: -0.0
        pre = arrays[0] @ arrays[1] + arrays[2]
        assert (pre < 0).any() and (pre > 0).any()
        assert (self.run(T.linear_relu, arrays, g)
                == self.run(lambda x, W, b: T.relu(T.linear(x, W, b)), arrays, g))

    @pytest.mark.parametrize("n_heads", [1, 2, 3])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_attention_sublayer_bits_match_unfused(self, shape, n_heads):
        s = Stream(62, "attention_sublayer", len(shape), n_heads)
        arrays = [s.normal(shape)] + [s.normal(sh) for _ in range(4) for sh in ((6, 6), (6,))]
        arrays += [s.normal(6), s.normal(6)]  # gammas of both signs
        g = s.normal(shape)
        g[..., 0, :] = 0.0  # zero upstream rows
        assert (self.run(lambda *a: T.attention_sublayer(*a, n_heads), arrays, g)
                == self.run(lambda *a: attention_graph(*a, n_heads), arrays, g))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_feedforward_sublayer_bits_match_unfused(self, shape):
        s = Stream(62, "feedforward_sublayer", len(shape))
        arrays = [s.normal(shape), s.normal((6, 5)), s.normal(5), s.normal((5, 6)), s.normal(6),
                  s.normal(6), s.normal(6)]
        g = s.normal(shape)
        g[..., 0, :] = 0.0  # zero upstream rows, with gammas of both signs
        pre = arrays[0] @ arrays[1] + arrays[2]
        assert (pre < 0).any() and (pre > 0).any()
        assert (self.run(T.feedforward_sublayer, arrays, g)
                == self.run(feedforward_graph, arrays, g))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_add_const_bits_match_add_of_broadcast_copy(self, shape):
        s = Stream(63, "add_const", len(shape))
        a, c, g = s.normal(shape), s.normal(shape[-2:]), s.normal(shape)
        assert (self.run(lambda x: T.add_const(x, c), [a], g)
                == self.run(lambda x: T.add(x, Tensor(np.broadcast_to(c, shape))), [a], g))

    def test_nodes_keep_only_what_backward_reads(self):
        x, h = leaf(np.ones((2, 3, 4))), leaf(np.ones((2, 3, 5)))
        gamma, beta = leaf(np.ones(4)), leaf(np.zeros(4))
        r = T.linear_relu(h, leaf(np.ones((5, 5))), leaf(np.ones(5)))
        assert r._op == "linear_relu" and len(r._parents) == 3
        assert [a is r.data for a in closure_arrays(r)] == [True]  # the mask is `out > 0`
        params = [leaf(Stream(64, i).normal(sh)) for i in range(4) for sh in ((4, 4), (4,))]
        out = T.attention_sublayer(x, *params, gamma, beta, 2)
        assert out._op == "attention_sublayer" and out._parents == (x, *params, gamma, beta)
        # inv, xhat and the probabilities [B, H, T, T]
        assert sorted(a.shape for a in closure_arrays(out)) == [(2, 2, 3, 3), (2, 3, 1),
                                                               (2, 3, 4)]
        ff = [leaf(np.ones((4, 5))), leaf(np.ones(5)), leaf(np.ones((5, 4))), leaf(np.ones(4))]
        out = T.feedforward_sublayer(x, *ff, gamma, beta)
        assert out._op == "feedforward_sublayer" and out._parents == (x, *ff, gamma, beta)
        assert sorted(a.shape for a in closure_arrays(out)) == [(2, 3, 1), (2, 3, 4)]
        pos = T.add_const(x, np.ones((3, 4)))
        assert pos._op == "add_const" and pos._parents == (x,)
        assert pos._backward.__closure__ is None  # no copy of the table

    @pytest.mark.parametrize("shapes,n_heads", [
        (((4,), (4, 4), (4,), (4,)), 2),        # a vector, not [..., T, d]
        (((3, 4), (4, 4), (4,), (4,)), 3),      # heads do not divide d
        (((3, 4), (4, 4), (4,), (4,)), 0),
        (((3, 4), (4, 5), (5,), (4,)), 2),      # projections [d, d]
        (((3, 4), (4, 4), (3,), (4,)), 2),      # biases [d]
        (((3, 4), (4, 4), (4,), (3,)), 2)])     # gamma, beta [d]
    def test_attention_sublayer_shape_mismatch(self, shapes, n_heads):
        x, W, b, gamma = (Tensor(np.ones(sh)) for sh in shapes)
        with pytest.raises(ShapeError):
            T.attention_sublayer(x, W, b, W, b, W, b, W, b, gamma, gamma, n_heads)

    @pytest.mark.parametrize("shapes", [((3, 4), (5, 2), (2,), (2, 4), (4,)),
                                        ((3, 4), (4, 2), (3,), (2, 4), (4,)),
                                        ((3, 4), (4, 2), (2,), (3, 4), (4,)),
                                        ((3, 4), (4, 2), (2,), (2, 5), (4,)),
                                        ((4,), (4, 2), (2,), (2, 4), (4,)),
                                        ((3, 4), (4, 2), (2,), (2, 4), (3,)),
                                        ((3, 5), (5, 2), (2,), (2, 5), (5,))])  # gamma [4]
    def test_feedforward_sublayer_shape_mismatch(self, shapes):
        x, W1, b1, W2, b2 = (Tensor(np.ones(sh)) for sh in shapes)
        with pytest.raises(ShapeError):
            T.feedforward_sublayer(x, W1, b1, W2, b2, Tensor(np.ones(4)), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("a,c", [((3, 4), (4,)), ((3, 4), (2, 4)), ((2, 3, 4), (3, 5)),
                                     ((3, 4), (2, 3, 4))])
    def test_add_const_shape_mismatch(self, a, c):
        with pytest.raises(ShapeError):
            T.add_const(Tensor(np.ones(a)), np.ones(c))

    def test_linear_relu_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.linear_relu(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.ones(2)))


def per_head_attention(q, k, v, n_heads):
    """The per-head graph `tensor.attention` replaces: column slices, one
    scaled product, softmax and product per head, then a concatenation."""
    d_head = q.shape[-1] // n_heads
    heads = []
    for h in range(n_heads):
        lo, hi = h * d_head, (h + 1) * d_head
        qh, kh, vh = (T.slice_cols(t, lo, hi) for t in (q, k, v))
        scores = T.scale(T.matmul(qh, T.transpose(kh)), 1.0 / math.sqrt(d_head))
        heads.append(T.matmul(T.softmax_rows(scores), vh))
    return T.concat_cols(heads)


class TestAttention:
    """`attention` is one node with the bits of the per-head graph, forward
    and backward, and a stacked sample gets the bits of its own call."""

    @staticmethod
    def run(build, arrays, g, n_heads):
        leaves = [leaf(a) for a in arrays]
        out = build(*leaves, n_heads)
        backward(T.sum_all(T.mul(out, Tensor(g))))
        return [out.data.tobytes()] + [p.grad.tobytes() for p in leaves]

    @staticmethod
    def inputs(shape, key):
        s = Stream(51, "attention", *shape, key)
        return [s.normal(shape) for _ in range(3)], s.normal(shape)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("shape", [(5, 8), (1, 8), (3, 5, 8), (2, 1, 8), (2, 3, 4, 8),
                                       (7, 12, 64)])
    def test_bits_match_per_head_graph(self, shape, n_heads):
        arrays, g = self.inputs(shape, n_heads)
        assert (self.run(T.attention, arrays, g, n_heads)
                == self.run(per_head_attention, arrays, g, n_heads))

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_stacked_sample_matches_its_own_call(self, n_heads):
        arrays, g = self.inputs((4, 6, 8), n_heads)
        stacked = [leaf(a) for a in arrays]
        out = T.attention(*stacked, n_heads)
        backward(T.sum_all(T.mul(out, Tensor(g))))
        for b in range(4):
            alone = self.run(T.attention, [a[b] for a in arrays], g[b], n_heads)
            assert alone == [out.data[b].tobytes()] + [p.grad[b].tobytes() for p in stacked]

    def test_one_node_that_keeps_only_its_probabilities(self):
        arrays, _ = self.inputs((3, 5, 8), "closure")
        q, k, v = (leaf(a) for a in arrays)
        out = T.attention(q, k, v, 2)
        assert out._op == "attention" and out._parents == (q, k, v)
        kept = [cell.cell_contents for cell in out._backward.__closure__]
        arrays_kept = [c for c in kept if isinstance(c, np.ndarray)]
        assert len(arrays_kept) == 1 and arrays_kept[0].shape == (3, 2, 5, 5)  # [B, H, T, T]
        for c in kept:
            assert isinstance(c, (np.ndarray, Tensor, int, float)), type(c)
            if isinstance(c, Tensor):
                assert any(c is p for p in (q, k, v))

    @pytest.mark.parametrize("shapes,n_heads", [
        (((4,), (4,), (4,)), 2), (((3, 4), (3, 4), (2, 4)), 2),
        (((3, 4), (3, 4), (3, 4)), 3), (((3, 4), (3, 4), (3, 4)), 0),
        (((2, 3, 4), (3, 4), (3, 4)), 2)])
    def test_shape_mismatch(self, shapes, n_heads):
        with pytest.raises(ShapeError):
            T.attention(*(Tensor(np.ones(s)) for s in shapes), n_heads)


class TestNumpyEquivalents:
    """Reductions written out without numpy's Python wrappers keep their bits."""

    @pytest.mark.parametrize("shape", [(1, 1), (4, 7), (3, 5, 64)])
    def test_layer_norm_uses_var_bits(self, shape):
        x = Stream(51, "ln").normal(shape, sigma=3.0) + 2.0
        gamma = Stream(52, "ln").normal(shape[-1])
        beta = Stream(53, "ln").normal(shape[-1])
        mu = x.mean(axis=-1, keepdims=True)
        want = (x - mu) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)) * gamma + beta
        got = T.layer_norm_rows(Tensor(x), Tensor(gamma), Tensor(beta), 1e-5).data
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (4, 7), (9, 64)])
    def test_row_norms_use_linalg_norm_bits(self, shape):
        x = Stream(54, "norm").normal(shape)
        want = x / np.linalg.norm(x, axis=1, keepdims=True)
        assert T.l2_normalize_rows(Tensor(x)).data.tobytes() == want.tobytes()


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = T.l2_normalize_rows(Tensor([[3.0, 4.0]])).data
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_unit_vector_fixed_point(self):
        v = np.array([[1.0, 0.0, 0.0]])
        assert np.array_equal(T.l2_normalize_rows(Tensor(v)).data, v)

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateVectorError):
            T.l2_normalize_rows(Tensor([[0.0, 0.0]]))


class TestBackward:
    def test_product_rule(self):
        x = leaf([2.0])
        y = leaf([3.0])
        backward(T.sum_all(T.mul(x, y)))
        assert x.grad.tolist() == [3.0]
        assert y.grad.tolist() == [2.0]

    def test_sum_gives_ones(self):
        x = leaf([[1.0, 2.0], [3.0, 4.0]])
        backward(T.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 2)))

    def test_non_scalar_root_rejected(self):
        x = leaf([1.0, 2.0])
        with pytest.raises(GraphError):
            backward(T.relu(x))

    def test_double_backward_rejected(self):
        x = leaf([1.0, 2.0])
        loss = T.sum_all(x)
        backward(loss)
        with pytest.raises(GraphError):
            backward(loss)

    def test_grad_accumulates_across_graphs(self):
        x = leaf([1.0])
        backward(T.sum_all(x))
        backward(T.sum_all(T.scale(x, 2.0)))
        assert x.grad.tolist() == [3.0]

    def test_shared_parent_contributions_add(self):
        x = leaf([1.5])
        backward(T.sum_all(T.mul(x, x)))
        assert np.allclose(x.grad, [3.0])

    def test_composed_mlp_nce_matches_finite_differences(self):
        # end-to-end graph through linear layers, relu and the LSE-based loss
        s = Stream(17, "mlp")
        w1, b1 = leaf(s.normal((4, 5))), leaf(s.normal(5))
        w2, b2 = leaf(s.normal((5, 3))), leaf(s.normal(3))
        x = Tensor(s.normal((6, 4)))

        def forward():
            h = T.relu(T.add_rowvec(T.matmul(x, w1), b1))
            z = T.l2_normalize_rows(T.add_rowvec(T.matmul(h, w2), b2))
            sims = T.scale(T.matmul(z, T.transpose(z)), 1.0 / 0.3)
            return T.sub(T.logsumexp_all(sims), T.logsumexp_all(T.diag_part(sims)))

        assert max_rel_err([w1, b1, w2, b2], forward) < 1e-4


@pytest.mark.filterwarnings("ignore:overflow")
class TestNumericGuards:
    def test_exp_overflow_is_an_error(self):
        with pytest.raises(NumericError):
            T.exp(Tensor([800.0]))

    def test_log_non_positive_is_an_error(self):
        with pytest.raises(NumericError):
            T.log(Tensor([0.0, 1.0]))

    def test_matmul_overflow_is_an_error(self):
        big = Tensor(np.full((2, 2), 1e300))
        with pytest.raises(NumericError):
            T.matmul(big, big)


class TestStructuralOps:
    def test_stack_rows_roundtrip(self):
        rows = [Tensor([1.0, 2.0]), Tensor([3.0, 4.0])]
        assert np.array_equal(T.stack_rows(rows).data, [[1.0, 2.0], [3.0, 4.0]])

    def test_concat_then_slice(self):
        a, b = Tensor([[1.0], [2.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]])
        cat = T.concat_cols([a, b])
        assert np.array_equal(T.slice_cols(cat, 1, 3).data, b.data)

    def test_gather_scatter_inverse(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        g = T.gather_rows(x, [2, 0])
        sc = T.scatter_rows(g, [2, 0], 4)
        assert np.array_equal(sc.data[[0, 2]], x.data[[0, 2]])
        assert np.array_equal(sc.data[[1, 3]], np.zeros((2, 3)))

    def test_gather_repeated_rows_accumulate_gradient(self):
        x = leaf(np.ones((3, 2)))
        backward(T.sum_all(T.gather_rows(x, [1, 1, 0])))
        assert np.array_equal(x.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])

    def test_scatter_duplicate_targets_rejected(self):
        with pytest.raises(ShapeError):
            T.scatter_rows(Tensor(np.ones((2, 2))), [1, 1], 4)

    def test_diag_part(self):
        x = Tensor(np.arange(9.0).reshape(3, 3))
        assert np.array_equal(T.diag_part(x).data, [0.0, 4.0, 8.0])

    def test_logsumexp_matches_naive(self):
        x = Stream(5, "lse").normal((3, 4))
        got = T.logsumexp_all(Tensor(x)).item()
        assert abs(got - np.log(np.exp(x).sum())) < 1e-12

    def test_mean_axis0(self):
        x = Tensor([[1.0, 3.0], [3.0, 1.0]])
        assert np.array_equal(T.mean_axis0(x).data, [2.0, 2.0])


class TestStackedOps:
    """Row-structured ops on a [B, n, d] stack give, per stacked matrix, the
    bits of the same op on that matrix alone."""

    X = Stream(31, "stacked").normal((3, 4, 6))
    Y = Stream(32, "stacked").normal((3, 6, 4))
    W = Stream(33, "stacked").normal((6, 5))
    V = Stream(34, "stacked").normal(6)
    SQUARE = [Stream(35, "stacked", i).normal(sh) for i in range(4) for sh in ((6, 6), (6,))]

    CASES = {
        "matmul-shared": lambda x, y: T.matmul(x, Tensor(TestStackedOps.W)),
        "matmul-batched": lambda x, y: T.matmul(x, y),
        "transpose": lambda x, y: T.transpose(x),
        "add_rowvec": lambda x, y: T.add_rowvec(x, Tensor(TestStackedOps.V)),
        "linear": lambda x, y: T.linear(x, Tensor(TestStackedOps.W),
                                        Tensor(TestStackedOps.V[:5])),
        "linear_relu": lambda x, y: T.linear_relu(x, Tensor(TestStackedOps.W),
                                                  Tensor(TestStackedOps.V[:5])),
        "attention_sublayer": lambda x, y: T.attention_sublayer(
            x, *(Tensor(a) for a in TestStackedOps.SQUARE), Tensor(TestStackedOps.V + 1.5),
            Tensor(TestStackedOps.V), 2),
        "feedforward_sublayer": lambda x, y: T.feedforward_sublayer(
            x, Tensor(TestStackedOps.W), Tensor(TestStackedOps.V[:5]), Tensor(TestStackedOps.W.T),
            Tensor(TestStackedOps.V), Tensor(TestStackedOps.V + 1.5), Tensor(TestStackedOps.V)),
        "add_const": lambda x, y: T.add_const(x, TestStackedOps.X[0]),
        "mean_axis0": lambda x, y: T.mean_axis0(x),
        "softmax_rows": lambda x, y: T.softmax_rows(x),
        "layer_norm_rows": lambda x, y: T.layer_norm_rows(
            x, Tensor(TestStackedOps.V + 1.5), Tensor(TestStackedOps.V)),
        "slice_cols": lambda x, y: T.slice_cols(x, 1, 4),
        "concat_cols": lambda x, y: T.concat_cols([x, T.slice_cols(x, 0, 2)]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stack_equals_per_matrix(self, name):
        op = self.CASES[name]
        stacked = op(Tensor(self.X), Tensor(self.Y)).data
        for b in range(self.X.shape[0]):
            alone = op(Tensor(self.X[b]), Tensor(self.Y[b])).data
            assert stacked[b].tobytes() == alone.tobytes()

    def test_matmul_leading_dims_must_agree(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(self.X), Tensor(self.Y[:2]))
        with pytest.raises(ShapeError):
            T.matmul(Tensor(self.W), Tensor(self.Y))  # a 2-D left operand is not broadcast

    def test_concat_leading_dims_must_agree(self):
        with pytest.raises(ShapeError):
            T.concat_cols([Tensor(self.X), Tensor(self.X[:2])])


class TestEveryOpGradient:
    """Invariant: all differentiable ops match finite differences."""

    def test_all_registered_ops(self):
        from trimodal.gradcheck import OP_CASES
        for name, builder in OP_CASES.items():
            worst = 0.0
            for k in range(3):
                leaves, forward = builder(Stream(101, name, k))
                worst = max(worst, max_rel_err(leaves, forward))
            assert worst < 1e-4, f"{name}: {worst:.2e}"


class TestNoGrad:
    def test_values_bitwise_equal_to_recorded_forward(self):
        _, forward = end_to_end_case(4)
        recorded = forward()
        assert recorded.requires_grad
        with T.no_grad():
            plain = forward()
        assert plain.data.tobytes() == recorded.data.tobytes()

    def test_nodes_carry_no_graph(self):
        a, b = leaf([[1.0, 2.0]]), leaf([[3.0], [4.0]])
        with T.no_grad():
            out = T.sum_all(T.relu(T.matmul(a, b)))
        assert out.requires_grad is False
        assert out._parents == () and out._backward is None
        backward(out)
        assert a.grad is None and b.grad is None

    def test_mode_restored_after_exception(self):
        x = leaf([1.0, 2.0])
        with pytest.raises(NumericError):
            with T.no_grad():
                with T.no_grad():
                    pass
                assert not T.mul(x, x).requires_grad  # inner exit keeps outer mode
                T.log(T.neg(x))
        y = T.mul(x, x)
        assert y.requires_grad and y._parents == (x, x)
