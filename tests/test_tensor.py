"""Numeric core: op semantics, gradient rules, graph discipline."""

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

    CASES = {
        "matmul-shared": lambda x, y: T.matmul(x, Tensor(TestStackedOps.W)),
        "matmul-batched": lambda x, y: T.matmul(x, y),
        "transpose": lambda x, y: T.transpose(x),
        "add_rowvec": lambda x, y: T.add_rowvec(x, Tensor(TestStackedOps.V)),
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
