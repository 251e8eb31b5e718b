"""Adam and the cosine learning-rate schedule."""

import numpy as np
import pytest

from trimodal.errors import NumericError
from trimodal.optim import Adam, CosineSchedule
from trimodal.rng import Stream
from trimodal.tensor import Tensor


class TestCosineSchedule:
    def test_starts_at_lr_max(self):
        sched = CosineSchedule(lr_max=1e-5, lr_min=0.0, total_steps=100)
        assert sched.lr_at(0) == 1e-5

    def test_ends_at_lr_min(self):
        sched = CosineSchedule(lr_max=1e-3, lr_min=1e-5, total_steps=100)
        assert sched.lr_at(100) == 1e-5

    def test_midpoint(self):
        sched = CosineSchedule(lr_max=2e-3, lr_min=0.0, total_steps=100)
        assert abs(sched.lr_at(50) - 1e-3) < 1e-18

    def test_clamps_beyond_horizon(self):
        sched = CosineSchedule(lr_max=1e-3, lr_min=1e-6, total_steps=10)
        assert sched.lr_at(10_000) == 1e-6

    def test_monotone_non_increasing(self):
        sched = CosineSchedule(lr_max=1e-2, lr_min=1e-4, total_steps=200)
        lrs = [sched.lr_at(t) for t in range(201)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_warmup_ramps_then_decays(self):
        sched = CosineSchedule(lr_max=1e-3, lr_min=0.0, total_steps=100, warmup_steps=10)
        ramp = [sched.lr_at(t) for t in range(10)]
        assert all(a < b for a, b in zip(ramp, ramp[1:]))
        assert sched.lr_at(10) == 1e-3
        assert sched.lr_at(100) == 0.0

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            CosineSchedule(lr_max=1e-5, lr_min=1e-3, total_steps=10)
        with pytest.raises(ValueError):
            CosineSchedule(total_steps=0)


def param(shape, seed, name="p"):
    return name, Tensor(Stream(seed, name).normal(shape), requires_grad=True)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        name, p = param((3,), 1)
        p.grad = np.array([0.5, -2.0, 1e-3])
        before = p.data.copy()
        Adam([(name, p)]).step(lr=0.01)
        delta = p.data - before
        assert np.allclose(delta, -0.01 * np.sign(p.grad), rtol=1e-4)

    def test_zero_grad_leaves_parameters_unchanged(self):
        name, p = param((4,), 2)
        p.grad = np.zeros(4)
        before = p.data.copy()
        Adam([(name, p)]).step(lr=0.1)
        assert np.array_equal(p.data, before)

    def test_missing_grad_parameter_skipped(self):
        n1, p1 = param((2,), 3, "a")
        n2, p2 = param((2,), 4, "b")
        p1.grad = np.ones(2)
        before = p2.data.copy()
        Adam([(n1, p1), (n2, p2)]).step(lr=0.01)
        assert np.array_equal(p2.data, before)
        assert not np.array_equal(p1.data, Stream(3, "a").normal((2,)))

    def test_all_grads_missing_is_an_error(self):
        name, p = param((2,), 5)
        with pytest.raises(NumericError):
            Adam([(name, p)]).step(lr=0.01)

    def test_nan_grad_aborts_without_touching_parameters(self):
        name, p = param((2,), 6)
        p.grad = np.array([1.0, float("nan")])
        before = p.data.copy()
        adam = Adam([(name, p)])
        with pytest.raises(NumericError, match=name):
            adam.step(lr=0.01)
        assert np.array_equal(p.data, before)
        assert adam.t == 0

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf")], ids=["+inf", "-inf"])
    def test_inf_grad_aborts_without_touching_parameters(self, bad):
        name, p = param((3,), 6)
        p.grad = np.array([1.0, bad, -2.0])
        before = p.data.tobytes()
        adam = Adam([(name, p)])
        with pytest.raises(NumericError, match=name):
            adam.step(lr=0.01)
        assert p.data.tobytes() == before
        assert adam.t == 0

    def test_finite_grad_whose_sum_of_squares_overflows_steps(self):
        # each square (1e308) is finite, their sum is not: the one-pass
        # screen overflows (silently) and the precise re-check clears it
        name, p = param((4,), 13)
        p.grad = np.array([1e154, -1e154, 1e154, 1e154])
        assert not np.isfinite(np.vdot(p.grad, p.grad))
        before = p.data.copy()
        adam = Adam([(name, p)])
        adam.step(lr=0.01)  # a numpy RuntimeWarning would fail here
        assert adam.t == 1
        assert np.allclose(p.data - before, -0.01 * np.sign(p.grad), rtol=1e-4)

    @pytest.mark.parametrize("errstate", [{}, {"over": "ignore"}], ids=["plain", "over-ignored"])
    def test_grad_whose_square_overflows_aborts(self, errstate):
        # an entry above sqrt(float max) (~1.34e154) would set v = inf and
        # freeze its parameter for good; no parameter or state may move
        n1, p1 = param((3,), 14, "a")
        n2, p2 = param((2,), 15, "b")
        adam = Adam([(n1, p1), (n2, p2)])
        p1.grad, p2.grad = np.array([0.5, -0.25, 1.0]), np.array([2.0, -1.0])
        adam.step(lr=0.01)

        def state():
            return ([p.data.tobytes() for p in (p1, p2)], adam.t,
                    [adam.m[n].tobytes() + adam.v[n].tobytes() for n in (n1, n2)])

        before = state()
        p1.grad, p2.grad = np.array([0.5, -0.25, 1.0]), np.array([1e200, -1e200])
        with np.errstate(**errstate), pytest.raises(NumericError, match=n2):
            adam.step(lr=0.01)
        assert state() == before

    def test_matches_scalar_loop_reference(self):
        """Vectorized update equals a literal per-element Adam over 100 steps."""
        name, p = param((5, 3), 7)
        ref = p.data.copy().reshape(-1)
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        adam = Adam([(name, p)], beta1=0.9, beta2=0.999, eps=1e-8)
        g_stream = Stream(8, "grads")
        for t in range(1, 101):
            g = g_stream.normal(p.data.shape)
            p.grad = g.copy()
            adam.step(lr=3e-3)
            gf = g.reshape(-1)
            for i in range(ref.size):
                m[i] = 0.9 * m[i] + 0.1 * gf[i]
                v[i] = 0.999 * v[i] + 0.001 * gf[i] * gf[i]
                mhat = m[i] / (1 - 0.9 ** t)
                vhat = v[i] / (1 - 0.999 ** t)
                ref[i] -= 3e-3 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.abs(p.data.reshape(-1) - ref).max() < 1e-12

    def test_elementwise_independence_under_permutation(self):
        name, p = param((6,), 9)
        g = Stream(10).normal(6)
        perm = Stream(11).permutation(6)

        pa = Tensor(p.data.copy(), requires_grad=True)
        pa.grad = g.copy()
        Adam([("a", pa)]).step(lr=0.01)

        pb = Tensor(p.data[perm], requires_grad=True)
        pb.grad = g[perm].copy()
        Adam([("b", pb)]).step(lr=0.01)

        assert np.array_equal(pa.data[perm], pb.data)

    def test_grad_clip(self):
        name, p = param((3,), 12)
        p.grad = np.array([30.0, 40.0, 0.0])  # norm 50
        adam = Adam([(name, p)], grad_clip=5.0)
        before = p.data.copy()
        adam.step(lr=0.01)
        # clip rescales the gradient; direction of the first step is preserved
        delta = p.data - before
        assert delta[2] == 0.0 and delta[0] < 0 and delta[1] < 0
