"""Finite-difference verification of every differentiable op and of the full
composed training objective.

For each case we build a scalar loss from leaf tensors, read the analytic
gradients off one backward pass, then perturb every leaf element by +/-h
(central differences, h = 1e-5) and compare:

    rel_err = |analytic - fd| / max(1, |fd|)

All cases must stay below 1e-4. Inputs are kept away from kinks (ReLU at 0)
so the difference quotient is well defined.

The perturbed forwards run under `tensor.no_grad()`, since they need values
only. `run_all` spreads its independent cases (one per op, one per
end-to-end instance) over worker processes, one per usable CPU.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import tensor as T
from .data import Sample
from .encoders import EncoderStack
from .losses import LossConfig, compute_centroids, loss_total
from .rng import Stream
from .tensor import Tensor, backward

TOLERANCE = 1e-4
STEP = 1e-5


def max_rel_err(leaves: list[Tensor], forward, h: float = STEP) -> float:
    """Worst elementwise relative error between analytic and FD gradients."""
    loss = forward()
    backward(loss)
    worst = 0.0
    for leaf in leaves:
        analytic = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad.copy()
        flat = leaf.data.reshape(-1)
        aflat = analytic.reshape(-1)
        with T.no_grad():
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = forward().item()
                flat[i] = keep - h
                down = forward().item()
                flat[i] = keep
                fd = (up - down) / (2.0 * h)
                err = abs(aflat[i] - fd) / max(1.0, abs(fd))
                if err > worst:
                    worst = err
        leaf.grad = None
    return worst


def _leaf(stream: Stream, shape, lo=-1.0, hi=1.0) -> Tensor:
    u = stream.uniform(shape)
    return Tensor(lo + (hi - lo) * u, requires_grad=True)


def _wsum(t: Tensor, stream: Stream) -> Tensor:
    """Weighted sum with fixed random weights: makes upstream grads non-constant."""
    w = Tensor(stream.uniform(t.shape) + 0.5)
    return T.sum_all(T.mul(t, w))


def _sum2(x: Tensor, y: Tensor) -> Tensor:
    """Two cases' weighted sums added: the 2-D instance and a stacked one."""
    return T.add(_wsum(x, Stream(7, "w")), _wsum(y, Stream(7, "w", "stacked")))


def _case_matmul(s):
    # 2-D; then a 2-D weight shared across a stack, and two equal stacks
    a, b = _leaf(s, (4, 5)), _leaf(s, (5, 3))
    sa, sb, sw = _leaf(s, (2, 2, 3)), _leaf(s, (2, 3, 2)), _leaf(s, (3, 2))
    return [a, b, sa, sb, sw], lambda: T.add(
        _sum2(T.matmul(a, b), T.matmul(sa, sw)), _wsum(T.matmul(sa, sb), Stream(7, "w", "b")))


def _case_add(s):
    a, b = _leaf(s, (3, 4)), _leaf(s, (3, 4))
    return [a, b], lambda: _wsum(T.add(a, b), Stream(7, "w"))


def _case_sub(s):
    a, b = _leaf(s, (3, 4)), _leaf(s, (3, 4))
    return [a, b], lambda: _wsum(T.sub(a, b), Stream(7, "w"))


def _case_mul(s):
    a, b = _leaf(s, (3, 4)), _leaf(s, (3, 4))
    return [a, b], lambda: _wsum(T.mul(a, b), Stream(7, "w"))


def _case_neg(s):
    a = _leaf(s, (3, 4))
    return [a], lambda: _wsum(T.neg(a), Stream(7, "w"))


def _case_scale(s):
    a = _leaf(s, (3, 4))
    return [a], lambda: _wsum(T.scale(a, 0.37), Stream(7, "w"))


def _case_add_scalar(s):
    a = _leaf(s, (3, 4))
    return [a], lambda: _wsum(T.add_scalar(a, 1.25), Stream(7, "w"))


def _case_relu(s):
    raw = s.uniform((4, 5)) * 2.0 - 1.0
    raw = np.where(np.abs(raw) < 0.05, 0.2, raw)  # keep FD away from the kink
    a = Tensor(raw, requires_grad=True)
    return [a], lambda: _wsum(T.relu(a), Stream(7, "w"))


def _case_exp(s):
    a = _leaf(s, (3, 4), -1.5, 1.5)
    return [a], lambda: _wsum(T.exp(a), Stream(7, "w"))


def _case_log(s):
    a = _leaf(s, (3, 4), 0.2, 3.0)
    return [a], lambda: _wsum(T.log(a), Stream(7, "w"))


def _case_transpose(s):
    a, sa = _leaf(s, (3, 5)), _leaf(s, (2, 2, 3))
    return [a, sa], lambda: _sum2(T.transpose(a), T.transpose(sa))


def _case_dot(s):
    a, b = _leaf(s, (6,)), _leaf(s, (6,))
    return [a, b], lambda: T.dot(a, b)


def _case_add_rowvec(s):
    x, b, sx = _leaf(s, (4, 3)), _leaf(s, (3,)), _leaf(s, (2, 2, 3))
    return [x, b, sx], lambda: _sum2(T.add_rowvec(x, b), T.add_rowvec(sx, b))


def _case_linear(s):
    x, W, b, sx = _leaf(s, (4, 3)), _leaf(s, (3, 2)), _leaf(s, (2,)), _leaf(s, (2, 2, 3))
    return [x, W, b, sx], lambda: _sum2(T.linear(x, W, b), T.linear(sx, W, b))


def _off_kink_bias(s, products) -> np.ndarray:
    """A bias that keeps every pre-activation `product + bias` 0.05 or more
    from the ReLU's kink, for `[..., m]` products."""
    pre = np.concatenate([p.reshape(-1, p.shape[-1]) for p in products])
    bias = s.uniform(pre.shape[1]) * 2.0 - 1.0
    for j in range(pre.shape[1]):
        while np.abs(pre[:, j] + bias[j]).min() < 0.05:
            bias[j] += 0.1
    return bias


def _case_linear_relu(s):
    x, W, sx = _leaf(s, (4, 3)), _leaf(s, (3, 2)), _leaf(s, (2, 2, 3))
    b = Tensor(_off_kink_bias(s, [x.data @ W.data, sx.data @ W.data]), requires_grad=True)
    return [x, W, b, sx], lambda: _sum2(T.linear_relu(x, W, b), T.linear_relu(sx, W, b))


def _case_attention_sublayer(s):
    # LN(x + MHA(x) Wo + bo), 2 heads of width 2, on a [3, 4] sample and a [2, 2, 4] stack
    x, sx = _leaf(s, (3, 4)), _leaf(s, (2, 2, 4))
    params = [_leaf(s, shape) for _ in range(4) for shape in ((4, 4), (4,))]
    gamma, beta = _leaf(s, (4,), 0.5, 1.5), _leaf(s, (4,), -0.5, 0.5)
    return [x, sx, *params, gamma, beta], lambda: _sum2(
        T.attention_sublayer(x, *params, gamma, beta, 2),
        T.attention_sublayer(sx, *params, gamma, beta, 2))


def _case_feedforward_sublayer(s):
    # LN(x + relu(x W1 + b1) W2 + b2) on a [3, 3] sample and a [2, 2, 3] stack, d_ff 4
    x, W1, sx = _leaf(s, (3, 3)), _leaf(s, (3, 4)), _leaf(s, (2, 2, 3))
    W2, b2 = _leaf(s, (4, 3)), _leaf(s, (3,))
    gamma, beta = _leaf(s, (3,), 0.5, 1.5), _leaf(s, (3,), -0.5, 0.5)
    b1 = Tensor(_off_kink_bias(s, [x.data @ W1.data, sx.data @ W1.data]), requires_grad=True)
    return [x, W1, b1, W2, b2, gamma, beta, sx], lambda: _sum2(
        T.feedforward_sublayer(x, W1, b1, W2, b2, gamma, beta),
        T.feedforward_sublayer(sx, W1, b1, W2, b2, gamma, beta))


def _case_add_const(s):
    a, sa, c = _leaf(s, (3, 4)), _leaf(s, (2, 3, 4)), s.uniform((3, 4))
    return [a, sa], lambda: _sum2(T.add_const(a, c), T.add_const(sa, c))


def _case_attention(s):
    # 2 heads: of width 2 on a [3, 4] sample, of width 1 on a [2, 3, 2] stack
    q, k, v = _leaf(s, (3, 4)), _leaf(s, (3, 4)), _leaf(s, (3, 4))
    sq, sk, sv = _leaf(s, (2, 3, 2)), _leaf(s, (2, 3, 2)), _leaf(s, (2, 3, 2))
    return [q, k, v, sq, sk, sv], lambda: _sum2(T.attention(q, k, v, 2),
                                                T.attention(sq, sk, sv, 2))


def _case_sum_all(s):
    a = _leaf(s, (3, 4))
    return [a], lambda: T.sum_all(a)


def _case_mean_axis0(s):
    a, sa = _leaf(s, (5, 3)), _leaf(s, (2, 3, 2))
    return [a, sa], lambda: _sum2(T.mean_axis0(a), T.mean_axis0(sa))


def _case_logsumexp_all(s):
    a = _leaf(s, (3, 4), -2.0, 2.0)
    return [a], lambda: T.logsumexp_all(a)


def _case_stack_rows(s):
    rows = [_leaf(s, (4,)) for _ in range(3)]
    return rows, lambda: _wsum(T.stack_rows(rows), Stream(7, "w"))


def _case_concat_cols(s):
    parts = [_leaf(s, (3, 2)), _leaf(s, (3, 4)), _leaf(s, (3, 1))]
    stacked = [_leaf(s, (2, 2, 1)), _leaf(s, (2, 2, 2))]
    return parts + stacked, lambda: _sum2(T.concat_cols(parts), T.concat_cols(stacked))


def _case_slice_cols(s):
    a, sa = _leaf(s, (3, 6)), _leaf(s, (2, 2, 3))
    return [a, sa], lambda: _sum2(T.slice_cols(a, 1, 4), T.slice_cols(sa, 1, 3))


def _case_gather_rows(s):
    a = _leaf(s, (5, 3))
    idx = [0, 2, 2, 4]  # repeated row exercises the scatter-add
    return [a], lambda: _wsum(T.gather_rows(a, idx), Stream(7, "w"))


def _case_scatter_rows(s):
    a = _leaf(s, (3, 4))
    return [a], lambda: _wsum(T.scatter_rows(a, [4, 0, 2], 6), Stream(7, "w"))


def _case_diag_part(s):
    a = _leaf(s, (4, 4))
    return [a], lambda: _wsum(T.diag_part(a), Stream(7, "w1"))


def _case_softmax_rows(s):
    a, sa = _leaf(s, (4, 6), -2.0, 2.0), _leaf(s, (2, 2, 3), -2.0, 2.0)
    return [a, sa], lambda: _sum2(T.softmax_rows(a), T.softmax_rows(sa))


def _case_l2_normalize_rows(s):
    raw = s.uniform((4, 5)) + 0.5  # rows bounded away from zero norm
    a = Tensor(raw, requires_grad=True)
    return [a], lambda: _wsum(T.l2_normalize_rows(a), Stream(7, "w"))


def _case_layer_norm_rows(s):
    x = _leaf(s, (4, 6), -2.0, 2.0)
    gamma = _leaf(s, (6,), 0.5, 1.5)
    beta = _leaf(s, (6,), -0.5, 0.5)
    sx = _leaf(s, (2, 2, 3), -2.0, 2.0)
    sgamma = _leaf(s, (3,), 0.5, 1.5)
    sbeta = _leaf(s, (3,), -0.5, 0.5)
    return [x, gamma, beta, sx, sgamma, sbeta], lambda: _sum2(
        T.layer_norm_rows(x, gamma, beta), T.layer_norm_rows(sx, sgamma, sbeta))


def _case_cross_entropy_rows(s):
    logits = _leaf(s, (5, 4), -2.0, 2.0)
    labels = s.integers(5, 4)
    return [logits], lambda: T.cross_entropy_rows(logits, labels)


OP_CASES = {
    "add": _case_add, "sub": _case_sub, "mul": _case_mul, "neg": _case_neg,
    "scale": _case_scale, "add_scalar": _case_add_scalar, "relu": _case_relu,
    "exp": _case_exp, "log": _case_log, "matmul": _case_matmul,
    "transpose": _case_transpose, "dot": _case_dot, "linear": _case_linear,
    "linear_relu": _case_linear_relu, "add_const": _case_add_const,
    "add_rowvec": _case_add_rowvec, "attention": _case_attention,
    "attention_sublayer": _case_attention_sublayer,
    "feedforward_sublayer": _case_feedforward_sublayer,
    "sum_all": _case_sum_all, "mean_axis0": _case_mean_axis0,
    "logsumexp_all": _case_logsumexp_all, "stack_rows": _case_stack_rows,
    "concat_cols": _case_concat_cols, "slice_cols": _case_slice_cols,
    "gather_rows": _case_gather_rows, "scatter_rows": _case_scatter_rows,
    "diag_part": _case_diag_part, "softmax_rows": _case_softmax_rows,
    "l2_normalize_rows": _case_l2_normalize_rows,
    "layer_norm_rows": _case_layer_norm_rows,
    "cross_entropy_rows": _case_cross_entropy_rows,
}


def tiny_training_setup(seed: int):
    """A miniature encoder stack plus one mixed-availability batch of samples."""
    stack = EncoderStack(d_video_raw=3, d_audio_raw=3, vocab=6, d_model=4,
                         n_heads=1, n_layers=1, d_ff=4, d_proj=3,
                         audio_hidden=4, max_text_len=16, seed=seed)
    s = Stream(seed, "batch")
    samples = []
    for i in range(3):
        video = s.normal((2, 3))
        audio = s.normal((2, 3)) if i != 1 else None       # sample 1: no audio
        text = s.integers(2, 6) if i != 2 else None        # sample 2: no text
        samples.append(Sample(f"g{i}", i % 2, video, audio, text))
    return stack, samples


def end_to_end_case(seed: int):
    stack, batch = tiny_training_setup(seed)
    cfg = LossConfig(tau=0.2)
    leaves = [p for _, p in stack.parameters()]

    def forward():
        emb = stack.embed_batch(batch)
        cents = compute_centroids(emb)
        return loss_total(emb, cents, cfg).total

    return leaves, forward


def _op_case(name: str, seed: int, k: int):
    return OP_CASES[name](Stream(seed, "case", name, k))


def _worst_err(build, arg_lists: list[tuple], corrupt: tuple[str, float] | None) -> float:
    """Worst error over the cases `build(*args)`. Runs in a worker process,
    which sets and clears its own copy of the fault hook."""
    if corrupt is not None:
        T._GRAD_FAULTS[corrupt[0]] = corrupt[1]
    try:
        worst = 0.0
        for args in arg_lists:
            worst = max(worst, max_rel_err(*build(*args)))
        return worst
    finally:
        T._GRAD_FAULTS.clear()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_all(seed: int = 0, instances: int = 20, end_to_end_instances: int | None = None,
            corrupt: tuple[str, float] | None = None) -> dict:
    """Run every op case and the composed objective; return a JSON-able report.

    `corrupt=(op, factor)` scales that op's backward output during the run,
    demonstrating that a broken gradient rule is detected. The fault is set
    inside the worker processes only; this process's hook is never touched.

    Cases run in a pool of spawned workers, one per CPU this process may use
    (at most one per case), and every worker has exited when this returns.
    Each reported value is a max over the same per-case errors as a serial
    run, so the report does not depend on the worker count.
    """
    if end_to_end_instances is None:
        end_to_end_instances = instances
    names = sorted(OP_CASES)
    workers = min(_usable_cpus(), len(names) + end_to_end_instances)
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        try:
            # The end-to-end instances are the slow cases: queue them first.
            e2e_futures = [pool.submit(_worst_err, end_to_end_case, [(seed + k,)], corrupt)
                           for k in range(end_to_end_instances)]
            op_futures = {name: pool.submit(_worst_err, _op_case,
                                            [(name, seed, k) for k in range(instances)], corrupt)
                          for name in names}
            e2e = max([0.0] + [f.result() for f in e2e_futures])
            ops = {name: f.result() for name, f in op_futures.items()}
        except BaseException:
            pool.shutdown(cancel_futures=True)  # do not wait for the queued cases
            raise
    worst_overall = max(max(ops.values()), e2e)
    return {
        "ops": ops,
        "end_to_end": e2e,
        "worst": worst_overall,
        "tolerance": TOLERANCE,
        "pass": bool(worst_overall < TOLERANCE),
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
