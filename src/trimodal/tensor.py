"""Dense float64 tensors with define-by-run reverse-mode differentiation.

Every value in the package lives in a `Tensor`. Ops are plain functions that
compute the forward result with numpy and attach a closure producing the
parent gradients; `backward` walks the recorded graph in reverse topological
order. Graphs are rebuilt each step and never cached.

Row-structured ops (`matmul`, `linear`, `linear_relu`, `attention`,
`attention_sublayer`, `feedforward_sublayer`, `transpose`, `add_rowvec`,
`add_const`, `mean_axis0`, `softmax_rows`, `layer_norm_rows`, `slice_cols`,
`concat_cols`) act on the last axis, or the last two, of a `[..., T, d]`
array: a leading batch axis stacks independent samples, and every sample's
values are bitwise those of the same op on its own `[T, d]` matrix.

`linear`, `linear_relu`, `attention`, `attention_sublayer` and
`feedforward_sublayer` are composite nodes: each gives the bits of the small
graph it stands for (`matmul` then `add_rowvec`; `linear` then `relu`;
per-head `slice_cols`, `matmul`, `transpose`, `scale`, `softmax_rows` and
`concat_cols`; a post-norm transformer sublayer of `linear`, `attention` or
`relu`, `add` and `layer_norm_rows` nodes), with the same numpy expressions
forward and backward, and keeps only its output and what its backward
cannot cheaply rebuild: the attention probabilities and a norm's scaled rows
and scales. Everything else (head splits, q, k, v, the heads' output, the
ReLU hidden) is rebuilt in backward from the node's parents. The small graph
summed an inner node's gradient into a zero-filled buffer of `backward`;
skipping that sum can change only the sign of a zero, in it and in what is
computed from it, and `backward` sums every gradient a node returns into
such a buffer, where -0.0 becomes +0.0. A composite node still makes that
sum (`_summed`) where the inner gradient is a strided view, and adds
gradients for one input in the order `backward` did, so every gradient
keeps its bits. The model builds its layers from these nodes and
`add_const`; `add`, `relu`, `layer_norm_rows`, `add_rowvec`, `slice_cols`,
`concat_cols` and `attention` remain as ops of their own, with
gradient-check cases, but no layer calls them.

Design constraints honoured throughout:
  * float64 only, row-major storage;
  * no broadcasting except bias addition over rows (`linear`, `add_rowvec`),
    a 2-D weight shared across a stack (`linear`, `matmul`) and a constant
    `[T, d]` table added to every sample of a stack (`add_const`);
  * any NaN/Inf appearing at an op boundary raises `NumericError` instead of
    propagating;
  * single-threaded execution per graph, bitwise deterministic.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DegenerateVectorError, GraphError, NumericError, ShapeError

# Test hook: map op name -> scale factor applied to that op's parent
# gradients during backward. Lets the gradient-check harness prove it can
# detect a corrupted gradient rule. Empty in normal operation.
_GRAD_FAULTS: dict[str, float] = {}

# False inside `no_grad()`: `_node` then records no graph linkage.
_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Evaluate ops without recording a graph.

    Values are bitwise the same as with recording on; every op result is a
    constant (no parents, `requires_grad` False), so nothing inside the block
    can be differentiated. The previous mode is restored on exit, also when
    the block raises.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def all_finite(arr: np.ndarray) -> bool:
    """Whether every element is finite, screened in one pass.

    The sum of squares `vdot(arr, arr)` is non-finite if an element is, and
    otherwise only when it overflows, which the precise re-check clears.
    Squares never meet as +inf and -inf, and `np.vdot` (a BLAS dot) reads no
    floating-point error flags, so unlike a ufunc sum the screen emits no
    numpy RuntimeWarning."""
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


def _ensure_finite(arr: np.ndarray, op: str) -> np.ndarray:
    """`arr`, after `all_finite` screened it; run at every node."""
    if not all_finite(arr):
        raise NumericError(f"{op}: produced non-finite values")
    return arr


class Tensor:
    """A float64 array plus optional gradient buffer and graph linkage."""

    # `__weakref__` lets a caller check that a graph was freed without keeping it alive.
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op", "_consumed",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        # np.array keeps 0-d shapes (ascontiguousarray would promote to 1-d)
        # and copies, so a Tensor always owns its buffer.
        arr = np.array(data, dtype=np.float64, order="C")
        _ensure_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None
        self._op = "leaf"
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{flag})"


def _node(arr: np.ndarray, parents: tuple[Tensor, ...], backward: Callable, op: str) -> Tensor:
    """Wrap an op result; prune the backward closure when no parent needs
    grads, or when recording is off (`no_grad`)."""
    _ensure_finite(arr, op)
    t = Tensor.__new__(Tensor)
    t.data = arr
    t.grad = None
    t._op = op
    t._consumed = False
    if _GRAD_ENABLED:
        for p in parents:
            if p.requires_grad:
                t.requires_grad = True
                t._parents = parents
                t._backward = backward
                return t
    t.requires_grad = False
    t._parents = ()
    t._backward = None
    return t


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, emit = stack.pop()
        if emit:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents precede children


def backward(loss: Tensor) -> None:
    """Populate `.grad` on every requires_grad leaf reachable from `loss`.

    `loss` must be scalar. A second call on the same root raises: the graph
    is single-shot and must be rebuilt before differentiating again.
    """
    if loss.shape != ():
        raise GraphError(f"backward root must be scalar, got shape {loss.shape}")
    if loss._consumed:
        raise GraphError("backward already ran on this graph; rebuild it first")
    loss._consumed = True
    if not loss.requires_grad:
        return
    order = _toposort(loss)
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node._backward is None:
            continue
        g = node.grad
        if g is None:  # branch never contributed to the root
            continue
        pgrads = node._backward(g)
        if _GRAD_FAULTS:
            fault = _GRAD_FAULTS.get(node._op)
            if fault is not None:
                pgrads = tuple(None if pg is None else pg * fault for pg in pgrads)
        for p, pg in zip(node._parents, pgrads):
            if pg is None or not p.requires_grad:
                continue
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            p.grad += pg
        node.grad = None  # free intermediate buffers


# ---------------------------------------------------------------------------
# elementwise / scalar ops
# ---------------------------------------------------------------------------

def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _node(a.data + b.data, (a, b), lambda g: (g, g), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _node(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    return _node(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data), "mul")


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,), "neg")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node(a.data * c, (a,), lambda g: (g * c,), "scale")


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node(a.data + c, (a,), lambda g: (g,), "add_scalar")


def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """`a[..., n, d] + c[n, d]` for a constant array shared across the stack:
    bitwise `add(a, Tensor(np.broadcast_to(c, a.shape)))`, without that copy."""
    if c.ndim < 2 or a.data.ndim < c.ndim or a.shape[-c.ndim:] != c.shape:
        raise ShapeError(f"add_const: {c.shape} does not end {a.shape}")
    return _node(a.data + c, (a,), lambda g: (g,), "add_const")


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _node(a.data * mask, (a,), lambda g: (g * mask,), "relu")


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,), "exp")


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise NumericError("log: non-positive input")
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,), "log")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _swap(x: np.ndarray) -> np.ndarray:
    """The last two axes swapped (`.T` of a matrix), as a view."""
    return x.swapaxes(-1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """`[..., n, k] @ [k, m]` with the weight shared across the stack, or
    `[..., n, k] @ [..., k, m]` with equal leading shapes: one product per
    stacked matrix, never one flattened product."""
    if a.data.ndim < 2 or b.data.ndim not in (2, a.data.ndim):
        raise ShapeError(f"matmul: operands must be [..., n, k] and [k, m] or [..., k, m], "
                         f"got {a.shape} and {b.shape}")
    if b.data.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: leading dims disagree ({a.shape} x {b.shape})")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree ({a.shape} x {b.shape})")
    return _node(a.data @ b.data, (a, b), lambda g: _matmul_grads(a.data, b.data, g), "matmul")


def _matmul_grads(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> tuple:
    """The gradients of `a @ b` for upstream `g`."""
    gb = _swap(a) @ g
    if gb.ndim > b.ndim:  # a shared weight sums its per-matrix gradients
        gb = gb.reshape(-1, *b.shape).sum(axis=0)
    return (g @ _swap(b), gb)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes of a `[..., n, m]` array."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: expected at least 2-D, got {a.shape}")
    return _node(
        np.ascontiguousarray(_swap(a.data)),
        (a,),
        lambda g: (np.ascontiguousarray(_swap(g)),),
        "transpose",
    )


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot: expected equal-length vectors, got {a.shape} and {b.shape}")
    return _node(
        np.asarray(a.data @ b.data),
        (a, b),
        lambda g: (g * b.data, g * a.data),
        "dot",
    )


def _check_product(x: np.ndarray, W: np.ndarray, b: np.ndarray, op: str) -> None:
    """Raise unless `x[..., n, k] @ W[k, m] + b[m]` is defined."""
    if (x.ndim < 2 or W.ndim != 2 or b.ndim != 1
            or x.shape[-1] != W.shape[0] or W.shape[1] != b.shape[0]):
        raise ShapeError(f"{op}: got {x.shape} @ {W.shape} + {b.shape}")


def _product(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`x @ W` with the bias `b` added into the product's own buffer: the
    forward of `linear` and of the nodes that fuse one."""
    out = x @ W
    out += b
    return out


def _product_grads(x: np.ndarray, W: np.ndarray, g: np.ndarray) -> tuple:
    """The gradients of `x @ W + b` for upstream `g`: `matmul`'s, then
    `add_rowvec`'s bias sum."""
    return (*_matmul_grads(x, W, g), g.reshape(-1, W.shape[1]).sum(axis=0))


def _summed(g: np.ndarray) -> np.ndarray:
    """`g` summed into a zero-filled buffer, as `backward` sums the gradient
    of a node: a contiguous copy in which -0.0 is +0.0. A composite node
    does this to an inner gradient that is a strided view before a product
    reads it, since a product of a strided operand can differ in its last
    bit."""
    buf = np.zeros(g.shape)
    buf += g
    return buf


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """`x[..., n, k] @ W[k, m] + b[m]` as one node: bitwise
    `add_rowvec(matmul(x, W), b)`, with the bias added into the product's
    own buffer. The backward is those two ops' backward expressions."""
    _check_product(x.data, W.data, b.data, "linear")
    out = _product(x.data, W.data, b.data)
    return _node(out, (x, W, b), lambda g: _product_grads(x.data, W.data, g), "linear")


def linear_relu(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """`relu(linear(x, W, b))` as one node, bitwise, forward and backward.

    It keeps only its output: the mask is `out > 0`, which holds exactly
    where the pre-activation was positive (a masked entry is +0.0 or -0.0).
    The pre-activation is screened before masking, as the `linear` node
    screened it."""
    _check_product(x.data, W.data, b.data, "linear_relu")
    out = _ensure_finite(_product(x.data, W.data, b.data), "linear_relu")
    out *= out > 0.0
    return _node(out, (x, W, b), lambda g: _product_grads(x.data, W.data, g * (out > 0.0)),
                 "linear_relu")


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """`[..., T, d]` -> a contiguous `[..., H, T, d/H]` copy; head h holds
    columns `h*d/H:(h+1)*d/H`."""
    *lead, t, d = x.shape
    return np.ascontiguousarray(x.reshape(*lead, t, n_heads, d // n_heads).swapaxes(-2, -3))


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """`[..., H, T, d_head]` -> `[..., T, H*d_head]`, the inverse of `_split_heads`."""
    *lead, h, t, d_head = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, t, h * d_head)


def _keys_t(k: np.ndarray, n_heads: int) -> np.ndarray:
    """The split keys' transposes `[..., H, d/H, T]`, each contiguous like a
    `transpose` node's value."""
    return np.ascontiguousarray(_swap(_split_heads(k, n_heads)))


def _attention_probs(q: np.ndarray, k: np.ndarray, n_heads: int, c: float) -> np.ndarray:
    """Every head's `softmax_rows(q_h k_h^T c)`, as `[..., H, T, T]`."""
    scores = _split_heads(q, n_heads) @ _keys_t(k, n_heads)
    scores *= c
    return _softmax_last(scores)


def _attention_grads(p: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     g: np.ndarray, n_heads: int, c: float) -> tuple:
    """The gradients of the concatenated heads `p_h v_h` for upstream `g`,
    with `p` from `_attention_probs(q, k, n_heads, c)`: q's, k's and v's."""
    gp, gv = _matmul_grads(p, _split_heads(v, n_heads), _split_heads(g, n_heads))
    gq, gkt = _matmul_grads(_split_heads(q, n_heads), _keys_t(k, n_heads),
                            _softmax_grad(p, gp) * c)
    return _merge_heads(gq), _merge_heads(_swap(gkt)), _merge_heads(gv)


def _check_heads(shape: tuple, n_heads: int, op: str) -> None:
    if len(shape) < 2 or n_heads < 1 or shape[-1] % n_heads:
        raise ShapeError(f"{op}: [..., T, d] inputs with d divisible by {n_heads} heads, "
                         f"got {shape}")


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Scaled dot-product attention of `[..., T, d]` queries, keys and values
    over `n_heads` heads of width d/H, as one node.

    Bitwise the per-head graph `matmul(softmax_rows(scale(matmul(q_h,
    transpose(k_h)), 1/sqrt(d/H))), v_h)` over column slices, concatenated:
    every head's products run on contiguous copies, as the slices were, and
    the backward is those ops' backward expressions. The closure keeps only
    the probabilities; the head splits are rebuilt from the inputs."""
    if k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention: q, k, v must share one shape, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    _check_heads(q.shape, n_heads, "attention")
    c = 1.0 / math.sqrt(q.shape[-1] // n_heads)
    p = _attention_probs(q.data, k.data, n_heads, c)
    return _node(_merge_heads(p @ _split_heads(v.data, n_heads)), (q, k, v),
                 lambda g: _attention_grads(p, q.data, k.data, v.data, g, n_heads, c),
                 "attention")


def _check_norm(d: int, gamma: Tensor, beta: Tensor, op: str) -> None:
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"{op}: gamma/beta must be [{d}], got {gamma.shape}, {beta.shape}")


def attention_sublayer(x: Tensor, Wq: Tensor, bq: Tensor, Wk: Tensor, bk: Tensor,
                       Wv: Tensor, bv: Tensor, Wo: Tensor, bo: Tensor, gamma: Tensor,
                       beta: Tensor, n_heads: int, eps: float = 1e-5) -> Tensor:
    """A post-norm self-attention sublayer `LN(x + MHA(x) Wo + bo)` over
    `n_heads` heads, as one node.

    Bitwise the graph `layer_norm_rows(add(x, linear(attention(linear(x, Wq,
    bq), linear(x, Wk, bk), linear(x, Wv, bv), n_heads), Wo, bo)), gamma,
    beta, eps)`, forward and backward, with that graph's non-finite screens
    (q, k, v, the heads' output and the residual sum). It keeps the `[...,
    H, T, T]` probabilities and the norm's `xhat` and `inv`. Backward
    rebuilds q, k, v and the heads' output from `x`, a parent; it sums q's,
    k's and v's gradients into zero-filled buffers before their products
    read them, as the graph did, and adds `x`'s four contributions in the
    graph's order (norm, q, k, v)."""
    op = "attention_sublayer"
    _check_heads(x.shape, n_heads, op)
    d = x.shape[-1]
    projections = ((Wq, bq), (Wk, bk), (Wv, bv))
    for W, b in (*projections, (Wo, bo)):
        if W.shape != (d, d) or b.shape != (d,):
            raise ShapeError(f"{op}: projections must be [{d}, {d}] + [{d}], "
                             f"got {W.shape} + {b.shape}")
    _check_norm(d, gamma, beta, op)
    c = 1.0 / math.sqrt(d // n_heads)
    q, k, v = (_ensure_finite(_product(x.data, W.data, b.data), op) for W, b in projections)
    p = _attention_probs(q, k, n_heads, c)
    s = _product(_ensure_finite(_merge_heads(p @ _split_heads(v, n_heads)), op),
                 Wo.data, bo.data)
    s += x.data
    xhat, inv = _standardize(_ensure_finite(s, op), eps)

    def back(g):
        dx, dgamma, dbeta = _standardize_grads(g, xhat, inv, gamma.data)
        qkv = [_product(x.data, W.data, b.data) for W, b in projections]
        heads = _merge_heads(p @ _split_heads(qkv[2], n_heads))
        dheads, dWo, dbo = _product_grads(heads, Wo.data, dx)
        grads = []
        for (W, _), ga in zip(projections, _attention_grads(p, *qkv, dheads, n_heads, c)):
            dxa, dW, db = _product_grads(x.data, W.data, _summed(ga))
            dx += dxa
            grads += [dW, db]
        return (dx, *grads, dWo, dbo, dgamma, dbeta)

    return _node(xhat * gamma.data + beta.data,
                 (x, Wq, bq, Wk, bk, Wv, bv, Wo, bo, gamma, beta), back, op)


def feedforward_sublayer(x: Tensor, W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor,
                         gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """A post-norm feed-forward sublayer `LN(x + relu(x W1 + b1) W2 + b2)`
    as one node.

    Bitwise the graph `layer_norm_rows(add(x, linear(linear_relu(x, W1, b1),
    W2, b2)), gamma, beta, eps)`, forward and backward, with that graph's
    non-finite screens (the pre-activation and the residual sum). It keeps
    the norm's `xhat` and `inv`; backward rebuilds the ReLU hidden from `x`,
    a parent, and its mask from the hidden, as `linear_relu` does."""
    op = "feedforward_sublayer"
    _check_product(x.data, W1.data, b1.data, op)
    d = x.shape[-1]
    if W2.shape != (W1.shape[1], d) or b2.shape != (d,):
        raise ShapeError(f"{op}: W2, b2 must be [{W1.shape[1]}, {d}], [{d}], "
                         f"got {W2.shape}, {b2.shape}")
    _check_norm(d, gamma, beta, op)
    hidden = _ensure_finite(_product(x.data, W1.data, b1.data), op)
    hidden *= hidden > 0.0
    s = _product(hidden, W2.data, b2.data)
    s += x.data
    xhat, inv = _standardize(_ensure_finite(s, op), eps)

    def back(g):
        dx, dgamma, dbeta = _standardize_grads(g, xhat, inv, gamma.data)
        hidden = _product(x.data, W1.data, b1.data)
        mask = hidden > 0.0
        hidden *= mask
        dhidden, dW2, db2 = _product_grads(hidden, W2.data, dx)
        dxh, dW1, db1 = _product_grads(x.data, W1.data, dhidden * mask)
        return (dx + dxh, dW1, db1, dW2, db2, dgamma, dbeta)

    return _node(xhat * gamma.data + beta.data, (x, W1, b1, W2, b2, gamma, beta), back, op)


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """`x[..., n, d] + b[d]`: a bias added to every row."""
    if x.data.ndim < 2 or b.data.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_rowvec: got {x.shape} and {b.shape}")
    return _node(
        x.data + b.data,
        (x, b),
        lambda g: (g, g.reshape(-1, b.shape[0]).sum(axis=0)),
        "add_rowvec",
    )


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_all(a: Tensor) -> Tensor:
    return _node(
        np.asarray(a.data.sum()),
        (a,),
        lambda g: (np.full_like(a.data, float(g)),),
        "sum_all",
    )


def mean_axis0(x: Tensor) -> Tensor:
    """Columnwise mean of each [n, d] matrix of a [..., n, d] array -> [..., d]."""
    if x.data.ndim < 2 or x.shape[-2] < 1:
        raise ShapeError(f"mean_axis0: expected non-empty [..., n, d], got {x.shape}")
    n = x.shape[-2]
    return _node(
        x.data.mean(axis=-2),
        (x,),
        lambda g: (np.repeat(np.expand_dims(g / n, -2), n, axis=-2),),
        "mean_axis0",
    )


def logsumexp_all(x: Tensor) -> Tensor:
    """log(sum(exp(x))) over every element, max-shifted for stability."""
    m = x.data.max()
    e = np.exp(x.data - m)
    s = e.sum()
    out = np.asarray(m + np.log(s))
    soft = e / s
    return _node(out, (x,), lambda g: (float(g) * soft,), "logsumexp_all")


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors of equal length into a [n, d] matrix."""
    if not rows:
        raise ShapeError("stack_rows: empty input")
    d = rows[0].shape
    for r in rows:
        if r.data.ndim != 1 or r.shape != d:
            raise ShapeError("stack_rows: rows must be 1-D and equal length")
    out = np.stack([r.data for r in rows], axis=0)
    return _node(
        out,
        tuple(rows),
        lambda g: tuple(g[i] for i in range(len(rows))),
        "stack_rows",
    )


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate [..., n, d_i] arrays along their last axis."""
    if not parts:
        raise ShapeError("concat_cols: empty input")
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.data.ndim < 2 or p.shape[:-1] != lead:
            raise ShapeError("concat_cols: parts must be at least 2-D with equal leading dims")
    widths = [p.shape[-1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def back(g):
        return tuple(g[..., offsets[i]:offsets[i + 1]] for i in range(len(widths)))

    return _node(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), back,
                 "concat_cols")


def slice_cols(x: Tensor, lo: int, hi: int) -> Tensor:
    """Columns `lo:hi` of a [..., n, d] array."""
    if x.data.ndim < 2 or not (0 <= lo < hi <= x.shape[-1]):
        raise ShapeError(f"slice_cols: [{lo}:{hi}] invalid for shape {x.shape}")

    def back(g):
        gx = np.zeros_like(x.data)
        gx[..., lo:hi] = g
        return (gx,)

    return _node(np.ascontiguousarray(x.data[..., lo:hi]), (x,), back, "slice_cols")


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows of a [n, d] matrix; gradient scatter-adds back."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows: expected 2-D, got {x.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("gather_rows: index list must be 1-D and non-empty")
    if idx.min() < 0 or idx.max() >= x.shape[0]:
        raise ShapeError(f"gather_rows: index out of range for {x.shape[0]} rows")

    def back(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _node(x.data[idx].copy(), (x,), back, "gather_rows")


def scatter_rows(x: Tensor, idx, n: int) -> Tensor:
    """Place the rows of a [k, d] matrix at positions `idx` of an [n, d] zero matrix."""
    if x.data.ndim != 2:
        raise ShapeError(f"scatter_rows: expected 2-D, got {x.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1 or idx.size != x.shape[0]:
        raise ShapeError("scatter_rows: need one target row per input row")
    if len(set(idx.tolist())) != idx.size:
        raise ShapeError("scatter_rows: duplicate target rows")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"scatter_rows: index out of range for {n} rows")
    out = np.zeros((n, x.shape[1]), dtype=np.float64)
    out[idx] = x.data
    return _node(out, (x,), lambda g: (g[idx].copy(),), "scatter_rows")


def diag_part(x: Tensor) -> Tensor:
    if x.data.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeError(f"diag_part: expected square matrix, got {x.shape}")

    def back(g):
        gx = np.zeros_like(x.data)
        np.fill_diagonal(gx, g)
        return (gx,)

    return _node(np.diagonal(x.data).copy(), (x,), back, "diag_part")


# ---------------------------------------------------------------------------
# row-structured nonlinearities
# ---------------------------------------------------------------------------

def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis of [..., n, d] with row-max subtraction;
    rows sum to 1."""
    if x.data.ndim < 2:
        raise ShapeError(f"softmax_rows: expected at least 2-D, got {x.shape}")
    p = _softmax_last(x.data)
    return _node(p, (x,), lambda g: (_softmax_grad(p, g),), "softmax_rows")


def _softmax_last(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient through softmax output `p` for upstream `g`."""
    inner = (g * p).sum(axis=-1, keepdims=True)
    return p * (g - inner)


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row of a [n, d] matrix to unit Euclidean norm."""
    if x.data.ndim != 2:
        raise ShapeError(f"l2_normalize_rows: expected 2-D, got {x.shape}")
    # `np.linalg.norm(x, axis=1, keepdims=True)` without its Python wrapper
    norms = np.sqrt(np.add.reduce(x.data * x.data, axis=1, keepdims=True))
    if np.any(norms <= eps):
        raise DegenerateVectorError("l2_normalize_rows: row with (near-)zero norm")
    y = x.data / norms

    def back(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        return ((g - inner * y) / norms,)

    return _node(y, (x,), back, "l2_normalize_rows")


def _standardize(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row of `[..., n, d]` centred and scaled to unit variance over its
    last axis, and the scales: `(xhat, inv)`."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    # `x.var(axis=-1)` computes exactly this, from its own copy of `x - mu`
    inv = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / x.shape[-1] + eps)
    xhat *= inv
    return xhat, inv


def _standardize_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                       gamma: np.ndarray) -> tuple:
    """The gradients of `xhat * gamma + beta` for upstream `g`: input, gamma, beta."""
    d = xhat.shape[-1]
    dgamma = (g * xhat).reshape(-1, d).sum(axis=0)
    dbeta = g.reshape(-1, d).sum(axis=0)
    dxhat = g * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), dgamma, dbeta


def layer_norm_rows(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row standardization of [..., n, d] over its last axis, then
    elementwise affine (gamma, beta)."""
    if x.data.ndim < 2:
        raise ShapeError(f"layer_norm_rows: expected at least 2-D, got {x.shape}")
    _check_norm(x.shape[-1], gamma, beta, "layer_norm_rows")
    xhat, inv = _standardize(x.data, eps)
    return _node(xhat * gamma.data + beta.data, (x, gamma, beta),
                 lambda g: _standardize_grads(g, xhat, inv, gamma.data), "layer_norm_rows")


def softmax_nll_rows(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-softmax cross-entropy of `[n, k]` logits on plain arrays.

    Returns the mean negative log-likelihood of integer `labels` (0-d) and
    its unscaled gradient `softmax - onehot`; the caller multiplies that by
    its own upstream scale over n. Rows are shifted by their max first.

    Every label must lie in [0, k): the labelled entries are addressed by one
    flat index `row * k + label`, which nothing here range-checks. The
    reductions are the ufuncs' own, and `add.reduce(nll) / n` is the bits of
    `nll.mean()`, without the method wrappers' per-call cost."""
    n, k = logits.shape
    flat = np.arange(n) * k + labels
    top = np.maximum.reduce(logits, axis=1, keepdims=True)
    p = np.exp(logits - top, order="C")  # row-major, so its flat view is itself
    total = np.add.reduce(p, axis=1, keepdims=True)
    nll = (np.log(total[:, 0]) + top[:, 0]) - logits.reshape(-1)[flat]
    p /= total
    p.reshape(-1)[flat] -= 1.0
    return np.asarray(np.add.reduce(nll) / n), p


def cross_entropy_rows(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_rows: expected 2-D logits, got {logits.shape}")
    y = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if y.shape != (n,):
        raise ShapeError("cross_entropy_rows: one label per row required")
    if y.min() < 0 or y.max() >= k:
        raise ShapeError("cross_entropy_rows: label out of range")
    loss, gl = softmax_nll_rows(logits.data, y)
    return _node(loss, (logits,), lambda g: (gl * (float(g) / n),), "cross_entropy_rows")
