"""Dense float64 tensors with define-by-run reverse-mode differentiation.

Every value in the package lives in a `Tensor`. Ops are plain functions that
compute the forward result with numpy and attach a closure producing the
parent gradients; `backward` walks the recorded graph in reverse topological
order. Graphs are rebuilt each step and never cached.

Row-structured ops (`matmul`, `transpose`, `add_rowvec`, `mean_axis0`,
`softmax_rows`, `layer_norm_rows`, `slice_cols`, `concat_cols`) act on the
last axis, or the last two, of a `[..., T, d]` array: a leading batch axis
stacks independent samples, and every sample's values are bitwise those of
the same op on its own `[T, d]` matrix.

Design constraints honoured throughout:
  * float64 only, row-major storage;
  * no broadcasting except bias addition over rows (`add_rowvec`) and a 2-D
    `matmul` weight shared across a stack;
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


def _ensure_finite(arr: np.ndarray, op: str) -> np.ndarray:
    # One-pass screen: a non-finite element makes the sum non-finite. The
    # precise re-check clears sums that merely overflowed. `np.add.reduce` is
    # `ndarray.sum` without its Python wrapper; this runs at every node.
    if not math.isfinite(np.add.reduce(arr, None)) and not np.isfinite(arr).all():
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

    def zero_grad(self) -> None:
        self.grad = None

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

    def back(g):
        gb = _swap(a.data) @ g
        if gb.ndim > b.data.ndim:  # a shared weight sums its per-matrix gradients
            gb = gb.reshape(-1, *b.shape).sum(axis=0)
        return (g @ _swap(b.data), gb)

    return _node(a.data @ b.data, (a, b), back, "matmul")


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
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner),)

    return _node(p, (x,), back, "softmax_rows")


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row of a [n, d] matrix to unit Euclidean norm."""
    if x.data.ndim != 2:
        raise ShapeError(f"l2_normalize_rows: expected 2-D, got {x.shape}")
    norms = np.linalg.norm(x.data, axis=1, keepdims=True)
    if np.any(norms <= eps):
        raise DegenerateVectorError("l2_normalize_rows: row with (near-)zero norm")
    y = x.data / norms

    def back(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        return ((g - inner * y) / norms,)

    return _node(y, (x,), back, "l2_normalize_rows")


def layer_norm_rows(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row standardization of [..., n, d] over its last axis, then
    elementwise affine (gamma, beta)."""
    if x.data.ndim < 2:
        raise ShapeError(f"layer_norm_rows: expected at least 2-D, got {x.shape}")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError("layer_norm_rows: gamma/beta must be [d]")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def back(g):
        dgamma = (g * xhat).reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return (dx, dgamma, dbeta)

    return _node(xhat * gamma.data + beta.data, (x, gamma, beta), back, "layer_norm_rows")


def softmax_nll_rows(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-softmax cross-entropy of `[n, k]` logits on plain arrays.

    Returns the mean negative log-likelihood of integer `labels` (0-d) and
    its unscaled gradient `softmax - onehot`; the caller multiplies that by
    its own upstream scale over n. Rows are shifted by their max first."""
    n = logits.shape[0]
    rows = np.arange(n)
    top = logits.max(axis=1, keepdims=True)
    p = np.exp(logits - top)
    total = p.sum(axis=1, keepdims=True)
    nll = (np.log(total[:, 0]) + top[:, 0]) - logits[rows, labels]
    p /= total
    p[rows, labels] -= 1.0
    return np.asarray(nll.mean()), p


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
