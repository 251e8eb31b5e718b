"""Adam with bias correction and a cosine learning-rate schedule."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .errors import NumericError
from .tensor import Tensor

_OPTIM = DEFAULTS["optim"]
# The largest gradient entry whose square `v` can hold.
_MAX_GRAD = math.sqrt(sys.float_info.max)


@dataclass
class CosineSchedule:
    """lr(t) = lr_min + (lr_max - lr_min) (1 + cos(pi t / T)) / 2, t clamped to T.

    A linear warmup from 0 to lr_max over `warmup_steps` precedes the cosine
    segment when `warmup_steps` > 0.
    """

    lr_max: float = _OPTIM["lr_max"]
    lr_min: float = _OPTIM["lr_min"]
    total_steps: int = 1
    warmup_steps: int = _OPTIM["warmup_steps"]

    def __post_init__(self):
        if not (self.lr_max >= self.lr_min >= 0.0):
            raise ValueError("need lr_max >= lr_min >= 0")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")

    def lr_at(self, t: int) -> float:
        if t < 0:
            raise ValueError("step must be >= 0")
        if self.warmup_steps > 0 and t < self.warmup_steps:
            return self.lr_max * (t + 1) / self.warmup_steps
        t0 = t - self.warmup_steps
        horizon = self.total_steps - self.warmup_steps
        if t0 >= horizon:
            return self.lr_min
        return self.lr_min + 0.5 * (self.lr_max - self.lr_min) * (1.0 + math.cos(math.pi * t0 / horizon))


class Adam:
    """Standard Adam over named parameters; state is checkpointable.

    Aborts the step (raising NumericError, parameters and state untouched)
    if no gradient is given, or if one is non-finite or has an entry whose
    square overflows (above `sqrt(float max)`).
    """

    def __init__(self, params: list[tuple[str, Tensor]],
                 beta1: float = _OPTIM["beta1"], beta2: float = _OPTIM["beta2"],
                 eps: float = _OPTIM["eps"], grad_clip: float = _OPTIM["grad_clip"]):
        self.params = list(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.grad_clip = grad_clip
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self, lr: float) -> None:
        grads = {}
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue  # parameter untouched this step (e.g. ablated loss term)
            # The sum of squares is finite for almost every gradient; only
            # when it is not are the entries looked at one by one.
            if not math.isfinite(np.vdot(g, g)):
                if not np.isfinite(g).all():
                    raise NumericError(f"adam: non-finite gradient for {name!r}; step aborted")
                if np.abs(g).max() > _MAX_GRAD:
                    raise NumericError(f"adam: gradient for {name!r} has an entry above "
                                       f"{_MAX_GRAD:.4g}, whose square overflows; step aborted")
            grads[name] = g
        if not grads:
            raise NumericError("adam: no parameter received a gradient")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params:
            g = grads.get(name)
            if g is None:
                continue
            if self.grad_clip > 0.0:
                norm = float(np.linalg.norm(g))
                if norm > self.grad_clip:
                    g = g * (self.grad_clip / norm)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= lr * update

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None
