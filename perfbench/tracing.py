"""Spans around calls into the program's public functions, taken from outside.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span: name, start, end and the span open when it was called
(its parent). Public tensor ops get a cheaper wrapper that only counts calls,
and how many of them recorded a backward graph, against the innermost open
span. Spans stay in memory until `write()`; `uninstall()` restores every
original binding, so a traced and an untraced call run the same code.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute or "Class.method", span name). A module-level function
# is replaced wherever a trimodal module has bound it, so calls through
# `from .x import f` are traced as well as calls through `x.f`.
TRACED = [
    ("trimodal.train", "pretrain", "train.pretrain"),
    ("trimodal.encoders", "EncoderStack.__init__", "layers.stack_build"),
    ("trimodal.encoders", "EncoderStack.embed_batch", "encoders.embed_batch"),
    ("trimodal.encoders", "EncoderStack.encode_video", "encoders.encode_video"),
    ("trimodal.encoders", "EncoderStack.encode_audio", "encoders.encode_audio"),
    ("trimodal.encoders", "EncoderStack.encode_text", "encoders.encode_text"),
    ("trimodal.layers", "MultiHeadAttention.forward", "layers.attention"),
    ("trimodal.layers", "LayerNorm.forward", "layers.layer_norm"),
    ("trimodal.layers", "Linear.forward", "layers.linear"),
    ("trimodal.tensor", "backward", "tensor.backward"),
    ("trimodal.losses", "compute_centroids", "losses.centroids"),
    ("trimodal.losses", "loss_total", "losses.loss_total"),
    ("trimodal.optim", "Adam.step", "optim.adam_step"),
    ("trimodal.data", "augment_audio", "data.augment"),
    ("trimodal.data", "make_batches", "data.make_batches"),
    ("trimodal.data", "sample_video", "data.sample_clip"),
    ("trimodal.data", "sample_audio", "data.sample_clip"),
    ("trimodal.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("trimodal.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("trimodal.evaluate", "train_probe", "evaluate.train_probe"),
    ("trimodal.evaluate", "evaluate_all_splits", "evaluate.evaluate_all_splits"),
    ("trimodal.gradcheck", "run_all", "gradcheck.run_all"),
    ("trimodal.gradcheck", "max_rel_err", "gradcheck.max_rel_err"),
]

# Span record layout: [name, start, end, parent, ops, graph_ops]
NAME, START, END, PARENT, OPS, GRAPH_OPS = range(6)


def _tensor_ops() -> list[str]:
    # Every differentiable op the program has is one gradcheck case.
    from trimodal.gradcheck import OP_CASES
    return sorted(OP_CASES)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, 0, 0]
            spans.append(rec)
            open_.append(idx)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                open_.pop()

        return wrapped

    def _counter(self, fn):
        spans, open_ = self.spans, self._open

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            if open_:
                rec = spans[open_[-1]]
                rec[OPS] += 1
                if out.requires_grad:
                    rec[GRAPH_OPS] += 1
            return out

        return wrapped

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        rec_idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1, 0, 0])
        self._open.append(rec_idx)
        self.spans[rec_idx][START] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[rec_idx][END] = time.perf_counter()
            self._open.pop()

    # -- installation -------------------------------------------------------

    def _replace_function(self, module_name: str, attr: str, make) -> None:
        fn = getattr(importlib.import_module(module_name), attr)
        new = make(fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "trimodal" or mod_name.startswith("trimodal.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, new)

    def _replace_method(self, module_name: str, dotted: str, make) -> None:
        cls_name, meth = dotted.split(".")
        cls = getattr(importlib.import_module(module_name), cls_name)
        fn = cls.__dict__[meth]
        self._restore.append((cls, meth, fn))
        setattr(cls, meth, make(fn))

    def install(self) -> "Tracer":
        for module_name, attr, name in TRACED:
            make = lambda fn, name=name: self._span(name, fn)  # noqa: E731
            if "." in attr:
                self._replace_method(module_name, attr, make)
            else:
                self._replace_function(module_name, attr, make)
        for op in _tensor_ops():
            self._replace_function("trimodal.tensor", op, self._counter)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- analysis ------------------------------------------------------------

    def summary(self) -> "TraceSummary":
        return TraceSummary(self.spans)

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as f:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "ops", "graph_ops"],
                       "spans": self.spans}, f)


class TraceSummary:
    """Self and inclusive times and op counts, per span name, optionally
    restricted to spans that lie under a span of a given name."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(self.spans)
        self.self_s = [s[END] - s[START] for s in self.spans]
        self.incl_ops = [s[OPS] for s in self.spans]
        self.incl_graph_ops = [s[GRAPH_OPS] for s in self.spans]
        for i in range(n - 1, -1, -1):  # children come after their parents
            p = self.spans[i][PARENT]
            if p >= 0:
                self.self_s[p] -= self.spans[i][END] - self.spans[i][START]
                self.incl_ops[p] += self.incl_ops[i]
                self.incl_graph_ops[p] += self.incl_graph_ops[i]

    def _under(self, ancestor: str | None) -> list[bool]:
        if ancestor is None:
            return [True] * len(self.spans)
        inside = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            p = s[PARENT]
            inside[i] = p >= 0 and (inside[p] or self.spans[p][NAME] == ancestor)
        return inside

    def self_time(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_s) if s[NAME] == name)

    def _outermost(self, name: str, under: str | None = None) -> list[int]:
        """Spans called `name` (under `under`) that no span of that name encloses."""
        inside = self._under(under)
        wrapped = self._under(name)
        return [i for i, s in enumerate(self.spans)
                if s[NAME] == name and inside[i] and not wrapped[i]]

    def total_time(self, name: str, under: str | None = None) -> float:
        """Inclusive time of the outermost spans called `name`."""
        return sum(self.spans[i][END] - self.spans[i][START]
                   for i in self._outermost(name, under))

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)

    def ops(self, name: str) -> tuple[int, int]:
        """(ops, graph-recording ops) inside the outermost spans called `name`."""
        idx = self._outermost(name)
        return (sum(self.incl_ops[i] for i in idx),
                sum(self.incl_graph_ops[i] for i in idx))

    def self_shares(self, root: str) -> dict[str, float]:
        """Share of the `root` spans' time that each span name takes as self time."""
        root_time = self.total_time(root)
        inside = self._under(root)
        shares: dict[str, float] = defaultdict(float)
        for s, t, ok in zip(self.spans, self.self_s, inside):
            if ok or s[NAME] == root:
                shares[s[NAME]] += t / root_time
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
