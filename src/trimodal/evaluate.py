"""Downstream protocol: linear probes on frozen encoders.

A probe head is its weight `W` (`[d_in, C]`), bias `b` and mode: it reads
video-only embeddings, or video and audio embeddings concatenated
video-first, and is trained with cross-entropy. The encoders never receive
gradients; their parameters are bitwise untouched. The samples come from
`data.Manifest`, and each is checked against the stack first. `embed_frozen`
maps their raw blocks (arrays) to one preallocated `[n, d]` array without a
graph (every clip of every video of a split). It encodes per modality and
sequence length T, in consecutive stacks of at most `BUDGET // (T *
d_model)` sequences, so its temporaries stay bounded whatever the split's
size. The head is fitted on plain arrays with the arithmetic of
`Linear.forward` and `cross_entropy_rows` (shared through
`softmax_nll_rows`) and their backward, then the package's `Adam`: bitwise
the graph-built fit of `Linear(d_in, C, seed, "probe")`. Weight over bias
is one `[d_in+1, C]` Adam parameter whose gradient fills one preallocated
buffer; each epoch gathers the embeddings in its order once, and its
minibatches are row-slice views of that gather; every epoch's order comes
from one stream-family permutation.

Test-set accuracy averages logits over several clips per video, which
`Manifest.clips` supplies: clip 0 is the stored feature block, and further
clips are fresh draws around the sample's class template. The split is
scored in one stacked product, `[n, J, d] @ W + b` averaged over its J
clips.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import checkpoint as ckpt_mod
from .config import DEFAULTS, section
from .data import Manifest, Sample
from .encoders import EncoderStack
from .errors import AvailabilityError, ConfigError, FormatError
from .layers import _uniform_init
from .optim import Adam
from .rng import Stream
from .tensor import Tensor, _ensure_finite, no_grad, softmax_nll_rows

MODES = ("video", "audio+video")
TEST_SPLITS = ("test1", "test2", "test3")
# Elements of the [B, T, d_model] activation that one frozen-encoder call
# may hold: 2^15, 42 sequences of 12 frames at d_model 64. At the desk
# defaults the train-split encodes of both probe modes (348 videos, then
# 212 videos and audios) raised a fresh process's peak RSS by 20.1 MB in one
# stack per length, 11.0 MB in chunks of 170, 3.5 MB in chunks of 42 and
# 1.7 MB in chunks of 10, all in the same time (~0.1 s). Smaller chunks buy
# little: pre-training's graph, not embedding, then sets the peak.
BUDGET = 2 ** 15


_EVAL = DEFAULTS["eval"]


@dataclass
class ProbeConfig:
    """The `eval.probe_*` config keys without their prefix; defaults and
    checks come from the schema."""

    lr: float = _EVAL["probe_lr"]
    batch_size: int = _EVAL["probe_batch_size"]
    epochs: int = _EVAL["probe_epochs"]
    seed: int = _EVAL["probe_seed"]

    def __post_init__(self):
        section("eval", {f"probe_{key}": value for key, value in asdict(self).items()})


@dataclass
class ProbeHead:
    """Logits `x @ W + b` for the frozen embeddings `x` of `mode`."""

    W: np.ndarray  # [d_in, n_classes]
    b: np.ndarray  # [n_classes]
    mode: str

    @property
    def d_in(self) -> int:
        return self.W.shape[0]

    @property
    def n_classes(self) -> int:
        return self.W.shape[1]


@dataclass
class SplitResult:
    split: str
    top1: float
    n: int
    n_excluded: int
    per_class: dict[int, float]
    class_counts: dict[int, tuple[int, int]] = field(default_factory=dict)  # label -> (hits, scored)


@dataclass
class EvalReport:
    mode: str
    clips_per_video: int
    splits: dict[str, SplitResult] = field(default_factory=dict)
    mean_top1: float = 0.0
    per_class: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "clips_per_video": self.clips_per_video,
            "splits": {
                name: {"top1": r.top1, "n": r.n, "n_excluded": r.n_excluded,
                       "per_class": {str(k): v for k, v in sorted(r.per_class.items())},
                       "class_counts": {str(k): list(v) for k, v in sorted(r.class_counts.items())}}
                for name, r in self.splits.items()
            },
            "mean_top1": self.mean_top1,
            "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
        }


def _encode_by_length(encode, seqs: list[np.ndarray], out: np.ndarray) -> None:
    """Write `encode` of each [T, d] sequence into the rows of `out`
    ([n, d_model]) in input order. Sequences of one length T go through
    `encode` as [B, T, d] stacks of consecutive chunks, each of at most
    `max(1, BUDGET // (T * d_model))` sequences."""
    groups: dict[int, list[int]] = {}
    for i, seq in enumerate(seqs):
        groups.setdefault(seq.shape[0], []).append(i)
    for t, idx in groups.items():
        chunk = max(1, BUDGET // (t * out.shape[1]))
        for start in range(0, len(idx), chunk):
            rows = idx[start:start + chunk]
            out[rows] = encode(np.stack([seqs[i] for i in rows])).data


def _usable(stack: EncoderStack, samples: list[Sample], mode: str) -> list[Sample]:
    """The samples that `mode` can embed (the fused probe needs audio), each
    checked against the stack."""
    if mode == "audio+video":
        samples = [s for s in samples if s.audio is not None]
    stack.check_inputs(samples, "v" if mode == "video" else "va")
    return samples


def embed_frozen(stack: EncoderStack, video: list[np.ndarray],
                 audio: list[np.ndarray] | None = None) -> np.ndarray:
    """Frozen `[n, d]` embeddings of n samples in input order, computed
    without recording a graph: the video encoding of each `[T, d_raw]`
    block, followed by the audio encoding of its audio block when `audio`
    is given. Each row is bitwise that sample's own one-sample encoding."""
    d = stack.d_model
    z = np.empty((len(video), d if audio is None else 2 * d))
    with no_grad():
        _encode_by_length(stack.encode_video, video, z[:, :d])
        if audio is not None:
            _encode_by_length(stack.encode_audio, audio, z[:, d:])
    return z


def train_probe(stack: EncoderStack, manifest: Manifest, mode: str,
                probe_cfg: ProbeConfig | None = None) -> ProbeHead:
    """Fit a linear head on frozen train-split embeddings."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    probe_cfg = probe_cfg or ProbeConfig()
    # the fusion probe trains only where audio exists
    samples = _usable(stack, manifest.samples("train"), mode)
    if not samples:
        raise AvailabilityError(
            "no usable training samples for this probe mode (audio+video requires "
            "at least one training sample with audio)")
    x = embed_frozen(stack, [s.video for s in samples],
                     None if mode == "video" else [s.audio for s in samples])
    y = np.array([s.label for s in samples], dtype=np.int64)

    d, c = x.shape[1], manifest.n_classes
    # One Adam parameter J = [W; b], initialised as `Linear(d, c, seed,
    # "probe")` is. Adam without clipping updates each entry on its own, so
    # stepping J gives the bits of stepping W and b apart. The gradient
    # buffer G is filled in place each minibatch.
    J = Tensor(np.vstack([_uniform_init((d, c), d, c, probe_cfg.seed, "probe.W").data,
                          np.zeros(c)]))
    J.grad = G = np.empty_like(J.data)
    adam = Adam([("probe", J)], grad_clip=0.0)
    W, b, gW, gb = J.data[:d], J.data[d], G[:d], G[d]
    _ensure_finite(x, "probe embeddings")
    orders = Stream(probe_cfg.seed, "probe-batches", range(probe_cfg.epochs)).permutation(len(x))
    # The logits and the loss are screened, and Adam screens the gradients,
    # so an overflow ends in `NumericError` without a numpy warning first.
    with np.errstate(over="ignore", invalid="ignore"):
        for order in orders:
            xe, ye = x[order], y[order]
            for start in range(0, len(order), probe_cfg.batch_size):
                end = start + probe_cfg.batch_size
                xb = xe[start:end]
                # `Linear.forward` and `cross_entropy_rows` with their backward,
                # on plain arrays; `+= 0.0` turns -0.0 into +0.0 as accumulating
                # into a zeroed gradient buffer does
                logits = _ensure_finite(xb @ W + b, "probe logits")
                loss, g = softmax_nll_rows(logits, ye[start:end])
                _ensure_finite(loss, "probe loss")
                g *= 1.0 / len(xb)
                np.matmul(xb.T, g, out=gW)
                gW += 0.0
                np.add.reduce(g, axis=0, out=gb)
                gb += 0.0
                adam.step(probe_cfg.lr)
    return ProbeHead(W=W, b=b, mode=mode)


def evaluate(stack: EncoderStack, head: ProbeHead, manifest: Manifest, split: str,
             clips_per_video: int = 1, seed: int = _EVAL["eval_seed"]) -> SplitResult:
    """Top-1 accuracy on one split, averaging logits over clips per video."""
    if clips_per_video < 1:
        raise ConfigError("clips_per_video must be >= 1")
    samples = manifest.samples(split)
    if not samples:
        raise ConfigError(f"split {split!r} is empty")
    scored = _usable(stack, samples, head.mode)
    if not scored:
        raise AvailabilityError(f"split {split!r} has no scorable videos in mode {head.mode!r}")
    video, audio = manifest.clips(scored, clips_per_video, seed, head.mode == "audio+video")
    z = embed_frozen(stack, video, audio).reshape(len(scored), clips_per_video, -1)
    # [n, J, d] @ W as a stack of [J, d] products (never flattened to
    # [n*J, d]), so each video's logits are bitwise its own product's
    pred = (np.matmul(z, head.W) + head.b).mean(axis=1).argmax(axis=1)
    labels = np.array([s.label for s in scored])
    totals = np.bincount(labels)
    hits = np.bincount(labels[pred == labels], minlength=totals.size)
    counts = {k: (h, t) for k, (h, t) in enumerate(zip(hits.tolist(), totals.tolist())) if t}
    return SplitResult(split=split, top1=sum(h for h, _ in counts.values()) / len(scored),
                       n=len(scored), n_excluded=len(samples) - len(scored),
                       per_class={k: h / t for k, (h, t) in counts.items()},
                       class_counts=counts)


def evaluate_all_splits(stack: EncoderStack, head: ProbeHead, manifest: Manifest,
                        clips_per_video: int = 1, seed: int = _EVAL["eval_seed"],
                        splits: tuple[str, ...] = TEST_SPLITS) -> EvalReport:
    """Per-split accuracy plus the arithmetic mean over the requested splits."""
    report = EvalReport(mode=head.mode, clips_per_video=clips_per_video)
    hits: dict[int, int] = {}
    totals: dict[int, int] = {}
    for split in splits:
        res = evaluate(stack, head, manifest, split, clips_per_video, seed)
        report.splits[split] = res
        for k, (h, t) in res.class_counts.items():
            hits[k] = hits.get(k, 0) + h
            totals[k] = totals.get(k, 0) + t
    report.mean_top1 = sum(r.top1 for r in report.splits.values()) / len(report.splits)
    report.per_class = {k: hits[k] / totals[k] for k in sorted(totals)}
    return report


def save_probe(path, head: ProbeHead) -> None:
    """The head's weight, bias and mode; its shape is the weight's."""
    blob = json.dumps({"mode": head.mode}).encode("utf-8")
    ckpt_mod._write_archive(path, [
        ("param.probe.W", head.W),
        ("param.probe.b", head.b),
        ("config", np.frombuffer(blob, dtype=np.uint8)),
    ])


def load_probe(path) -> ProbeHead:
    entries = ckpt_mod._read_archive(path)
    blob = ckpt_mod.read_config(path, entries, "mode")
    if blob["mode"] not in MODES:
        raise FormatError(f"{path}: entry 'config' has mode {blob['mode']!r}, "
                          f"not one of {MODES}")
    w, b = ckpt_mod.require(path, entries, "param.probe.W", "param.probe.b")
    if w.ndim != 2 or b.shape != (w.shape[1],):
        raise FormatError(f"{path}: probe weight {w.shape} and bias {b.shape} "
                          "do not form a linear layer")
    return ProbeHead(W=w, b=b, mode=blob["mode"])
