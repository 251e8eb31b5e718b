"""Downstream protocol: linear probes on frozen encoders.

A probe is one linear layer trained with cross-entropy on cached embeddings
(video-only, or video and audio embeddings concatenated video-first). The
encoders never receive gradients; their parameters are bitwise untouched.
Embedding runs without a graph, in one encoder call per modality and
sequence length for a whole split (every clip of every video at once).
The head is fitted on plain arrays with the arithmetic of `Linear.forward`
and `cross_entropy_rows` (shared through `softmax_nll_rows`) and their
backward, then the package's `Adam`: bitwise the graph-built fit, without a
graph per minibatch.

Test-set accuracy averages logits over several clips per video. Clip 0 is
the stored feature block; further clips are fresh noise draws around the
sample's class template, read from the dataset's meta record (the synthetic
stand-in for sampling extra temporal crops).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import checkpoint as ckpt_mod
from .config import DEFAULTS, section
from .data import Manifest, Record, SyntheticConfig, sample_audio, sample_video
from .encoders import EncoderStack, ModalityFeatures
from .errors import AvailabilityError, ConfigError, FormatError
from .layers import Linear
from .ltf import load_ltf
from .optim import Adam
from .rng import Stream
from .tensor import Tensor, _ensure_finite, no_grad, softmax_nll_rows

MODES = ("video", "audio+video")
TEST_SPLITS = ("test1", "test2", "test3")


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
    linear: Linear
    mode: str
    n_classes: int

    @property
    def d_in(self) -> int:
        return self.linear.W.shape[0]

    def logits(self, feats: np.ndarray) -> np.ndarray:
        return feats @ self.linear.W.data + self.linear.b.data


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


def fuse_embeddings(z_v: Tensor, z_a: Tensor | None) -> Tensor:
    """Concatenate frozen embeddings video-first: [z_v ; z_a], for one
    embedding each or for [n, d] rows of n samples."""
    if z_a is None:
        raise AvailabilityError("fuse_embeddings: audio embedding missing")
    if z_v.data.ndim not in (1, 2) or z_v.shape[:-1] != z_a.shape[:-1]:
        raise ConfigError("fuse_embeddings expects 1-D embeddings or [n, d] rows of "
                          f"equal count, got {z_v.shape} and {z_a.shape}")
    return Tensor(np.concatenate([z_v.data, z_a.data], axis=-1))


def _encode_by_length(encode, seqs: list[Tensor]) -> Tensor:
    """`encode` of each [T, d] sequence, as [n, d_model] rows in input order:
    one call per distinct length T, on the [B, T, d] stack of that length."""
    groups: dict[int, list[int]] = {}
    for i, seq in enumerate(seqs):
        groups.setdefault(seq.shape[0], []).append(i)
    rows = None
    for idx in groups.values():
        z = encode(Tensor(np.stack([seqs[i].data for i in idx]))).data
        if rows is None:
            rows = np.empty((len(seqs), z.shape[1]))
        rows[idx] = z
    return Tensor(rows)


def _embeddable(feats: ModalityFeatures, mode: str) -> bool:
    return mode == "video" or feats.has_audio


def embed_frozen(stack: EncoderStack, samples: list[ModalityFeatures],
                 mode: str) -> list[np.ndarray | None]:
    """Frozen embeddings of `samples` in input order, computed without
    recording a graph; None where fusion lacks audio. Each row is bitwise
    that sample's own one-sample encoding."""
    kept = [i for i, f in enumerate(samples) if _embeddable(f, mode)]
    out: list[np.ndarray | None] = [None] * len(samples)
    if not kept:
        return out
    with no_grad():
        z = _encode_by_length(stack.encode_video, [samples[i].video for i in kept])
        if mode != "video":
            z = fuse_embeddings(
                z, _encode_by_length(stack.encode_audio, [samples[i].audio for i in kept]))
    for i, row in zip(kept, z.data):
        out[i] = row
    return out


class _ClipSource:
    """Regenerates extra clips from the dataset's class templates."""

    def __init__(self, manifest: Manifest, need_audio: bool, seed: int):
        self.manifest = manifest
        self.seed = seed
        if manifest.meta is None or "templates" not in manifest.meta:
            raise FormatError("dataset has no meta.json with templates; "
                              "multi-clip evaluation needs clips_per_video=1")
        self.cfg = SyntheticConfig(**manifest.meta["config"])
        t = manifest.meta["templates"]
        self.m_video = load_ltf(manifest.root / t["video"]).data
        self.m_audio = load_ltf(manifest.root / t["audio"]).data if need_audio else None

    def clip(self, rec: Record, stored: ModalityFeatures, j: int) -> ModalityFeatures:
        if j == 0:
            return stored
        video = Tensor(sample_video(self.cfg, self.m_video[rec.label],
                                    (self.seed, "clip-video", rec.id, j)))
        audio = stored.audio
        if stored.has_audio and self.m_audio is not None:
            audio = Tensor(sample_audio(self.cfg, self.m_audio[rec.label],
                                        (self.seed, "clip-audio", rec.id, j)))
        return ModalityFeatures(video=video, audio=audio, text=stored.text)


def train_probe(stack: EncoderStack, manifest: Manifest, mode: str,
                probe_cfg: ProbeConfig | None = None) -> ProbeHead:
    """Fit a linear head on frozen train-split embeddings."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    probe_cfg = probe_cfg or ProbeConfig()
    records = manifest.records_for("train")
    embs = embed_frozen(stack, [manifest.load_features(rec) for rec in records], mode)
    feats, labels = [], []
    for rec, emb in zip(records, embs):
        if emb is None:
            continue  # fusion probe trains only where audio exists
        feats.append(emb)
        labels.append(rec.label)
    if not feats:
        raise AvailabilityError(
            "no usable training samples for this probe mode (audio+video requires "
            "at least one training sample with audio)")
    x = np.stack(feats)
    y = np.array(labels, dtype=np.int64)
    n_classes = manifest.n_classes

    head = Linear(x.shape[1], n_classes, probe_cfg.seed, "probe")
    adam = Adam(head.parameters())
    W, b = head.W, head.b
    _ensure_finite(x, "probe embeddings")
    for epoch in range(probe_cfg.epochs):
        order = np.array(Stream(probe_cfg.seed, "probe-batches", epoch).permutation(len(x)))
        for start in range(0, len(order), probe_cfg.batch_size):
            idx = order[start:start + probe_cfg.batch_size]
            xb = x[idx]
            # `Linear.forward` and `cross_entropy_rows` with their backward,
            # on plain arrays; `+ 0.0` turns -0.0 into +0.0 as accumulating
            # into a zeroed gradient buffer does
            logits = _ensure_finite(xb @ W.data + b.data, "probe logits")
            loss, g = softmax_nll_rows(logits, y[idx])
            _ensure_finite(loss, "probe loss")
            g *= 1.0 / len(idx)
            W.grad = xb.T @ g + 0.0
            b.grad = g.sum(axis=0) + 0.0
            adam.step(probe_cfg.lr)
    return ProbeHead(linear=head, mode=mode, n_classes=n_classes)


def evaluate(stack: EncoderStack, head: ProbeHead, manifest: Manifest, split: str,
             clips_per_video: int = 1, seed: int = _EVAL["eval_seed"]) -> SplitResult:
    """Top-1 accuracy on one split, averaging logits over clips per video."""
    if clips_per_video < 1:
        raise ConfigError("clips_per_video must be >= 1")
    records = manifest.records_for(split)
    if not records:
        raise ConfigError(f"split {split!r} is empty")
    source = None
    if clips_per_video > 1:
        source = _ClipSource(manifest, need_audio=(head.mode == "audio+video"), seed=seed)
    scored, clips = [], []
    for rec in records:
        stored = manifest.load_features(rec)
        if not _embeddable(stored, head.mode):
            continue
        scored.append(rec)
        clips.extend(stored if source is None else source.clip(rec, stored, j)
                     for j in range(clips_per_video))
    if not scored:
        raise AvailabilityError(f"split {split!r} has no scorable videos in mode {head.mode!r}")
    embs = embed_frozen(stack, clips, head.mode)
    hits: dict[int, int] = {}
    totals: dict[int, int] = {}
    correct = 0
    for r, rec in enumerate(scored):
        clip_embs = embs[r * clips_per_video:(r + 1) * clips_per_video]
        logits = head.logits(np.stack(clip_embs)).mean(axis=0)
        totals[rec.label] = totals.get(rec.label, 0) + 1
        if int(np.argmax(logits)) == rec.label:
            correct += 1
            hits[rec.label] = hits.get(rec.label, 0) + 1
    per_class = {k: hits.get(k, 0) / t for k, t in sorted(totals.items())}
    counts = {k: (hits.get(k, 0), t) for k, t in sorted(totals.items())}
    return SplitResult(split=split, top1=correct / len(scored), n=len(scored),
                       n_excluded=len(records) - len(scored), per_class=per_class,
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
    blob = json.dumps({"mode": head.mode, "n_classes": head.n_classes},
                      sort_keys=True).encode("utf-8")
    ckpt_mod._write_archive(path, [
        ("param.probe.W", head.linear.W.data),
        ("param.probe.b", head.linear.b.data),
        ("config", np.frombuffer(blob, dtype=np.uint8)),
    ])


def load_probe(path) -> ProbeHead:
    entries = ckpt_mod._read_archive(path)
    blob = ckpt_mod.read_config(path, entries, "mode", "n_classes")
    w, b = ckpt_mod.require(path, entries, "param.probe.W", "param.probe.b")
    if w.ndim != 2 or b.shape != (w.shape[1],):
        raise FormatError(f"{path}: probe weight {w.shape} and bias {b.shape} "
                          "do not form a linear layer")
    head = Linear(w.shape[0], w.shape[1], 0, "probe")
    head.W.data[...] = w
    head.b.data[...] = b
    return ProbeHead(linear=head, mode=blob["mode"], n_classes=blob["n_classes"])
