"""Synthetic tri-modal dataset generation, manifest loading and batching.

Each sample belongs to one of K classes. Video and audio features are drawn
around per-class, per-position template blocks (a fresh Gaussian draw of the
template plus noise for every sample), and text is a token sequence mixing a
class-owned slice of the vocabulary with uniform noise. Audio and text are
jointly present with probability `p_available` (one coin flip, mirroring the
fraction of clips that carry both a usable soundtrack and a title), or
independently when `independent_availability` is set.

Everything is keyed off named SplitMix64 streams, so regenerating with the
same config is bitwise identical, file by file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .config import section
from .encoders import ModalityFeatures
from .errors import ConfigError, FormatError
from .ltf import load_ltf, save_ltf
from .rng import Stream
from .tensor import Tensor

SPLITS = ("train", "test1", "test2", "test3")


class SyntheticConfig(SimpleNamespace):
    """The `data` config section as attributes. Keyword arguments override
    the schema defaults and are checked like a config document."""

    def __init__(self, **data):
        super().__init__(**section("data", data))


@dataclass
class Record:
    id: str
    label: int
    split: str
    video_path: str
    audio_path: str | None
    text_path: str | None


@dataclass
class BatchSample:
    id: str
    label: int
    features: ModalityFeatures


@dataclass
class Batch:
    samples: list[BatchSample]

    def __len__(self) -> int:
        return len(self.samples)


class Manifest:
    """Parsed manifest plus lazily cached per-sample features."""

    def __init__(self, root: Path, records: list[Record], meta: dict | None):
        self.root = Path(root)
        self.records = records
        self.meta = meta
        self._cache: dict[str, ModalityFeatures] = {}

    def records_for(self, split: str) -> list[Record]:
        if split not in SPLITS:
            raise ConfigError(f"unknown split {split!r} (expected one of {SPLITS})")
        return [r for r in self.records if r.split == split]

    @property
    def n_classes(self) -> int:
        if self.meta and "config" in self.meta:
            return int(self.meta["config"]["n_classes"])
        return max(r.label for r in self.records) + 1

    def load_features(self, rec: Record) -> ModalityFeatures:
        cached = self._cache.get(rec.id)
        if cached is not None:
            return cached
        video = load_ltf(self.root / rec.video_path)
        audio = load_ltf(self.root / rec.audio_path) if rec.audio_path else None
        text = None
        if rec.text_path:
            ids = load_ltf(self.root / rec.text_path).data
            text = ids.astype(np.int64)
            if not np.array_equal(text.astype(np.float64), ids):
                raise FormatError(f"{rec.text_path}: non-integral token ids")
        feats = ModalityFeatures(video=video, audio=audio, text=text)
        self._cache[rec.id] = feats
        return feats


def _class_templates(cfg: SyntheticConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-class, per-position template blocks.

    Video classes share one pool of position patterns and differ mainly in
    the order the patterns appear (a per-class permutation), the way an
    action class is defined by its temporal structure. Every class therefore
    has an (almost) identical token multiset: order-blind statistics (mean
    pooling, or any per-token function averaged over positions) carry almost
    no class information, while a position-aware encoder sees a large
    per-position signal. A faint per-class component shared by all positions
    (`mean_signal_video`) keeps the naive mean-pooled baseline slightly
    above chance.

    Audio templates are plain per-class Gaussian blocks.
    """
    s = Stream(cfg.seed, "templates")
    base = s.normal((cfg.t_video, cfg.d_video)) * cfg.template_scale_video
    m_video = np.empty((cfg.n_classes, cfg.t_video, cfg.d_video))
    seen: set[tuple[int, ...]] = set()
    for k in range(cfg.n_classes):
        perm_stream = Stream(cfg.seed, "templates-perm", k)
        perm = tuple(perm_stream.permutation(cfg.t_video))
        for _ in range(1000):  # identical orders would merge two classes
            if perm not in seen:
                break
            perm = tuple(perm_stream.permutation(cfg.t_video))
        else:
            raise ConfigError("could not draw distinct class orderings; raise t_video")
        seen.add(perm)
        m_video[k] = base[list(perm)]
    class_bias = s.normal((cfg.n_classes, cfg.d_video), sigma=cfg.mean_signal_video)
    m_video += class_bias[:, None, :]
    m_audio = s.normal((cfg.n_classes, cfg.t_audio, cfg.d_audio))
    return m_video, m_audio


def _sample_text(cfg: SyntheticConfig, stream: Stream, label: int) -> np.ndarray:
    """Token t draws a coin (draw 2t): below `text_informativeness` it takes
    an id from the class's vocabulary slice, else a uniform one (draw 2t + 1)."""
    sub = cfg.vocab // (2 * cfg.n_classes)
    raw = stream.u64(2 * cfg.l_text)
    informative = (raw[0::2] >> 11) * 2.0**-53 < cfg.text_informativeness
    ids = raw[1::2]
    return np.where(informative, label * sub + ids % sub, ids % cfg.vocab).astype(np.int64)


def _assign_splits(cfg: SyntheticConfig, labels: np.ndarray) -> list[str]:
    """Stratified 70/10/10/10 assignment, per class."""
    split_of = ["train"] * len(labels)
    for k in range(cfg.n_classes):
        members = [i for i, lab in enumerate(labels) if lab == k]
        members = Stream(cfg.seed, "splits", k).shuffle(members)
        m = len(members)
        q = max(1, m // 10) if m >= 5 else 0
        for j, i in enumerate(members):
            if j < q:
                split_of[i] = "test1"
            elif j < 2 * q:
                split_of[i] = "test2"
            elif j < 3 * q:
                split_of[i] = "test3"
    return split_of


def sample_video(cfg: SyntheticConfig, template: np.ndarray, seed_key: tuple) -> np.ndarray:
    """One video feature block (one clip).

    Per-position class template, plus a per-clip offset shared by every
    token (a camera/lighting-style nuisance that linear pooling cannot
    remove), plus elementwise noise. Draw order: offset, then noise.
    """
    s = Stream(*seed_key)
    offset = s.normal(template.shape[1], sigma=cfg.offset_sigma_video)
    noise = s.normal(template.shape, sigma=cfg.sigma_video)
    return template + offset[None, :] + noise


def sample_audio(cfg: SyntheticConfig, template: np.ndarray, seed_key: tuple) -> np.ndarray:
    noise = Stream(*seed_key).normal(template.shape, sigma=cfg.sigma_audio)
    return template + noise


def generate_synthetic(cfg: SyntheticConfig, out_dir, force: bool = False) -> Manifest:
    """Write a complete dataset directory and return its loaded manifest."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        if not force:
            raise FileExistsError(f"{out}: refusing to write into a non-empty directory "
                                  "(pass force=True / --force)")
    out.mkdir(parents=True, exist_ok=True)
    (out / "tensors").mkdir(exist_ok=True)

    m_video, m_audio = _class_templates(cfg)
    labels = Stream(cfg.seed, "labels").integers(cfg.n_samples, cfg.n_classes)
    if cfg.independent_availability:
        has_audio = Stream(cfg.seed, "avail_audio").uniform(cfg.n_samples) < cfg.p_available
        has_text = Stream(cfg.seed, "avail_text").uniform(cfg.n_samples) < cfg.p_available
    else:
        joint = Stream(cfg.seed, "avail").uniform(cfg.n_samples) < cfg.p_available
        has_audio = joint
        has_text = joint.copy()
    split_of = _assign_splits(cfg, labels)

    records = []
    for i in range(cfg.n_samples):
        sid = f"s{i:04d}"
        k = int(labels[i])
        video = sample_video(cfg, m_video[k], (cfg.seed, "video", i))
        video_path = f"tensors/{sid}_video.ltf"
        save_ltf(out / video_path, video)
        audio_path = text_path = None
        if has_audio[i]:
            audio = sample_audio(cfg, m_audio[k], (cfg.seed, "audio", i))
            audio_path = f"tensors/{sid}_audio.ltf"
            save_ltf(out / audio_path, audio)
        if has_text[i]:
            toks = _sample_text(cfg, Stream(cfg.seed, "text", i), k)
            text_path = f"tensors/{sid}_text.ltf"
            save_ltf(out / text_path, toks.astype(np.float64))
        records.append(Record(sid, k, split_of[i], video_path, audio_path, text_path))

    save_ltf(out / "templates_video.ltf", m_video)
    save_ltf(out / "templates_audio.ltf", m_audio)
    meta = {
        "format": "trimodal-dataset-v1",
        "config": vars(cfg),
        "templates": {"video": "templates_video.ltf", "audio": "templates_audio.ltf"},
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    with open(out / "manifest.jsonl", "w") as f:
        for r in records:
            f.write(json.dumps({
                "id": r.id, "label": r.label, "split": r.split,
                "video_path": r.video_path, "audio_path": r.audio_path,
                "text_path": r.text_path,
            }, sort_keys=True) + "\n")
    return load_manifest(out)


def load_manifest(path) -> Manifest:
    """Load a manifest (dataset dir or manifest.jsonl path), failing fast.

    Every referenced tensor file must exist at load time; a dangling path is
    reported here rather than mid-training.
    """
    path = Path(path)
    manifest_path = path / "manifest.jsonl" if path.is_dir() else path
    root = manifest_path.parent
    if not manifest_path.exists():
        raise FileNotFoundError(f"{manifest_path}: no manifest found")
    records = []
    with open(manifest_path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise FormatError(f"{manifest_path}:{lineno}: invalid JSON ({e.msg})") from e
            for key in ("id", "label", "split", "video_path"):
                if obj.get(key) is None:
                    raise FormatError(f"{manifest_path}:{lineno}: missing field {key!r}")
            if obj["split"] not in SPLITS:
                raise FormatError(f"{manifest_path}:{lineno}: unknown split {obj['split']!r}")
            if not isinstance(obj["label"], int) or obj["label"] < 0:
                raise FormatError(f"{manifest_path}:{lineno}: label must be a non-negative int")
            rec = Record(obj["id"], obj["label"], obj["split"], obj["video_path"],
                         obj.get("audio_path"), obj.get("text_path"))
            for p in (rec.video_path, rec.audio_path, rec.text_path):
                if p is not None and not (root / p).exists():
                    raise FileNotFoundError(f"{manifest_path}:{lineno}: referenced file "
                                            f"{p!r} does not exist")
            records.append(rec)
    if not records:
        raise FormatError(f"{manifest_path}: empty manifest")
    meta = None
    meta_path = root / "meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
    man = Manifest(root, records, meta)
    n_classes = man.n_classes
    for rec in records:
        if rec.label >= n_classes:
            raise FormatError(f"label {rec.label} out of range for {n_classes} classes")
    return man


def make_batches(manifest: Manifest, split: str, batch_size: int, seed: int, epoch: int) -> list[Batch]:
    """Shuffle a split with a stream keyed on (seed, epoch) and chunk it."""
    if batch_size < 2:
        raise ConfigError("batch_size must be >= 2 (contrastive losses need negatives)")
    recs = manifest.records_for(split)
    if not recs:
        raise ConfigError(f"split {split!r} is empty")
    order = Stream(seed, "batches", epoch).permutation(len(recs))
    batches = []
    for start in range(0, len(order), batch_size):
        chunk = order[start:start + batch_size]
        samples = [
            BatchSample(recs[i].id, recs[i].label, manifest.load_features(recs[i]))
            for i in chunk
        ]
        batches.append(Batch(samples))
    return batches


def augment_audio(spectrogram: Tensor, sigma: float, seed: int) -> Tensor:
    """Add seeded elementwise Gaussian noise; sigma = 0 is the identity."""
    if sigma < 0:
        raise ConfigError("sigma must be >= 0")
    if sigma == 0:
        return spectrogram
    noise = Stream(seed, "augment").normal(spectrogram.shape, sigma=sigma)
    return Tensor(spectrogram.data + noise)
