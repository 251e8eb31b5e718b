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

This module is the only reader of a dataset's files. `load_manifest`
checks the manifest and the `data` config that `meta.json` records
(`FormatError` on either), and a `Manifest` hands out each sample as one
`Sample` of plain arrays, read once and cached; batches and augmentation
never modify them. `Manifest.clips` regenerates the extra evaluation clips
from the templates `meta.json` names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .config import section
from .errors import ConfigError, FormatError
from .ltf import atomic_write, load_ltf, write_stream
from .rng import Stream

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


@dataclass(frozen=True)
class Sample:
    """One sample's raw inputs as plain arrays: video always, audio and text
    optional. The encoders make the model's first tensors from them."""

    id: str
    label: int
    video: np.ndarray          # [T_v, d_video]
    audio: np.ndarray | None   # [T_a, d_audio]
    text: np.ndarray | None    # [L] int64 token ids


def _block(path: Path) -> np.ndarray:
    arr = load_ltf(path)
    if arr.ndim != 2 or not arr.size:
        raise FormatError(f"{path}: expected a non-empty [T, d] feature block, "
                          f"got shape {arr.shape}")
    return arr


def _tokens(path: Path) -> np.ndarray:
    ids = load_ltf(path)
    if ids.ndim != 1 or not ids.size or not np.all(
            (ids >= 0) & (ids < 2.0**53) & (ids == np.floor(ids))):
        raise FormatError(f"{path}: expected a non-empty 1-D sequence of "
                          "non-negative integral token ids")
    return ids.astype(np.int64)


class Manifest:
    """Parsed manifest, the `data` config its `meta.json` records (None
    without one), and lazily cached samples."""

    def __init__(self, root: Path, records: list[Record], meta: dict | None,
                 config: SyntheticConfig | None):
        self.root = Path(root)
        self.records = records
        self.meta = meta
        self.config = config
        self._cache: dict[str, Sample] = {}

    def records_for(self, split: str) -> list[Record]:
        if split not in SPLITS:
            raise ConfigError(f"unknown split {split!r} (expected one of {SPLITS})")
        return [r for r in self.records if r.split == split]

    @property
    def n_classes(self) -> int:
        if self.config is not None:
            return self.config.n_classes
        return max(r.label for r in self.records) + 1

    def samples(self, split: str) -> list[Sample]:
        """The split's samples in manifest order; each is read from its
        files once and then served from the cache."""
        out = []
        for rec in self.records_for(split):
            sample = self._cache.get(rec.id)
            if sample is None:
                sample = self._cache[rec.id] = Sample(
                    rec.id, rec.label, _block(self.root / rec.video_path),
                    _block(self.root / rec.audio_path) if rec.audio_path else None,
                    _tokens(self.root / rec.text_path) if rec.text_path else None)
            out.append(sample)
        return out

    def _templates(self, modality: str) -> np.ndarray:
        where = self.root / "meta.json"
        names = self.meta.get("templates") if self.meta else None
        if names is None or self.config is None:
            raise FormatError(f"{where}: multi-clip evaluation needs the class templates and "
                              "the config that drew them (or clips_per_video=1)")
        name = names.get(modality) if isinstance(names, dict) else None
        if not isinstance(name, str):
            raise FormatError(f"{where}: templates.{modality} must name a tensor file")
        cfg = self.config
        shape = (cfg.n_classes, getattr(cfg, f"t_{modality}"), getattr(cfg, f"d_{modality}"))
        arr = load_ltf(self.root / name)
        if arr.shape != shape:
            raise FormatError(f"{where}: {modality} templates have shape {arr.shape}, "
                              f"the config needs {shape}")
        return arr

    def clips(self, samples: list[Sample], n_clips: int, seed: int, audio: bool):
        """Clips 0..n_clips-1 of every sample, sample by sample, as a list of
        video blocks and a list of audio blocks (None unless `audio`).

        Clip 0 is the sample's stored block. Clip j > 0 is a fresh draw
        around the sample's class template (the synthetic stand-in for
        another temporal crop) from the stream `(seed, "clip-video", id, j)`
        (and `"clip-audio"`); all the samples' clips come from one family
        draw per modality."""
        out = []
        modalities = (("video", sample_video), ("audio", sample_audio))
        for modality, draw in modalities[:2 if audio else 1]:
            clips = [getattr(s, modality) for s in samples]
            if n_clips > 1:
                template = self._templates(modality)[[s.label for s in samples]][:, None]
                drawn = draw(self.config, template, (seed, f"clip-{modality}",
                                                     [s.id for s in samples], range(1, n_clips)))
                clips = [clip for block, more in zip(clips, drawn) for clip in (block, *more)]
            out.append(clips)
        return out[0], out[1] if audio else None


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
    """One video feature block (one clip), or a stack of them.

    Per-position class template, plus a per-clip offset shared by every
    token (a camera/lighting-style nuisance that linear pooling cannot
    remove), plus elementwise noise. Draw order: offset, then noise.

    A `seed_key` naming a stream family (see `rng`) gives `[*family, T, d]`
    clips from a template stack that broadcasts to that shape; each clip is
    bitwise the one its member stream's key draws alone.
    """
    s = Stream(*seed_key)
    offset = s.normal(template.shape[-1], sigma=cfg.offset_sigma_video)
    noise = s.normal(template.shape[-2:], sigma=cfg.sigma_video)
    return template + offset[..., None, :] + noise


def sample_audio(cfg: SyntheticConfig, template: np.ndarray, seed_key: tuple) -> np.ndarray:
    """One audio block, or a stack of them for a family `seed_key` (as
    `sample_video`)."""
    noise = Stream(*seed_key).normal(template.shape[-2:], sigma=cfg.sigma_audio)
    return template + noise


def _write_tensor(path: Path, arr: np.ndarray) -> None:
    """A dataset tensor file, written in place: `manifest.jsonl`, replaced
    last and atomically, is what makes the dataset complete."""
    with open(path, "wb") as f:
        write_stream(f, arr)


def generate_synthetic(cfg: SyntheticConfig, out_dir, force: bool = False) -> Manifest:
    """Write a complete dataset directory and return its loaded manifest.

    The tensor files are written first, then `meta.json`, then
    `manifest.jsonl`, each of the last two atomically. With `force` the old
    manifest goes first, so a run that fails part-way leaves a directory
    that `load_manifest` refuses instead of an old manifest over new files.
    """
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        if not force:
            raise FileExistsError(f"{out}: refusing to write into a non-empty directory "
                                  "(pass force=True / --force)")
    (out / "manifest.jsonl").unlink(missing_ok=True)
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
        _write_tensor(out / video_path, video)
        audio_path = text_path = None
        if has_audio[i]:
            audio = sample_audio(cfg, m_audio[k], (cfg.seed, "audio", i))
            audio_path = f"tensors/{sid}_audio.ltf"
            _write_tensor(out / audio_path, audio)
        if has_text[i]:
            toks = _sample_text(cfg, Stream(cfg.seed, "text", i), k)
            text_path = f"tensors/{sid}_text.ltf"
            _write_tensor(out / text_path, toks.astype(np.float64))
        records.append(Record(sid, k, split_of[i], video_path, audio_path, text_path))

    _write_tensor(out / "templates_video.ltf", m_video)
    _write_tensor(out / "templates_audio.ltf", m_audio)
    meta = {
        "format": "trimodal-dataset-v1",
        "config": vars(cfg),
        "templates": {"video": "templates_video.ltf", "audio": "templates_audio.ltf"},
    }
    with atomic_write(out / "meta.json") as f:
        f.write((json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    with atomic_write(out / "manifest.jsonl") as f:
        for r in records:
            f.write((json.dumps(vars(r), sort_keys=True) + "\n").encode("utf-8"))
    return load_manifest(out)


def _parse_record(obj, where: str, root: Path) -> Record:
    """One manifest line's record, checked field by field."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: a record must be a JSON object")
    for key in ("id", "label", "split", "video_path"):
        if obj.get(key) is None:
            raise FormatError(f"{where}: missing field {key!r}")
    if not isinstance(obj["id"], str):
        raise FormatError(f"{where}: id must be a string")
    if obj["split"] not in SPLITS:
        raise FormatError(f"{where}: unknown split {obj['split']!r}")
    if type(obj["label"]) is not int or obj["label"] < 0:  # bool is an int subclass
        raise FormatError(f"{where}: label must be a non-negative int")
    rec = Record(obj["id"], obj["label"], obj["split"], obj["video_path"],
                 obj.get("audio_path"), obj.get("text_path"))
    for p in (rec.video_path, rec.audio_path, rec.text_path):
        if p is None:
            continue
        if not isinstance(p, str):
            raise FormatError(f"{where}: file paths must be strings or null")
        try:
            found = (root / p).is_file()
        except OSError as e:  # e.g. a name too long for the file system
            raise FormatError(f"{where}: unusable file path {p!r} ({e})") from e
        if not found:
            raise FileNotFoundError(f"{where}: referenced file {p!r} does not exist "
                                    "or is not a regular file")
    return rec


def _load_meta(path: Path) -> tuple[dict, SyntheticConfig | None]:
    """`meta.json` and the `data` config it records, checked against the
    schema: a dataset file that the schema rejects is a `FormatError`."""
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: not a JSON document ({e})") from e
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: expected a JSON object")
    if "config" not in meta:
        return meta, None
    if not isinstance(meta["config"], dict):
        raise FormatError(f"{path}: config must be an object")
    try:
        return meta, SyntheticConfig(**meta["config"])
    except ConfigError as e:
        raise FormatError(f"{path}: invalid config entry ({e})") from e


def load_manifest(path) -> Manifest:
    """Load a manifest (dataset dir or manifest.jsonl path), failing fast.

    Every referenced tensor file must exist at load time; a dangling path is
    reported here rather than mid-training. A malformed line raises
    `FormatError`, a missing file `FileNotFoundError`.
    """
    path = Path(path)
    manifest_path = path / "manifest.jsonl" if path.is_dir() else path
    root = manifest_path.parent
    if not manifest_path.exists():
        raise FileNotFoundError(f"{manifest_path}: no manifest found")
    records = []
    seen: set[str] = set()
    with open(manifest_path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            where = f"{manifest_path}:{lineno}"
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
            except UnicodeDecodeError as e:
                raise FormatError(f"{where}: not UTF-8 ({e.reason})") from e
            except json.JSONDecodeError as e:
                raise FormatError(f"{where}: invalid JSON ({e.msg})") from e
            rec = _parse_record(obj, where, root)
            if rec.id in seen:  # features and clip streams are keyed by id
                raise FormatError(f"{where}: duplicate id {rec.id!r}")
            seen.add(rec.id)
            records.append(rec)
    if not records:
        raise FormatError(f"{manifest_path}: empty manifest")
    meta_path = root / "meta.json"
    meta, config = _load_meta(meta_path) if meta_path.exists() else (None, None)
    man = Manifest(root, records, meta, config)
    n_classes = man.n_classes
    for rec in records:
        if rec.label >= n_classes:
            raise FormatError(f"label {rec.label} out of range for {n_classes} classes")
    return man


def make_batches(manifest: Manifest, split: str, batch_size: int, seed: int,
                 epoch: int) -> list[list[Sample]]:
    """Shuffle a split with a stream keyed on (seed, epoch) and chunk it into
    batches, each a list of the manifest's cached samples."""
    if batch_size < 2:
        raise ConfigError("batch_size must be >= 2 (contrastive losses need negatives)")
    samples = manifest.samples(split)
    if not samples:
        raise ConfigError(f"split {split!r} is empty")
    order = Stream(seed, "batches", epoch).permutation(len(samples))
    shuffled = [samples[i] for i in order]
    return [shuffled[start:start + batch_size] for start in range(0, len(shuffled), batch_size)]


def augment_audio(spectrogram: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Add seeded elementwise Gaussian noise; sigma = 0 is the identity."""
    if sigma < 0:
        raise ConfigError("sigma must be >= 0")
    if sigma == 0:
        return spectrogram
    return spectrogram + Stream(seed, "augment").normal(spectrogram.shape, sigma=sigma)
