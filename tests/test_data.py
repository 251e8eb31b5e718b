"""Synthetic generation, manifests, batching, augmentation."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimodal import config as cfg_mod
from trimodal import data
from trimodal import train as train_mod
from trimodal.data import (SPLITS, SyntheticConfig, _sample_text, augment_audio,
                           generate_synthetic, load_manifest, make_batches, sample_audio,
                           sample_video)
from trimodal.errors import ConfigError, FormatError
from trimodal.ltf import save_ltf
from trimodal.rng import Stream


def tiny_synth(**kw):
    args = dict(n_samples=40, n_classes=4, seed=3, t_video=3, d_video=6,
                t_audio=3, d_audio=5, l_text=3, vocab=16, p_available=0.6)
    args.update(kw)
    return SyntheticConfig(**args)


class TestGeneration:
    def test_noise_free_samples_identical_per_class(self, tmp_path):
        cfg = tiny_synth(p_available=1.0, sigma_video=0.0, sigma_audio=0.0,
                         offset_sigma_video=0.0)
        man = generate_synthetic(cfg, tmp_path / "ds")
        by_class = {}
        for sample in (s for split in SPLITS for s in man.samples(split)):
            key = sample.label
            if key in by_class:
                assert np.array_equal(sample.video, by_class[key][0])
                assert np.array_equal(sample.audio, by_class[key][1])
            else:
                by_class[key] = (sample.video, sample.audio)
        assert len(by_class) == cfg.n_classes

    def test_availability_rate_within_four_sigma(self, tmp_path):
        cfg = SyntheticConfig(n_samples=480, n_classes=8, seed=42)
        man = generate_synthetic(cfg, tmp_path / "ds480")
        n_joint = sum(1 for r in man.records if r.audio_path and r.text_path)
        expected = 480 * 0.625
        sigma = np.sqrt(480 * 0.625 * 0.375)
        assert abs(n_joint - expected) <= 4 * sigma
        # audio and text availability are tied by default (one coin flip)
        assert all((r.audio_path is None) == (r.text_path is None) for r in man.records)

    def test_same_seed_bitwise_identical_files(self, tmp_path):
        cfg = tiny_synth()
        a = generate_synthetic(cfg, tmp_path / "a")
        b = generate_synthetic(cfg, tmp_path / "b")
        for ra, rb in zip(a.records, b.records):
            assert (a.root / ra.video_path).read_bytes() == (b.root / rb.video_path).read_bytes()
        assert (a.root / "manifest.jsonl").read_bytes() == (b.root / "manifest.jsonl").read_bytes()
        assert (a.root / "meta.json").read_bytes() == (b.root / "meta.json").read_bytes()

    def test_refuses_nonempty_dir_without_force(self, tmp_path):
        out = tmp_path / "ds"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        with pytest.raises(FileExistsError):
            generate_synthetic(tiny_synth(), out)
        generate_synthetic(tiny_synth(), out, force=True)

    def test_splits_are_stratified(self, tmp_path):
        man = generate_synthetic(tiny_synth(n_samples=120), tmp_path / "ds")
        for split in ("test1", "test2", "test3"):
            labels = {r.label for r in man.records_for(split)}
            assert labels == set(range(4))
        sizes = {s: len(man.records_for(s)) for s in SPLITS}
        assert sizes["test1"] == sizes["test2"] == sizes["test3"]
        assert sizes["train"] == 120 - 3 * sizes["test1"]

    def test_text_tokens_respect_vocab(self, tmp_path):
        man = generate_synthetic(tiny_synth(), tmp_path / "ds")
        for rec in man.records:
            if rec.text_path:
                (toks,) = [s.text for s in man.samples(rec.split) if s.id == rec.id]
                assert toks.min() >= 0 and toks.max() < 16

    def test_per_clip_offset_is_shared_across_tokens(self, tmp_path):
        from trimodal.data import sample_video
        cfg = tiny_synth(sigma_video=0.0, offset_sigma_video=2.0)
        template = np.zeros((cfg.t_video, cfg.d_video))
        clip = sample_video(cfg, template, (1, "clip", 0))
        assert np.allclose(clip, clip[0][None, :])  # every token sees one offset
        assert np.abs(clip[0]).max() > 0.0

    def test_clip_stack_matches_per_clip_loop(self):
        # one family draw per modality against one stream per (record, clip)
        cfg = tiny_synth(offset_sigma_video=0.7)
        m_video = Stream(2, "tv").normal((cfg.n_classes, cfg.t_video, cfg.d_video))
        m_audio = Stream(2, "ta").normal((cfg.n_classes, cfg.t_audio, cfg.d_audio))
        ids, labels = ["s0003", "s0011", "s0012", "x"], [2, 0, 2, 3]
        video = sample_video(cfg, m_video[labels][:, None], (5, "clip-video", ids, range(1, 4)))
        audio = sample_audio(cfg, m_audio[labels][:, None], (5, "clip-audio", ids, range(1, 4)))
        assert video.shape == (4, 3, cfg.t_video, cfg.d_video)
        assert audio.shape == (4, 3, cfg.t_audio, cfg.d_audio)
        for r, (sid, label) in enumerate(zip(ids, labels)):
            for j in range(1, 4):
                want_v = sample_video(cfg, m_video[label], (5, "clip-video", sid, j))
                want_a = sample_audio(cfg, m_audio[label], (5, "clip-audio", sid, j))
                assert video[r, j - 1].tobytes() == want_v.tobytes()
                assert audio[r, j - 1].tobytes() == want_a.tobytes()

    @pytest.mark.parametrize("force", [False, True])
    def test_failed_generation_leaves_no_manifest(self, tmp_path, monkeypatch, force):
        # manifest.jsonl is the commit point: a run that dies among the tensor
        # writes leaves a directory that does not load, also over an old dataset
        out = tmp_path / "ds"
        if force:
            generate_synthetic(tiny_synth(), out)
        calls = []
        real = data.write_stream

        def failing(f, arr):
            calls.append(1)
            if len(calls) == 7:
                raise OSError("disk full")
            real(f, arr)

        monkeypatch.setattr(data, "write_stream", failing)
        with pytest.raises(OSError, match="disk full"):
            generate_synthetic(tiny_synth(seed=4), out, force=force)
        with pytest.raises(FileNotFoundError):
            load_manifest(out)
        monkeypatch.undo()
        generate_synthetic(tiny_synth(seed=4), out, force=True)
        assert load_manifest(out).records
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_independent_availability_mode(self, tmp_path):
        cfg = tiny_synth(n_samples=200, independent_availability=True)
        man = generate_synthetic(cfg, tmp_path / "ds")
        pairs = [(r.audio_path is None, r.text_path is None) for r in man.records]
        assert any(a != t for a, t in pairs)

    @pytest.mark.parametrize("informativeness", [0.0, 0.5, 0.9, 1.0])
    def test_text_block_matches_scalar_draws(self, informativeness):
        # reference: one coin, then one id, per token, from scalar stream calls
        cfg = tiny_synth(l_text=20, vocab=40, text_informativeness=informativeness)
        sub = cfg.vocab // (2 * cfg.n_classes)
        for label in range(cfg.n_classes):
            ref = Stream(9, "text", label)
            expected = [label * sub + int(ref.integers(1, sub)[0])
                        if ref.uniform() < informativeness
                        else int(ref.integers(1, cfg.vocab)[0]) for _ in range(cfg.l_text)]
            toks = _sample_text(cfg, Stream(9, "text", label), label)
            assert toks.dtype == np.int64 and toks.tolist() == expected

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            tiny_synth(p_available=1.5)
        with pytest.raises(ConfigError):
            tiny_synth(vocab=4)  # too small for per-class sub-vocabularies


class TestManifestLoading:
    def test_missing_file_fails_at_load_time(self, tmp_path):
        man = generate_synthetic(tiny_synth(), tmp_path / "ds")
        victim = next(r for r in man.records if r.audio_path)
        (man.root / victim.audio_path).unlink()
        with pytest.raises(FileNotFoundError, match="does not exist"):
            load_manifest(man.root)

    def test_bad_json_line_reported_with_line_number(self, tmp_path):
        man = generate_synthetic(tiny_synth(), tmp_path / "ds")
        path = man.root / "manifest.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=":3:"):
            load_manifest(man.root)

    def test_missing_required_field(self, tmp_path):
        root = tmp_path / "ds"
        root.mkdir()
        save_ltf(root / "v.ltf", np.zeros((2, 2)))
        (root / "manifest.jsonl").write_text(
            json.dumps({"id": "x", "label": 0, "split": "train"}) + "\n")
        with pytest.raises(FormatError, match="video_path"):
            load_manifest(root)

    def test_unknown_split_rejected(self, tmp_path):
        root = tmp_path / "ds"
        root.mkdir()
        save_ltf(root / "v.ltf", np.zeros((2, 2)))
        (root / "manifest.jsonl").write_text(json.dumps(
            {"id": "x", "label": 0, "split": "dev", "video_path": "v.ltf"}) + "\n")
        with pytest.raises(FormatError, match="dev"):
            load_manifest(root)

    @pytest.mark.parametrize("line, match", [
        (b"[1, 2]", "JSON object"),
        (b"5", "JSON object"),
        (b'"train"', "JSON object"),
        (b'{"id": "x", "label": 0, "split": "train", "video_path": 5}', "file paths"),
        (b'{"id": "x", "label": 0, "split": "train", "video_path": "v.ltf", '
         b'"audio_path": ["v.ltf"]}', "file paths"),
        (b'{"id": "x", "label": true, "split": "train", "video_path": "v.ltf"}', "label"),
        (b'{"id": "x", "label": 1.0, "split": "train", "video_path": "v.ltf"}', "label"),
        (b'{"id": 3, "label": 0, "split": "train", "video_path": "v.ltf"}', "id"),
        (b'{"id": "x", "label": 0, "split": ["train"], "video_path": "v.ltf"}', "split"),
        (b'{"id": "x\xff", "label": 0}', "UTF-8"),
    ])
    def test_malformed_record_is_format_error(self, tmp_path, line, match):
        root = tmp_path / "ds"
        root.mkdir()
        save_ltf(root / "v.ltf", np.zeros((2, 2)))
        (root / "manifest.jsonl").write_bytes(line + b"\n")
        with pytest.raises(FormatError, match=match):
            load_manifest(root)

    def test_duplicate_id_rejected(self, tmp_path):
        # features are cached and clip streams keyed by id: a duplicate would
        # silently take the first record's features
        root = tmp_path / "ds"
        root.mkdir()
        save_ltf(root / "v.ltf", np.zeros((2, 2)))
        rec = {"id": "x", "label": 0, "split": "train", "video_path": "v.ltf"}
        (root / "manifest.jsonl").write_text(
            json.dumps(rec) + "\n" + json.dumps({**rec, "label": 1}) + "\n")
        with pytest.raises(FormatError, match=":2: duplicate id 'x'"):
            load_manifest(root)

    def test_directory_path_is_not_a_file(self, tmp_path):
        root = tmp_path / "ds"
        root.mkdir()
        (root / "manifest.jsonl").write_text(json.dumps(
            {"id": "x", "label": 0, "split": "train", "video_path": ""}) + "\n")
        with pytest.raises(FileNotFoundError, match="not a regular file"):
            load_manifest(root)

    def test_malformed_meta_is_format_error(self, tmp_path):
        man = generate_synthetic(tiny_synth(), tmp_path / "ds")
        # the config is checked once, at load, against the whole `data` schema
        for text in ("{", "[]", '{"config": 3}', '{"config": {"n_classes": "4"}}',
                     '{"config": {"n_classes": 1}}', '{"config": {"bogus": 1}}',
                     '{"config": {"t_video": 0}}', '{"config": {"vocab": 4}}'):
            (man.root / "meta.json").write_text(text)
            with pytest.raises(FormatError, match="meta.json"):
                load_manifest(man.root)

    def test_roundtrip_preserves_records(self, tmp_path):
        man = generate_synthetic(tiny_synth(), tmp_path / "ds")
        again = load_manifest(man.root)
        assert [r.id for r in again.records] == [r.id for r in man.records]
        assert again.n_classes == 4


_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
                    st.floats(), st.text(max_size=6))
_VALUE = st.recursive(_SCALAR, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_PATH = st.one_of(st.sampled_from(["v.ltf", "v.ltf", "missing.ltf", "", ".", "v.ltf\x00"]),
                  _VALUE)
_RECORD = st.fixed_dictionaries({}, optional={
    "id": st.one_of(st.sampled_from(["a", "b", "c"]), _VALUE),
    "label": st.one_of(st.integers(-1, 3), _VALUE),
    "split": st.one_of(st.sampled_from(SPLITS), _VALUE),
    "video_path": _PATH, "audio_path": _PATH, "text_path": _PATH,
})
_LINE = st.one_of(st.binary(max_size=24), _VALUE.map(json.dumps).map(str.encode),
                  _RECORD.map(json.dumps).map(str.encode))


class TestArbitraryManifests:
    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("manifest-lines")
        save_ltf(root / "v.ltf", np.zeros((2, 2)))
        return root

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.one_of(_RECORD.map(json.dumps).map(str.encode), _LINE),
                          max_size=4))
    @example(lines=[b"[1, 2]"])
    @example(lines=[b'{"id": "a", "label": 0, "split": "train", "video_path": 5}'])
    @example(lines=[b'{"id": "a", "label": 0, "split": "train", "video_path": "v.ltf"}'] * 2)
    def test_loads_or_raises_typed_error(self, root, lines):
        (root / "manifest.jsonl").write_bytes(b"\n".join(lines) + b"\n")
        try:
            man = load_manifest(root)
        except (FormatError, FileNotFoundError):
            return
        ids = [r.id for r in man.records]
        assert len(set(ids)) == len(ids) and all(isinstance(i, str) for i in ids)
        assert all(type(r.label) is int and 0 <= r.label < man.n_classes for r in man.records)
        assert all(r.split in SPLITS for r in man.records)


class TestBatching:
    def test_same_seed_epoch_identical(self, tiny_dataset):
        a = make_batches(tiny_dataset, "train", 8, seed=9, epoch=1)
        b = make_batches(tiny_dataset, "train", 8, seed=9, epoch=1)
        assert [s.id for x in a for s in x] == [s.id for x in b for s in x]

    def test_different_epochs_differ(self, tiny_dataset):
        a = make_batches(tiny_dataset, "train", 8, seed=9, epoch=0)
        b = make_batches(tiny_dataset, "train", 8, seed=9, epoch=1)
        assert [s.id for x in a for s in x] != [s.id for x in b for s in x]

    def test_batch_size_one_rejected(self, tiny_dataset):
        with pytest.raises(ConfigError):
            make_batches(tiny_dataset, "train", 1, seed=9, epoch=0)

    def test_batches_hold_the_cached_samples(self, fresh_manifest):
        # every batch entry is the manifest's own cached Sample, not a copy
        cached = {s.id: s for s in fresh_manifest.samples("train")}
        for epoch in (0, 1):
            batches = make_batches(fresh_manifest, "train", 8, seed=9, epoch=epoch)
            assert all(s is cached[s.id] for b in batches for s in b)
            assert all(type(s.video) is np.ndarray for b in batches for s in b)

    def test_covers_split_exactly_once(self, tiny_dataset):
        batches = make_batches(tiny_dataset, "train", 8, seed=9, epoch=0)
        ids = [s.id for b in batches for s in b]
        expected = [r.id for r in tiny_dataset.records_for("train")]
        assert sorted(ids) == sorted(expected)
        assert all(len(b) == 8 for b in batches[:-1])


class TestAugmentAudio:
    def test_sigma_zero_is_identity(self):
        spec = Stream(1).normal((4, 5))
        assert augment_audio(spec, 0.0, seed=7) is spec

    def test_noise_statistics(self):
        spec = np.zeros((250, 400))  # 1e5 elements
        out = augment_audio(spec, 0.3, seed=8)
        assert type(out) is np.ndarray and not np.shares_memory(out, spec)
        diff = out - spec
        n = diff.size
        assert abs(diff.mean()) < 4 * 0.3 / np.sqrt(n)
        assert abs(diff.std() - 0.3) < 0.01

    def test_same_seed_same_noise(self):
        spec = Stream(2).normal((3, 4))
        a = augment_audio(spec, 0.5, seed=11)
        b = augment_audio(spec, 0.5, seed=11)
        c = augment_audio(spec, 0.5, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            augment_audio(np.array([1.0]), -0.1, seed=1)

    def test_pretraining_leaves_cached_samples_unchanged(self, tiny_cfg, tiny_dataset,
                                                          tmp_path, monkeypatch):
        # augmentation makes new audio arrays: the manifest's cached samples
        # keep every byte through a pre-training epoch
        def raw_bytes(samples):
            return [tuple(None if x is None else x.tobytes() for x in (s.video, s.audio, s.text))
                    for s in samples]

        man = load_manifest(tiny_dataset.root)
        samples = [s for split in SPLITS for s in man.samples(split)]
        before = raw_bytes(samples)
        assert any(s.audio is not None for s in man.samples("train"))
        monkeypatch.setattr(train_mod, "load_manifest", lambda _: man)
        cfg = cfg_mod.resolve_config(overrides={**tiny_cfg, "train": {
            **tiny_cfg["train"], "epochs": 1, "augment_sigma_audio": 0.5}})
        train_mod.pretrain(cfg, tiny_dataset.root, tmp_path / "ck.lavc")
        again = [s for split in SPLITS for s in man.samples(split)]
        assert all(a is b for a, b in zip(again, samples))
        assert raw_bytes(samples) == before
