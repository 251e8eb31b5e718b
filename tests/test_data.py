"""Synthetic generation, manifests, batching, augmentation."""

import json

import numpy as np
import pytest

from trimodal.data import (SPLITS, SyntheticConfig, _sample_text, augment_audio,
                           generate_synthetic, load_manifest, make_batches)
from trimodal.errors import ConfigError, FormatError
from trimodal.ltf import save_ltf
from trimodal.rng import Stream
from trimodal.tensor import Tensor


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
        for rec in man.records:
            feats = man.load_features(rec)
            key = rec.label
            if key in by_class:
                assert np.array_equal(feats.video.data, by_class[key][0])
                assert np.array_equal(feats.audio.data, by_class[key][1])
            else:
                by_class[key] = (feats.video.data, feats.audio.data)
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
                toks = man.load_features(rec).text
                assert toks.min() >= 0 and toks.max() < 16

    def test_per_clip_offset_is_shared_across_tokens(self, tmp_path):
        from trimodal.data import sample_video
        cfg = tiny_synth(sigma_video=0.0, offset_sigma_video=2.0)
        template = np.zeros((cfg.t_video, cfg.d_video))
        clip = sample_video(cfg, template, (1, "clip", 0))
        assert np.allclose(clip, clip[0][None, :])  # every token sees one offset
        assert np.abs(clip[0]).max() > 0.0

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

    def test_roundtrip_preserves_records(self, tmp_path):
        man = generate_synthetic(tiny_synth(), tmp_path / "ds")
        again = load_manifest(man.root)
        assert [r.id for r in again.records] == [r.id for r in man.records]
        assert again.n_classes == 4


class TestBatching:
    def test_same_seed_epoch_identical(self, tiny_dataset):
        a = make_batches(tiny_dataset, "train", 8, seed=9, epoch=1)
        b = make_batches(tiny_dataset, "train", 8, seed=9, epoch=1)
        assert [s.id for x in a for s in x.samples] == [s.id for x in b for s in x.samples]

    def test_different_epochs_differ(self, tiny_dataset):
        a = make_batches(tiny_dataset, "train", 8, seed=9, epoch=0)
        b = make_batches(tiny_dataset, "train", 8, seed=9, epoch=1)
        assert [s.id for x in a for s in x.samples] != [s.id for x in b for s in x.samples]

    def test_batch_size_one_rejected(self, tiny_dataset):
        with pytest.raises(ConfigError):
            make_batches(tiny_dataset, "train", 1, seed=9, epoch=0)

    def test_covers_split_exactly_once(self, tiny_dataset):
        batches = make_batches(tiny_dataset, "train", 8, seed=9, epoch=0)
        ids = [s.id for b in batches for s in b.samples]
        expected = [r.id for r in tiny_dataset.records_for("train")]
        assert sorted(ids) == sorted(expected)
        assert all(len(b) == 8 for b in batches[:-1])


class TestAugmentAudio:
    def test_sigma_zero_is_identity(self):
        spec = Tensor(Stream(1).normal((4, 5)))
        assert augment_audio(spec, 0.0, seed=7) is spec

    def test_noise_statistics(self):
        spec = Tensor(np.zeros((250, 400)))  # 1e5 elements
        out = augment_audio(spec, 0.3, seed=8)
        diff = out.data - spec.data
        n = diff.size
        assert abs(diff.mean()) < 4 * 0.3 / np.sqrt(n)
        assert abs(diff.std() - 0.3) < 0.01

    def test_same_seed_same_noise(self):
        spec = Tensor(Stream(2).normal((3, 4)))
        a = augment_audio(spec, 0.5, seed=11)
        b = augment_audio(spec, 0.5, seed=11)
        c = augment_audio(spec, 0.5, seed=12)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            augment_audio(Tensor([1.0]), -0.1, seed=1)
