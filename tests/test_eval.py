"""Linear-probe protocol: freezing, fusion, clips, splits, reports."""

import hashlib
import json

import numpy as np
import pytest

from trimodal import config as cfg_mod
from trimodal.checkpoint import load_checkpoint
from trimodal.data import generate_synthetic
from trimodal.encoders import ModalityFeatures
from trimodal.errors import AvailabilityError, ConfigError, NumericError
from trimodal.evaluate import (MODES, ProbeConfig, embed_frozen, evaluate, evaluate_all_splits,
                               fuse_embeddings, load_probe, save_probe, train_probe)
from trimodal.layers import Linear
from trimodal.optim import Adam
from trimodal.rng import Stream
from trimodal.tensor import Tensor, backward, cross_entropy_rows


def fingerprint(stack) -> str:
    h = hashlib.sha256()
    for name, p in stack.parameters():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A stack, dataset and probe config shared by this module."""
    from trimodal.train import pretrain
    overrides = {
        "data": {"n_samples": 48, "n_classes": 3, "seed": 5, "t_video": 4,
                 "d_video": 8, "t_audio": 4, "d_audio": 6, "l_text": 4,
                 "vocab": 12, "p_available": 0.7},
        "model": {"d_model": 16, "n_heads": 2, "n_layers": 1, "d_proj": 8},
        "train": {"seed": 11, "epochs": 2, "batch_size": 8},
        "eval": {"probe_epochs": 20, "clips_per_video": 2},
    }
    cfg = cfg_mod.resolve_config(overrides=overrides)
    root = tmp_path_factory.mktemp("eval-ds")
    man = generate_synthetic(cfg_mod.synthetic_config(cfg), root)
    res = pretrain(cfg, man.root, tmp_path_factory.mktemp("eval-run") / "ck.lavc")
    ck = load_checkpoint(res.checkpoint_path)
    return cfg, man, ck.stack


class TestFreezing:
    def test_probe_training_never_touches_encoder(self, trained):
        cfg, man, stack = trained
        before = fingerprint(stack)
        train_probe(stack, man, "video", cfg_mod.probe_config(cfg))
        train_probe(stack, man, "audio+video", cfg_mod.probe_config(cfg))
        assert fingerprint(stack) == before

    def test_frozen_embedding_records_no_graph(self, trained, monkeypatch):
        _, man, stack = trained
        feats = man.load_features(man.records_for("test1")[0])
        recorded = stack.encode_video(feats.video)
        assert recorded.requires_grad
        outputs = []
        encode = stack.encode_video

        def spy(video):
            outputs.append(encode(video))
            return outputs[-1]

        monkeypatch.setattr(stack, "encode_video", spy)
        head = train_probe(stack, man, "audio+video", ProbeConfig(epochs=1))
        evaluate(stack, head, man, "test1", clips_per_video=2)
        assert outputs and not any(z.requires_grad for z in outputs)
        assert np.array_equal(embed_frozen(stack, [feats], "video")[0], recorded.data)

    @pytest.mark.parametrize("mode", MODES)
    def test_one_encoder_call_per_length_and_split(self, trained, monkeypatch, mode):
        # stacked embedding: one call per distinct sequence length per split,
        # not one per sample or clip, and none of them records a graph
        _, man, stack = trained
        calls = {"encode_video": [], "encode_audio": []}
        for name, out in calls.items():
            def spy(x, encode=getattr(stack, name), out=out):
                out.append(encode(x))
                return out[-1]
            monkeypatch.setattr(stack, name, spy)

        def lengths(split, modality):
            feats = [man.load_features(r) for r in man.records_for(split)]
            return {getattr(f, modality).shape[0] for f in feats
                    if mode == "video" or f.has_audio}

        head = train_probe(stack, man, mode, ProbeConfig(epochs=1))
        evaluate(stack, head, man, "test1", clips_per_video=4)
        video_calls = len(lengths("train", "video")) + len(lengths("test1", "video"))
        audio_calls = 0 if mode == "video" else (
            len(lengths("train", "audio")) + len(lengths("test1", "audio")))
        assert len(calls["encode_video"]) == video_calls
        assert len(calls["encode_audio"]) == audio_calls
        assert not any(z.requires_grad for out in calls.values() for z in out)

    def test_stacked_rows_keep_input_order(self, trained):
        # mixed video lengths and mixed audio availability: every row equals
        # that sample's own one-sample encoding, bit for bit
        _, _, stack = trained
        s = Stream(21, "mixed")
        shapes = [(4, 3), (2, None), (4, 5), (1, 3), (2, 1), (4, None), (1, 5)]
        samples = [ModalityFeatures(
            video=Tensor(s.normal((t_v, stack.dims["d_video_raw"]))),
            audio=None if t_a is None else Tensor(s.normal((t_a, stack.dims["d_audio_raw"]))))
            for t_v, t_a in shapes]
        for mode in MODES:
            rows = embed_frozen(stack, samples, mode)
            assert len(rows) == len(samples)
            for f, row in zip(samples, rows):
                if mode == "audio+video" and not f.has_audio:
                    assert row is None
                    continue
                expect = stack.encode_video(f.video).data
                if mode == "audio+video":
                    expect = np.concatenate([expect, stack.encode_audio(f.audio).data])
                assert row.tobytes() == expect.tobytes()


class TestProbeTraining:
    def test_default_probe_config_is_the_documented_one(self, trained):
        _, man, stack = trained
        default = train_probe(stack, man, "video")
        documented = train_probe(stack, man, "video",
                                 cfg_mod.probe_config(cfg_mod.resolve_config()))
        assert documented.linear.W.shape == default.linear.W.shape
        assert np.array_equal(default.linear.W.data, documented.linear.W.data)
        assert np.array_equal(default.linear.b.data, documented.linear.b.data)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("batch_size", [32, 7])
    def test_fit_matches_graph_loop(self, trained, mode, batch_size):
        # the graph-built minibatch loop that `train_probe` replaced: the
        # plain-array fit must reproduce its head bit for bit, including a
        # short last minibatch
        _, man, stack = trained
        cfg = ProbeConfig(epochs=4, batch_size=batch_size)
        records = man.records_for("train")
        embs = embed_frozen(stack, [man.load_features(r) for r in records], mode)
        kept = [(e, r.label) for e, r in zip(embs, records) if e is not None]
        assert len(kept) % batch_size  # the last minibatch is short
        x = np.stack([e for e, _ in kept])
        y = np.array([label for _, label in kept], dtype=np.int64)
        ref = Linear(x.shape[1], man.n_classes, cfg.seed, "probe")
        adam = Adam(ref.parameters())
        for epoch in range(cfg.epochs):
            order = Stream(cfg.seed, "probe-batches", epoch).permutation(len(x))
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                loss = cross_entropy_rows(ref.forward(Tensor(x[idx])), y[idx])
                adam.zero_grad()
                backward(loss)
                adam.step(cfg.lr)
        head = train_probe(stack, man, mode, cfg)
        assert head.linear.W.data.tobytes() == ref.W.data.tobytes()
        assert head.linear.b.data.tobytes() == ref.b.data.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("lr", [1e306, 1e308], ids=["loss-overflows", "logits-overflow"])
    def test_overflowing_fit_raises_numeric_error(self, trained, lr):
        # on this stack lr 1e306 first overflows the mean NLL, 1e308 the
        # logits (to +inf and -inf, which the finiteness screen's sum warns of)
        _, man, stack = trained
        with pytest.raises(NumericError):
            train_probe(stack, man, "video", ProbeConfig(lr=lr, epochs=2))

    def test_separable_embeddings_reach_full_train_accuracy(self, tmp_path):
        # a strong per-class mean signal with zero noise is linearly separable
        # even through a randomly initialized encoder
        overrides = {
            "data": {"n_samples": 30, "n_classes": 3, "seed": 9, "t_video": 3,
                     "d_video": 6, "t_audio": 2, "d_audio": 5, "l_text": 2,
                     "vocab": 8, "p_available": 1.0, "sigma_video": 0.0,
                     "template_scale_video": 0.0, "mean_signal_video": 5.0,
                     "offset_sigma_video": 0.0},
            "model": {"d_model": 12, "n_heads": 2, "n_layers": 0, "d_proj": 6},
            "eval": {"probe_epochs": 2000},
        }
        cfg = cfg_mod.resolve_config(overrides=overrides)
        man = generate_synthetic(cfg_mod.synthetic_config(cfg), tmp_path / "sep")
        stack = cfg_mod.encoder_stack(cfg, 3)
        head = train_probe(stack, man, "video", cfg_mod.probe_config(cfg))
        res = evaluate(stack, head, man, "train", clips_per_video=1)
        assert res.top1 == 1.0

    def test_invalid_mode_rejected(self, trained):
        _, man, stack = trained
        with pytest.raises(ConfigError):
            train_probe(stack, man, "text")

    def test_fusion_requires_audio_samples(self, trained, tmp_path):
        cfg, _, stack = trained
        synth = cfg_mod.synthetic_config(cfg)
        synth.p_available = 0.0
        man = generate_synthetic(synth, tmp_path / "noaudio")
        with pytest.raises(AvailabilityError):
            train_probe(stack, man, "audio+video", cfg_mod.probe_config(cfg))


class TestFusion:
    def test_dims_add_video_first(self):
        z_v = Tensor([1.0, 2.0])
        z_a = Tensor([3.0])
        fused = fuse_embeddings(z_v, z_a)
        assert fused.data.tolist() == [1.0, 2.0, 3.0]

    def test_rows_fuse_per_sample(self):
        fused = fuse_embeddings(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        assert fused.data.tolist() == [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]]
        with pytest.raises(ConfigError):
            fuse_embeddings(Tensor([[1.0, 2.0]]), Tensor([[5.0], [6.0]]))

    def test_missing_audio_rejected(self):
        with pytest.raises(AvailabilityError):
            fuse_embeddings(Tensor([1.0]), None)

    def test_fused_probe_input_width(self, trained):
        cfg, man, stack = trained
        head = train_probe(stack, man, "audio+video", cfg_mod.probe_config(cfg))
        assert head.d_in == 2 * stack.d_model

    def test_excluded_videos_reported(self, trained):
        cfg, man, stack = trained
        head = train_probe(stack, man, "audio+video", cfg_mod.probe_config(cfg))
        total_excluded = sum(
            evaluate(stack, head, man, s, clips_per_video=1).n_excluded
            for s in ("test1", "test2", "test3"))
        audio_free = sum(1 for r in man.records
                         if r.split != "train" and r.audio_path is None)
        assert total_excluded == audio_free


class TestClips:
    def test_one_clip_equals_single_clip_eval(self, trained):
        cfg, man, stack = trained
        head = train_probe(stack, man, "video", cfg_mod.probe_config(cfg))
        a = evaluate(stack, head, man, "test1", clips_per_video=1, seed=9)
        b = evaluate(stack, head, man, "test1", clips_per_video=1, seed=10)
        assert a.top1 == b.top1  # clip 0 is the stored block; seed is unused

    def test_identical_clips_average_to_single(self, tmp_path):
        # zero generation noise makes every regenerated clip equal the stored one
        overrides = {
            "data": {"n_samples": 24, "n_classes": 3, "seed": 4, "t_video": 3,
                     "d_video": 6, "t_audio": 2, "d_audio": 5, "l_text": 2,
                     "vocab": 8, "p_available": 1.0, "sigma_video": 0.0,
                     "offset_sigma_video": 0.0},
            "model": {"d_model": 8, "n_heads": 2, "n_layers": 0, "d_proj": 4},
            "eval": {"probe_epochs": 5},
        }
        cfg = cfg_mod.resolve_config(overrides=overrides)
        man = generate_synthetic(cfg_mod.synthetic_config(cfg), tmp_path / "nz")
        stack = cfg_mod.encoder_stack(cfg, 2)
        head = train_probe(stack, man, "video", cfg_mod.probe_config(cfg))
        one = evaluate(stack, head, man, "test1", clips_per_video=1, seed=6)
        four = evaluate(stack, head, man, "test1", clips_per_video=4, seed=6)
        assert one.top1 == four.top1

    def test_multi_clip_deterministic_in_seed(self, trained):
        cfg, man, stack = trained
        head = train_probe(stack, man, "video", cfg_mod.probe_config(cfg))
        a = evaluate(stack, head, man, "test1", clips_per_video=3, seed=7)
        b = evaluate(stack, head, man, "test1", clips_per_video=3, seed=7)
        assert a.top1 == b.top1 and a.per_class == b.per_class

    def test_zero_clips_rejected(self, trained):
        cfg, man, stack = trained
        head = train_probe(stack, man, "video", cfg_mod.probe_config(cfg))
        with pytest.raises(ConfigError):
            evaluate(stack, head, man, "test1", clips_per_video=0)


class TestReports:
    def test_mean_is_arithmetic_over_splits(self, trained):
        cfg, man, stack = trained
        head = train_probe(stack, man, "video", cfg_mod.probe_config(cfg))
        rep = evaluate_all_splits(stack, head, man, clips_per_video=1)
        split_accs = [rep.splits[s].top1 for s in ("test1", "test2", "test3")]
        assert rep.mean_top1 == sum(split_accs) / 3

    def test_report_json_roundtrip(self, trained):
        cfg, man, stack = trained
        head = train_probe(stack, man, "video", cfg_mod.probe_config(cfg))
        rep = evaluate_all_splits(stack, head, man, clips_per_video=2, seed=5)
        d = rep.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert 0.0 <= d["mean_top1"] <= 1.0

    def test_argmax_invariant_to_uniform_logit_shift(self, trained):
        cfg, man, stack = trained
        head = train_probe(stack, man, "video", cfg_mod.probe_config(cfg))
        base = evaluate(stack, head, man, "test1", clips_per_video=1)
        head.linear.b.data += 7.5  # same constant added to every class logit
        shifted = evaluate(stack, head, man, "test1", clips_per_video=1)
        assert base.top1 == shifted.top1 and base.per_class == shifted.per_class


class TestProbePersistence:
    def test_probe_head_roundtrip(self, trained, tmp_path):
        cfg, man, stack = trained
        head = train_probe(stack, man, "video", cfg_mod.probe_config(cfg))
        save_probe(tmp_path / "head.lavc", head)
        back = load_probe(tmp_path / "head.lavc")
        assert back.mode == "video" and back.n_classes == head.n_classes
        assert np.array_equal(back.linear.W.data, head.linear.W.data)
        assert np.array_equal(back.linear.b.data, head.linear.b.data)
