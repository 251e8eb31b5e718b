"""Linear-probe protocol: freezing, fusion, clips, splits, reports."""

import hashlib
import json
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from trimodal import config as cfg_mod
from trimodal import data as data_mod
from trimodal import evaluate as evaluate_mod
from trimodal.checkpoint import _write_archive, load_checkpoint
from trimodal.data import SyntheticConfig, generate_synthetic, sample_audio, sample_video
from trimodal.errors import AvailabilityError, ConfigError, NumericError
from trimodal.evaluate import (MODES, TEST_SPLITS, ProbeConfig, ProbeHead, SplitResult,
                               embed_frozen, evaluate, evaluate_all_splits, load_probe,
                               save_probe, train_probe)
from trimodal.layers import Linear
from trimodal.ltf import load_ltf
from trimodal.optim import Adam
from trimodal.rng import Stream
from trimodal.tensor import Tensor, backward, cross_entropy_rows, no_grad


def fingerprint(stack) -> str:
    h = hashlib.sha256()
    for name, p in stack.parameters():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


def stored(man, split, mode):
    """The split's samples that `mode` embeds, their stored video blocks
    and, for the fused probe, their audio blocks (None for the video probe)."""
    samples = [s for s in man.samples(split) if mode == "video" or s.audio is not None]
    return (samples, [s.video for s in samples],
            None if mode == "video" else [s.audio for s in samples])


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
        sample = man.samples("test1")[0]
        recorded = stack.encode_video(sample.video)
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
        assert np.array_equal(embed_frozen(stack, [sample.video])[0], recorded.data)

    @pytest.mark.parametrize("mode", MODES)
    def test_chunked_encoder_calls_per_length_and_split(self, trained, monkeypatch, mode):
        # each split's sequences of one length T go through the encoder in
        # consecutive stacks of `max(1, BUDGET // (T * d_model))`, the last
        # one short, not one per sample or clip; none records a graph
        _, man, stack = trained
        monkeypatch.setattr(evaluate_mod, "BUDGET", 5 * 4 * stack.d_model + 3)
        calls = {"encode_video": [], "encode_audio": []}
        for name, out in calls.items():
            def spy(x, encode=getattr(stack, name), out=out):
                z = encode(x)
                out.append((len(x), z.requires_grad))
                return z
            monkeypatch.setattr(stack, name, spy)

        def sizes(split, modality, clips):
            lengths = Counter(getattr(s, modality).shape[0]
                              for s in stored(man, split, mode)[0] for _ in range(clips))
            out = []
            for t, n in lengths.items():
                chunk = max(1, evaluate_mod.BUDGET // (t * stack.d_model))
                out += [chunk] * (n // chunk) + [n % chunk] * (n % chunk > 0)
            return out

        head = train_probe(stack, man, mode, ProbeConfig(epochs=1))
        evaluate(stack, head, man, "test1", clips_per_video=4)
        video = sizes("train", "video", 1) + sizes("test1", "video", 4)
        audio = [] if mode == "video" else sizes("train", "audio", 1) + sizes("test1", "audio", 4)
        assert max(video) == 5 and len(video) > len(set(video))
        assert [n for n, _ in calls["encode_video"]] == video
        assert [n for n, _ in calls["encode_audio"]] == audio
        assert not any(graph for out in calls.values() for _, graph in out)

    def test_stacked_rows_keep_input_order(self, trained, monkeypatch):
        # mixed video and audio lengths: every row equals that sample's own
        # one-sample encoding, bit for bit, in one stack per length and in
        # chunks (at BUDGET 128 the 3 videos of length 4 go as 2 + 1, the 2
        # audios of length 5 as 1 + 1; at BUDGET 1 every call is one sample)
        _, _, stack = trained
        s = Stream(21, "mixed")
        shapes = [(4, 3), (2, 2), (4, 5), (1, 3), (2, 1), (4, 4), (1, 5)]
        video = [s.normal((t_v, stack.video_in.W.shape[0])) for t_v, _ in shapes]
        audio = [s.normal((t_a, stack.audio_mlp.l1.W.shape[0])) for _, t_a in shapes]
        for budget in (evaluate_mod.BUDGET, 128, 1):
            monkeypatch.setattr(evaluate_mod, "BUDGET", budget)
            for rows, with_audio in ((embed_frozen(stack, video), False),
                                     (embed_frozen(stack, video, audio), True)):
                assert rows.shape == (len(shapes), (1 + with_audio) * stack.d_model)
                for r, row in enumerate(rows):
                    expect = stack.encode_video(video[r]).data
                    if with_audio:
                        expect = np.concatenate([expect, stack.encode_audio(audio[r]).data])
                    assert row.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_chunks_keep_heads_and_reports(self, trained, monkeypatch, mode):
        # chunks of 5 clips, the last of a split short: the probe head
        # and the 4-clip report equal those of one stack per length
        cfg, man, stack = trained
        head = train_probe(stack, man, mode, cfg_mod.probe_config(cfg))
        report = evaluate_all_splits(stack, head, man, clips_per_video=4, seed=5).to_dict()
        monkeypatch.setattr(evaluate_mod, "BUDGET", 5 * 4 * stack.d_model)
        assert any(4 * r["n"] % 5 for r in report["splits"].values())
        chunked = train_probe(stack, man, mode, cfg_mod.probe_config(cfg))
        assert chunked.W.tobytes() == head.W.tobytes()
        assert chunked.b.tobytes() == head.b.tobytes()
        assert evaluate_all_splits(stack, chunked, man, clips_per_video=4,
                                   seed=5).to_dict() == report


class TestProbeTraining:
    def test_default_probe_config_is_the_documented_one(self, trained):
        _, man, stack = trained
        default = train_probe(stack, man, "video")
        documented = train_probe(stack, man, "video",
                                 cfg_mod.probe_config(cfg_mod.resolve_config()))
        assert documented.W.shape == default.W.shape
        assert np.array_equal(default.W, documented.W)
        assert np.array_equal(default.b, documented.b)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("batch_size", [32, 7, 2, 64])
    def test_fit_matches_graph_loop(self, trained, mode, batch_size):
        # the graph-built minibatch loop that `train_probe` replaced: the
        # plain-array fit must reproduce its head bit for bit, including a
        # short last minibatch (of one row at batch size 2: the train split
        # has 39 videos, 29 with audio) and one minibatch per epoch (64)
        _, man, stack = trained
        cfg = ProbeConfig(epochs=4, batch_size=batch_size)
        samples, video, audio = stored(man, "train", mode)
        assert len(samples) % batch_size  # the last minibatch is short
        x = embed_frozen(stack, video, audio)
        y = np.array([s.label for s in samples], dtype=np.int64)
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
        assert head.W.tobytes() == ref.W.data.tobytes()
        assert head.b.tobytes() == ref.b.data.tobytes()

    @pytest.mark.parametrize("lr", [1e306, 1e308], ids=["loss-overflows", "logits-overflow"])
    def test_overflowing_fit_raises_numeric_error(self, trained, lr):
        # on this stack lr 1e306 first overflows the mean NLL, 1e308 the
        # logits (to +inf and -inf); the fit raises without a numpy warning
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
    def test_fused_rows_put_video_first(self, trained):
        # each fused row is the sample's video embedding, then its audio one
        _, man, stack = trained
        _, video, audio = stored(man, "test1", "audio+video")
        fused, video_rows = embed_frozen(stack, video, audio), embed_frozen(stack, video)
        d = stack.d_model
        assert fused[:, :d].tobytes() == video_rows.tobytes()
        with no_grad():
            audio_rows = stack.encode_audio(np.stack(audio)).data
        assert fused[:, d:].tobytes() == audio_rows.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_row_width(self, trained, mode):
        _, man, stack = trained
        samples, video, audio = stored(man, "train", mode)
        width = stack.d_model * (1 if mode == "video" else 2)
        assert embed_frozen(stack, video, audio).shape == (len(samples), width)

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

    @pytest.mark.parametrize("mode", MODES)
    def test_clip_stack_matches_per_clip_loop(self, trained, mode):
        # the reference: one `sample_video` / `sample_audio` call per
        # (sample, clip), keyed (seed, "clip-<modality>", id, j)
        _, man, _ = trained
        fused = mode == "audio+video"
        recs = stored(man, "test1", mode)[0] + stored(man, "train", mode)[0]
        clip_video, clip_audio = man.clips(recs, 3, 13, fused)
        synth = SyntheticConfig(**man.meta["config"])
        m_video = load_ltf(man.root / man.meta["templates"]["video"])
        m_audio = load_ltf(man.root / man.meta["templates"]["audio"])
        assert len(clip_video) == 3 * len(recs)
        if fused:
            assert len(clip_audio) == 3 * len(recs)
        else:
            assert clip_audio is None
        for r, rec in enumerate(recs):
            assert clip_video[3 * r] is rec.video
            if fused:
                assert clip_audio[3 * r] is rec.audio
            for j in (1, 2):
                want = sample_video(synth, m_video[rec.label], (13, "clip-video", rec.id, j))
                assert clip_video[3 * r + j].tobytes() == want.tobytes()
                if fused:
                    want = sample_audio(synth, m_audio[rec.label], (13, "clip-audio", rec.id, j))
                    assert clip_audio[3 * r + j].tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_one_clip_draw_per_modality_and_split(self, trained, monkeypatch, mode):
        cfg, man, stack = trained
        head = train_probe(stack, man, mode, cfg_mod.probe_config(cfg))
        calls = []
        for name in ("sample_video", "sample_audio"):
            real = getattr(data_mod, name)
            monkeypatch.setattr(data_mod, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        evaluate_all_splits(stack, head, man, clips_per_video=4, seed=3)
        per_split = ["sample_video"] + (["sample_audio"] if mode == "audio+video" else [])
        assert calls == per_split * 3

    def test_zero_clips_rejected(self, trained):
        cfg, man, stack = trained
        head = train_probe(stack, man, "video", cfg_mod.probe_config(cfg))
        with pytest.raises(ConfigError):
            evaluate(stack, head, man, "test1", clips_per_video=0)


def per_record_split(stack, head, man, split, clips, seed) -> SplitResult:
    """The reference for `evaluate`'s one stacked product: each video's
    `[J, d]` clip embeddings times W, plus b, averaged over its clips, then
    hits and totals counted record by record."""
    scored, video, audio = stored(man, split, head.mode)
    if clips > 1:
        video, audio = man.clips(scored, clips, seed, audio is not None)
    embs = embed_frozen(stack, video, audio)
    hits, totals, correct = {}, {}, 0
    for r, rec in enumerate(scored):
        logits = (embs[r * clips:(r + 1) * clips] @ head.W + head.b).mean(axis=0)
        totals[rec.label] = totals.get(rec.label, 0) + 1
        if int(np.argmax(logits)) == rec.label:
            correct += 1
            hits[rec.label] = hits.get(rec.label, 0) + 1
    return SplitResult(split=split, top1=correct / len(scored), n=len(scored),
                       n_excluded=len(man.records_for(split)) - len(scored),
                       per_class={k: hits.get(k, 0) / t for k, t in sorted(totals.items())},
                       class_counts={k: (hits.get(k, 0), t) for k, t in sorted(totals.items())})


class TestScoring:
    @pytest.mark.parametrize("clips", [1, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_stacked_scoring_matches_per_record_loop(self, trained, mode, clips):
        # a fitted head and a random one (which misses), on every split; the
        # repr compares every field's value and type
        cfg, man, stack = trained
        fitted = train_probe(stack, man, mode, cfg_mod.probe_config(cfg))
        s = Stream(8, "random-head", mode)
        random = ProbeHead(s.normal(fitted.W.shape), s.normal(fitted.n_classes), mode)
        top1 = []
        for head in (fitted, random):
            for split in ("train",) + TEST_SPLITS:
                got = evaluate(stack, head, man, split, clips, seed=5)
                assert repr(asdict(got)) == repr(asdict(
                    per_record_split(stack, head, man, split, clips, seed=5)))
                top1.append(got.top1)
        assert any(0.0 < t < 1.0 for t in top1)


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
        head.b += 7.5  # same constant added to every class logit
        shifted = evaluate(stack, head, man, "test1", clips_per_video=1)
        assert base.top1 == shifted.top1 and base.per_class == shifted.per_class


class TestProbePersistence:
    def test_probe_head_roundtrip(self, trained, tmp_path):
        cfg, man, stack = trained
        head = train_probe(stack, man, "video", cfg_mod.probe_config(cfg))
        save_probe(tmp_path / "head.lavc", head)
        back = load_probe(tmp_path / "head.lavc")
        assert back.mode == "video" and back.n_classes == head.n_classes
        assert np.array_equal(back.W, head.W)
        assert np.array_equal(back.b, head.b)

    @pytest.mark.parametrize("blob", [{"mode": "audio+video"},
                                      {"mode": "audio+video", "n_classes": 3}],
                             ids=["mode-only", "with-n_classes"])
    def test_head_shape_comes_from_its_weight(self, tmp_path, blob):
        # heads store only their mode; those written with `n_classes` as well
        # still load, and the weight alone sets the head's shape
        W, b = Stream(3, "head").normal((6, 3)), Stream(4, "head").normal(3)
        path = tmp_path / "head.lavc"
        _write_archive(path, [("param.probe.W", W), ("param.probe.b", b),
                              ("config", np.frombuffer(json.dumps(blob).encode(), np.uint8))])
        head = load_probe(path)
        assert (head.mode, head.d_in, head.n_classes) == ("audio+video", 6, 3)
        assert head.W.tobytes() == W.tobytes()
        assert head.b.tobytes() == b.tobytes()
