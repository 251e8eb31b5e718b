"""Acceptance suite.

Each test is one acceptance criterion, run at its stated tolerance, and
prints a single PASS/FAIL line (straight to the real stdout so the lines
survive pytest capture). The expensive artifacts (default 480-sample
dataset, three 25-epoch pre-training runs) are module-scoped fixtures.

Calibrated on the default config (seed 42): trained video probe 1.00,
random-init probe 0.17, ablation trend 0.81 / 0.98 / 1.00, duration trend
0.73 / 0.99 / 1.00.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, TINY_OVERRIDES
from trimodal import config as cfg_mod
from trimodal.checkpoint import load_checkpoint, save_checkpoint
from trimodal.data import Sample, generate_synthetic, load_manifest
from trimodal.encoders import EncoderStack
from trimodal.evaluate import evaluate_all_splits, train_probe
from trimodal.gradcheck import run_all
from trimodal.layers import Linear
from trimodal.losses import (LossConfig, compute_centroids, loss_av, loss_avt,
                             loss_total, loss_vt, nce)
from trimodal.ltf import load_ltf, save_ltf
from trimodal.optim import Adam
from trimodal.rng import Stream
from trimodal.tensor import Tensor, backward, cross_entropy_rows
from trimodal.train import pretrain


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_cfg():
    return cfg_mod.resolve_config(overrides={"train": {"seed": 42, "checkpoint_every": 1}})


@pytest.fixture(scope="module")
def default_dataset(tmp_path_factory, default_cfg):
    root = tmp_path_factory.mktemp("accept-ds")
    generate_synthetic(cfg_mod.synthetic_config(default_cfg), root)
    return load_manifest(root)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory, default_cfg, default_dataset):
    out = tmp_path_factory.mktemp("accept-full")
    t0 = time.monotonic()
    res = pretrain(default_cfg, default_dataset.root, out / "full.lavc")
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def ablation_runs(tmp_path_factory, default_dataset):
    out = tmp_path_factory.mktemp("accept-ablate")
    runs = {}
    for terms in (["av"], ["av", "vt"]):
        cfg = cfg_mod.resolve_config(overrides={"train": {"seed": 42},
                                                "loss": {"terms": terms}})
        tag = "+".join(terms)
        runs[tag] = pretrain(cfg, default_dataset.root, out / f"{tag.replace('+', '_')}.lavc")
    return runs


@pytest.fixture(scope="module")
def probe_accuracy(default_cfg, default_dataset):
    cache: dict = {}

    def compute(stack, mode: str, key) -> float:
        if key not in cache:
            head = train_probe(stack, default_dataset, mode,
                               cfg_mod.probe_config(default_cfg))
            rep = evaluate_all_splits(
                stack, head, default_dataset,
                clips_per_video=int(default_cfg["eval"]["clips_per_video"]),
                seed=int(default_cfg["eval"]["eval_seed"]))
            cache[key] = rep.mean_top1
        return cache[key]

    return compute


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

class TestCriterion1GradientCorrectness:
    def test_gradcheck_all_ops_and_composed_objective(self):
        t0 = time.monotonic()
        result = run_all(seed=0, instances=20)
        elapsed = time.monotonic() - t0
        ok = result["pass"] and elapsed < 60.0
        report("1 gradient-correctness",
               ok, f"worst rel err {result['worst']:.2e} over "
                   f"{len(result['ops'])} ops + end-to-end, {elapsed:.1f}s")


class TestCriterion2NceOracle:
    @staticmethod
    def _oracle(z, zp, tau):
        pos = sum(math.exp(float(z[i] @ zp[i]) / tau) for i in range(len(z)))
        neg = sum(math.exp(float(z[i] @ zp[j]) / tau)
                  for i in range(len(z)) for j in range(len(z)) if j != i)
        return -math.log(pos / (pos + neg))

    def test_matrixized_nce_matches_double_loop(self):
        worst = 0.0
        for n in (2, 4, 8, 16):
            for tau in (0.07, 0.5, 1.0):
                for seed in range(10):
                    s = Stream(seed, "accept-nce", n)
                    z = s.normal((n, 6))
                    z /= np.linalg.norm(z, axis=1, keepdims=True)
                    zp = s.normal((n, 6))
                    zp /= np.linalg.norm(zp, axis=1, keepdims=True)
                    got = nce(Tensor(z), Tensor(zp), tau).item()
                    worst = max(worst, abs(got - self._oracle(z, zp, tau)))

        one = nce(Tensor(np.eye(3)), Tensor(np.eye(3)), 0.07,
                  mask=[True, False, False]).item()
        v4 = np.tile([0.0, 1.0, 0.0], (4, 1))
        log4 = abs(nce(Tensor(v4), Tensor(v4), 0.5).item() - math.log(4.0))
        ortho = abs(nce(Tensor(np.eye(2)), Tensor(np.eye(2)), 1.0).item()
                    - math.log(1.0 + math.exp(-1.0)))
        ok = worst < 1e-9 and one == 0.0 and log4 < 1e-9 and ortho < 1e-9
        report("2 nce-oracle-equivalence",
               ok, f"worst |diff| {worst:.2e}; anchors: single={one}, "
                   f"log4 err {log4:.1e}, orthonormal err {ortho:.1e}")


class TestCriterion3MaskingEquivalence:
    def test_masked_batches_equal_reduced_batches(self):
        stack = EncoderStack(d_video_raw=4, d_audio_raw=3, vocab=8, d_model=8,
                             n_heads=2, n_layers=1, d_ff=8, d_proj=4, seed=77)
        cfg = LossConfig(tau=0.07)
        failures = 0
        for trial in range(50):
            s = Stream(trial, "accept-mask")
            samples = []
            for i in range(5):
                has_a = s.uniform() < 0.6
                has_t = s.uniform() < 0.6
                samples.append(Sample(f"m{i}", i % 3, video=s.normal((3, 4)),
                                      audio=s.normal((2, 3)) if has_a else None,
                                      text=s.integers(2, 8) if has_t else None))
            emb = stack.embed_batch(samples)
            cents = compute_centroids(emb)

            def value(term, emb_, cents_=None):
                if term == "av":
                    return loss_av(emb_, cfg).value.item()
                if term == "vt":
                    return loss_vt(emb_, cfg).value.item()
                return loss_avt(emb_, cents_ or compute_centroids(emb_), cfg).value.item()

            keep = {
                "av": [x for x in samples if x.audio is not None],
                "vt": [x for x in samples if x.text is not None],
                "avt": [x for x in samples
                        if x.audio is not None or x.text is not None],
            }
            for term in ("av", "vt", "avt"):
                full = value(term, emb, cents)
                if keep[term]:
                    sub = value(term, stack.embed_batch(keep[term]))
                else:
                    sub = 0.0
                if full != sub:
                    failures += 1
        report("3 masking-equivalence", failures == 0,
               f"{50 - failures}/50 trials bitwise equal across av/vt/avt")


class TestCriterion4EndToEndLearning:
    def test_pretrained_probe_vs_random_baseline(self, default_cfg, default_dataset,
                                                 full_run, probe_accuracy):
        res, train_seconds = full_run
        t0 = time.monotonic()
        stack = load_checkpoint(res.checkpoint_path).stack
        trained = probe_accuracy(stack, "video", ("full", 25, "video"))
        probe_seconds = time.monotonic() - t0

        random_stack = cfg_mod.encoder_stack(default_cfg, 42)
        rand = probe_accuracy(random_stack, "video", ("random", "video"))

        elapsed = train_seconds + probe_seconds
        ok = trained >= 0.90 and rand <= 0.25 and elapsed < 300.0
        report("4 end-to-end-learning",
               ok, f"trained {trained:.4f} >= 0.90, random-init {rand:.4f} <= 0.25, "
                   f"{elapsed:.0f}s < 300s")

    def test_training_loss_decreased(self, full_run):
        res, _ = full_run
        totals = [json.loads(l)["total"] for l in open(res.log_path) if '"step"' in l]
        first, last = np.mean(totals[:10]), np.mean(totals[-10:])
        report("4b training-loss-decrease", last < first,
               f"mean first 10 steps {first:.3f} -> last 10 steps {last:.3f}")


class TestCriterion5LossAblationTrend:
    def test_term_subsets_order_probe_accuracy(self, full_run, ablation_runs,
                                               probe_accuracy):
        res, _ = full_run
        acc = {}
        acc["av"] = probe_accuracy(
            load_checkpoint(ablation_runs["av"].checkpoint_path).stack,
            "video", ("av", "video"))
        acc["av+vt"] = probe_accuracy(
            load_checkpoint(ablation_runs["av+vt"].checkpoint_path).stack,
            "video", ("av+vt", "video"))
        acc["full"] = probe_accuracy(
            load_checkpoint(res.checkpoint_path).stack, "video", ("full", 25, "video"))
        tol = 0.01
        ok = (acc["av"] <= acc["av+vt"] + tol) and (acc["av+vt"] <= acc["full"] + tol)
        report("5a loss-ablation-ordering",
               ok, f"av {acc['av']:.4f} <= av+vt {acc['av+vt']:.4f} <= "
                   f"av+vt+avt {acc['full']:.4f} (1-point ties allowed)")

    def test_fused_probe_beats_video_only(self, full_run, probe_accuracy):
        res, _ = full_run
        stack = load_checkpoint(res.checkpoint_path).stack
        video = probe_accuracy(stack, "video", ("full", 25, "video"))
        fused = probe_accuracy(stack, "audio+video", ("full", 25, "fused"))
        report("5b fusion-gain", fused >= video,
               f"audio+video {fused:.4f} >= video-only {video:.4f}")


class TestCriterion6DurationTrend:
    def test_probe_accuracy_non_decreasing_over_epochs(self, full_run, probe_accuracy):
        res, _ = full_run
        tol = 0.01
        accs = {}
        for mode in ("video", "audio+video"):
            per_epoch = []
            for epoch in (1, 10, 25):
                stack = load_checkpoint(res.epoch_checkpoints[epoch]).stack
                per_epoch.append(probe_accuracy(stack, mode, ("full", epoch, mode)))
            accs[mode] = per_epoch
        ok = all(a <= b + tol and b <= c + tol for a, b, c in accs.values())
        report("6 duration-trend", ok,
               "video " + "->".join(f"{a:.3f}" for a in accs["video"])
               + ", audio+video " + "->".join(f"{a:.3f}" for a in accs["audio+video"]))


class TestCriterion7DeterminismPersistence:
    def test_identical_runs_bitwise(self, tmp_path):
        cfg = cfg_mod.resolve_config(overrides=TINY_OVERRIDES)
        ds = generate_synthetic(cfg_mod.synthetic_config(cfg), tmp_path / "ds")
        a = pretrain(cfg, ds.root, tmp_path / "a.lavc")
        b = pretrain(cfg, ds.root, tmp_path / "b.lavc")
        same_ckpt = (tmp_path / "a.lavc").read_bytes() == (tmp_path / "b.lavc").read_bytes()

        def stripped(path):
            return [{k: v for k, v in json.loads(l).items() if k != "wall_ms"}
                    for l in open(path)]

        same_log = stripped(a.log_path) == stripped(b.log_path)
        report("7a run-determinism", same_ckpt and same_log,
               f"checkpoints bitwise equal: {same_ckpt}, logs equal "
               f"(wall-clock field excluded): {same_log}")

    def test_resume_matches_uninterrupted(self, tmp_path):
        overrides = {**TINY_OVERRIDES,
                     "train": {**TINY_OVERRIDES["train"], "epochs": 2,
                               "checkpoint_every": 1}}
        cfg = cfg_mod.resolve_config(overrides=overrides)
        ds = generate_synthetic(cfg_mod.synthetic_config(cfg), tmp_path / "ds")
        full = pretrain(cfg, ds.root, tmp_path / "full.lavc")
        resumed = pretrain(None, ds.root, tmp_path / "resumed.lavc",
                           resume=full.epoch_checkpoints[1])
        same = (tmp_path / "resumed.lavc").read_bytes() == (tmp_path / "full.lavc").read_bytes()
        steps = full.steps - full.steps // 2
        report("7b resume-determinism", same and steps >= 5,
               f"resumed final checkpoint bitwise equal over {steps} steps")

    def test_formats_roundtrip_bitwise(self, tmp_path, tiny_run):
        arr = Stream(4, "accept-ltf").normal((6, 5))
        save_ltf(tmp_path / "t.ltf", arr)
        ltf_ok = np.array_equal(load_ltf(tmp_path / "t.ltf"), arr)

        ck = load_checkpoint(tiny_run.checkpoint_path)
        save_checkpoint(tmp_path / "again.lavc", ck.stack, ck.adam, ck.config,
                        ck.epochs_done, ck.step)
        lavc_ok = ((tmp_path / "again.lavc").read_bytes()
                   == tiny_run.checkpoint_path.read_bytes())
        report("7c format-roundtrips", ltf_ok and lavc_ok,
               f"LTF bitwise: {ltf_ok}, LAVC save-load-save bitwise: {lavc_ok}")


class TestCriterion8FullScaleShapes:
    def test_one_forward_backward_at_full_dims(self):
        t0 = time.monotonic()
        stack = EncoderStack(d_video_raw=512, d_audio_raw=80, vocab=48000,
                             d_model=1024, n_heads=8, n_layers=4, d_ff=2048,
                             d_proj=128, max_text_len=128, seed=3)
        s = Stream(9, "accept-smoke")
        samples = []
        for i in range(4):
            samples.append(Sample(f"p{i}", 0, video=s.normal((16, 512)),
                                  audio=s.normal((256, 80)),       # [time, mel] = [256, 80]
                                  text=s.integers(128, 48000)))
        emb = stack.embed_batch(samples)
        lb = loss_total(emb, compute_centroids(emb), LossConfig(tau=0.07))
        backward(lb.total)
        grads = sum(1 for _, p in stack.parameters() if p.grad is not None)
        ok = math.isfinite(lb.total.item()) and grads == len(stack.parameters())
        report("8 full-scale-shapes",
               ok, f"4 layers, d_model 1024, audio [256x80], text len 128, vocab 48k: "
                   f"loss {lb.total.item():.4f}, {grads} parameter grads, "
                   f"{time.monotonic() - t0:.0f}s")


class TestEvalProtocol:
    """Calibrated evaluation-protocol properties on the default dataset."""

    def test_multi_clip_within_one_point_of_single_clip(self, default_cfg,
                                                        default_dataset, full_run):
        res, _ = full_run
        stack = load_checkpoint(res.checkpoint_path).stack
        head = train_probe(stack, default_dataset, "video",
                           cfg_mod.probe_config(default_cfg))
        seed = int(default_cfg["eval"]["eval_seed"])
        one = evaluate_all_splits(stack, head, default_dataset,
                                  clips_per_video=1, seed=seed).mean_top1
        four = evaluate_all_splits(stack, head, default_dataset,
                                   clips_per_video=4, seed=seed).mean_top1
        report("eval multi-clip-averaging", four >= one - 0.01,
               f"4-clip {four:.4f} >= 1-clip {one:.4f} - 0.01")


class TestDataSanity:
    """Module invariant: the dataset is learnable but pre-training adds value."""

    def test_raw_feature_probe_between_chance_and_trained(self, default_cfg,
                                                          default_dataset, full_run,
                                                          probe_accuracy):
        res, _ = full_run
        pc = cfg_mod.probe_config(default_cfg)

        def feats(split):
            samples = default_dataset.samples(split)
            x = np.stack([s.video.mean(axis=0) for s in samples])
            return x, np.array([s.label for s in samples])

        xtr, ytr = feats("train")
        head = Linear(xtr.shape[1], default_dataset.n_classes, pc.seed, "raw")
        adam = Adam(head.parameters())
        for epoch in range(pc.epochs):
            order = Stream(pc.seed, "raw-probe", epoch).permutation(len(xtr))
            for start in range(0, len(order), pc.batch_size):
                idx = order[start:start + pc.batch_size]
                loss = cross_entropy_rows(head.forward(Tensor(xtr[idx])), ytr[idx])
                adam.zero_grad()
                backward(loss)
                adam.step(pc.lr)
        accs = []
        for split in ("test1", "test2", "test3"):
            x, y = feats(split)
            pred = (x @ head.W.data + head.b.data).argmax(axis=1)
            accs.append(float((pred == y).mean()))
        raw = sum(accs) / 3

        trained = probe_accuracy(load_checkpoint(res.checkpoint_path).stack,
                                 "video", ("full", 25, "video"))
        chance = 1.0 / default_dataset.n_classes
        ok = raw > chance and raw < trained
        report("data-sanity raw-feature-probe", ok,
               f"chance {chance:.3f} < raw {raw:.4f} < pre-trained {trained:.4f}")
