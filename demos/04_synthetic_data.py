"""Synthetic tri-modal datasets: generation, manifests, batching, augmentation.

Run:  python demos/04_synthetic_data.py
"""

import tempfile
from pathlib import Path

import numpy as np

from trimodal.data import (SyntheticConfig, augment_audio, generate_synthetic,
                           make_batches)
from trimodal.ltf import load_ltf

root = Path(tempfile.mkdtemp()) / "demo-ds"
cfg = SyntheticConfig(n_samples=96, n_classes=4, seed=7, p_available=0.625)
man = generate_synthetic(cfg, root)

print("== dataset on disk ==")
print("root:", root)
n_audio = sum(1 for r in man.records if r.audio_path)
print(f"{len(man.records)} samples, {n_audio} with audio+text "
      f"(p_available={cfg.p_available})")
print("splits:", {s: len(man.records_for(s)) for s in ("train", "test1", "test2", "test3")})

print("\n== every sample has video; audio and text ride one coin flip ==")
sample = man.samples("train")[0]
print(f"sample {sample.id}: class {sample.label}, video {sample.video.shape},",
      f"audio {sample.audio.shape if sample.audio is not None else None},",
      f"text {sample.text.tolist() if sample.text is not None else None}")

print("\n== class identity lives in the ORDER of position patterns ==")
tpl = load_ltf(root / "templates_video.ltf")
print("template block: [classes, positions, features] =", tpl.shape)
corr01 = np.corrcoef(tpl[0].ravel(), tpl[1].ravel())[0, 1]
print(f"raw correlation between class 0 and 1 blocks: {corr01:+.3f}")
norms0 = np.sort(np.linalg.norm(tpl[0], axis=1))
norms1 = np.sort(np.linalg.norm(tpl[1], axis=1))
print("per-position pattern norms match across classes up to the faint "
      f"class bias: max diff {np.abs(norms0 - norms1).max():.4f} "
      f"(bias scale {man.config.mean_signal_video})")

print("\n== batching is keyed on (seed, epoch) ==")
b0 = make_batches(man, "train", 16, seed=3, epoch=0)
b0_again = make_batches(man, "train", 16, seed=3, epoch=0)
b1 = make_batches(man, "train", 16, seed=3, epoch=1)
order = lambda bs: [s.id for b in bs for s in b]
print("same epoch reproduces order:", order(b0) == order(b0_again))
print("next epoch reshuffles:      ", order(b0) != order(b1))

print("\n== audio augmentation adds seeded Gaussian noise ==")
audio = next(s.audio for s in man.samples("train") if s.audio is not None)
noisy = augment_audio(audio, sigma=0.25, seed=99)
print("noise std ~", float((noisy - audio).std()),
      "| sigma=0 returns the input object:",
      augment_audio(audio, 0.0, seed=99) is audio)
