"""Small end-to-end run: pre-train contrastively, then linear-probe the
frozen video encoder. Uses a scaled-down dataset so it finishes in well
under a minute; the full protocol lives in the CLI and acceptance tests.

Run:  python demos/05_pretrain_and_probe.py
"""

import json
import tempfile
from pathlib import Path

from trimodal import config as C
from trimodal.checkpoint import load_checkpoint
from trimodal.data import generate_synthetic
from trimodal.evaluate import evaluate_all_splits, train_probe
from trimodal.train import pretrain

root = Path(tempfile.mkdtemp())
cfg = C.resolve_config(overrides={
    "data": {"n_samples": 120, "n_classes": 4, "seed": 7},
    "train": {"seed": 1, "epochs": 8, "batch_size": 16},
    "eval": {"probe_epochs": 150},
})

print("== generate ==")
man = generate_synthetic(C.synthetic_config(cfg), root / "ds")
print(f"{len(man.records)} samples in {root/'ds'}")

print("\n== pre-train (8 epochs at demo scale) ==")
res = pretrain(cfg, man.root, root / "ck.lavc")
log = [json.loads(l) for l in open(res.log_path)]
print(f"steps: {res.steps}, loss {log[0]['total']:.3f} -> {log[-1]['total']:.3f}")
print("per-term at the last step:",
      {k: round(log[-1][k], 3) for k in ("L_AV", "L_VT", "L_AVT")})

print("\n== probe the frozen encoders ==")
stack = load_checkpoint(res.checkpoint_path).stack
pc = C.probe_config(cfg)
for mode in ("video", "audio+video"):
    head = train_probe(stack, man, mode, pc)
    rep = evaluate_all_splits(stack, head, man, clips_per_video=4, seed=1234)
    print(f"{mode:>12}: mean top-1 over 3 splits = {rep.mean_top1:.3f} "
          f"(splits: {[round(rep.splits[s].top1, 3) for s in rep.splits]})")

print("\n== untrained baseline for contrast ==")
random_stack = C.encoder_stack(cfg, 1)
head = train_probe(random_stack, man, "video", pc)
rep = evaluate_all_splits(random_stack, head, man, clips_per_video=4, seed=1234)
print(f"random-init video probe: {rep.mean_top1:.3f} (chance = {1/4})")
