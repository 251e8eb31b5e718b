"""The contrastive objective: similarity, batch NCE, centroids, masking.

Run:  python demos/03_contrastive_losses.py
"""

import math

import numpy as np

from trimodal.gradcheck import tiny_training_setup
from trimodal.losses import LossConfig, compute_centroids, loss_total, nce
from trimodal.tensor import Tensor

print("== exponentiated cosine similarity with temperature ==")
e1 = np.array([1.0, 0.0])
e2 = np.array([0.0, 1.0])
print("aligned, tau=1:     ", math.exp(e1 @ e1 / 1.0), "(= e)")
print("orthogonal, any tau:", math.exp(e1 @ e2 / 0.07))
print("aligned, tau=0.07:  ", f"{math.exp(e1 @ e1 / 0.07):.4e}",
      "(why the loss works in log space)")

print("\n== batch NCE: matched pairs against all ordered cross pairs ==")
eye = Tensor(np.eye(2))
print("orthonormal pair batch, tau=1:", nce(eye, eye, 1.0).item(),
      "= log(1 + 1/e) =", math.log(1 + math.exp(-1)))
v = Tensor(np.tile([1.0, 0.0, 0.0], (4, 1)))
print("four identical rows:", nce(v, v, 0.07).item(), "= log 4 =", math.log(4))
single = nce(eye, eye, 0.07, mask=[True, False])
print("single surviving row (no negatives):", single.item())

print("\n== sharper temperature rewards a dominant positive ==")
for tau in (1.0, 0.5, 0.07):
    print(f"  tau={tau:<4} loss={nce(eye, eye, tau).item():.6f}")

print("\n== the tri-modal path: embeddings, centroids, total loss ==")
stack, batch = tiny_training_setup(seed=12)
emb = stack.embed_batch(batch)
print("availability: audio", emb.avail_a.tolist(), "text", emb.avail_t.tolist())
cents = compute_centroids(emb)
print("centroid validity (needs >= 2 modalities):", cents.valid.tolist())
lb = loss_total(emb, cents, LossConfig(tau=0.07))
print("terms:", {k: round(v, 4) for k, v in lb.terms.items()},
      "total:", round(lb.total.item(), 4), "skipped:", lb.skipped)

print("\n== masking equals physically removing the affected samples ==")
from trimodal.losses import loss_av

reduced = [s for s in batch if s.audio is not None]
full_val = loss_av(emb, LossConfig(tau=0.07)).value.item()
sub_val = loss_av(stack.embed_batch(reduced), LossConfig(tau=0.07)).value.item()
print("masked batch:", full_val, "| reduced batch:", sub_val,
      "| bitwise equal:", full_val == sub_val)
