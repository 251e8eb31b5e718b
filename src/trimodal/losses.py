"""Contrastive objectives over projected embeddings.

The batch noise-contrastive loss is a single aggregate log-ratio: the summed
similarity of matched pairs over the summed similarity of all ordered pairs
(matched plus the N(N-1) cross pairs with modality roles fixed). It is
evaluated as logsumexp(all pairs) - logsumexp(matched pairs), which is exact,
overflow-free at tau = 0.07, and returns exactly 0.0 for a single-sample
batch where no negatives exist.

Three terms share the machinery: audio-video, video-text, and the centroid
term that aligns each modality's tri-modal projection with the per-sample
centroid (the renormalized mean of the available tri-modal projections).
Missing modalities are masked out by physically gathering the surviving rows,
so a masked batch is bitwise identical to the reduced sub-batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import DEFAULTS, TERMS, section
from .encoders import EmbeddingSet
from .errors import MaskError, ShapeError
from .tensor import Tensor

_LOSS = DEFAULTS["loss"]


@dataclass
class LossConfig:
    """The `loss` config section, with `terms` as `enabled_terms` and
    `weights` as `term_weights`; defaults and checks come from the schema."""

    tau: float = _LOSS["tau"]
    enabled_terms: tuple[str, ...] = tuple(_LOSS["terms"])
    term_weights: dict[str, float] = field(default_factory=lambda: dict(_LOSS["weights"]))

    def __post_init__(self):
        loss = section("loss", {"tau": self.tau, "terms": list(self.enabled_terms),
                                "weights": self.term_weights})
        self.enabled_terms = tuple(loss["terms"])
        self.term_weights = loss["weights"]


@dataclass
class CentroidSet:
    c: Tensor                 # [N, d_proj], unit rows where valid
    valid: np.ndarray         # True iff >= 2 modalities contributed


@dataclass
class LossTerm:
    value: Tensor             # scalar
    skipped: bool
    n_eff: int


@dataclass
class LossBreakdown:
    total: Tensor             # scalar
    terms: dict[str, float]   # weighted per-term values (0.0 when skipped/disabled)
    skipped: tuple[str, ...]


def nce(z: Tensor, zp: Tensor, tau: float, mask=None) -> Tensor:
    """Aggregate batch NCE between row-aligned unit matrices [N, d].

    Restricted to masked-in rows; requires at least one. Returns one scalar
    `tensor.batch_nce` node; exactly 0.0 when a single row survives.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if z.data.ndim != 2 or z.shape != zp.shape:
        raise ShapeError(f"nce: need matching [N, d] matrices, got {z.shape} and {zp.shape}")
    n = z.shape[0]
    mask = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != (n,):
        raise ShapeError("nce: mask length must equal row count")
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise MaskError("nce: empty mask")
    for name, m in (("z", z), ("zp", zp)):
        rows = m.data[idx]
        off = np.abs(np.sqrt(np.add.reduce(rows * rows, axis=1)) - 1.0)
        if (off > 1e-6).any():
            raise ShapeError(f"nce: {name} rows must be unit norm (worst deviation "
                             f"{off.max():.2e})")
    return T.batch_nce(z, zp, idx, 1.0 / tau)


def _zero() -> Tensor:
    return Tensor(np.zeros(()))


def loss_av(emb: EmbeddingSet, cfg: LossConfig) -> LossTerm:
    """Audio-video term over the shared av space; audio availability masks."""
    mask = emb.avail_a
    if not mask.any():
        return LossTerm(_zero(), skipped=True, n_eff=0)
    value = nce(emb.proj[("av", "a")], emb.proj[("av", "v")], cfg.tau, mask)
    return LossTerm(value, skipped=False, n_eff=int(mask.sum()))


def loss_vt(emb: EmbeddingSet, cfg: LossConfig) -> LossTerm:
    """Video-text term over the shared vt space; text availability masks."""
    mask = emb.avail_t
    if not mask.any():
        return LossTerm(_zero(), skipped=True, n_eff=0)
    value = nce(emb.proj[("vt", "v")], emb.proj[("vt", "t")], cfg.tau, mask)
    return LossTerm(value, skipped=False, n_eff=int(mask.sum()))


def compute_centroids(emb: EmbeddingSet) -> CentroidSet:
    """Per-sample mean of available tri-modal projections, renormalized.

    A sample is valid for the centroid term only when >= 2 modalities
    contributed (a 1-modality centroid is the embedding itself). Rows whose
    mean degenerates to (near-)zero norm are flagged invalid and replaced by
    a constant unit vector so normalization stays defined; such rows never
    enter a loss and carry no gradient.
    """
    counts = 1.0 + emb.avail_a.astype(np.float64) + emb.avail_t.astype(np.float64)
    n, d = emb.proj[("avt", "v")].shape
    summed = T.add(T.add(emb.proj[("avt", "a")], emb.proj[("avt", "v")]), emb.proj[("avt", "t")])
    mean = T.mul(summed, Tensor(np.tile((1.0 / counts)[:, None], (1, d))))
    norms = np.sqrt(np.add.reduce(mean.data * mean.data, axis=1))
    ok = norms > 1e-9
    valid = (counts >= 2.0) & ok
    if not ok.all():
        filler = np.zeros((n, d))
        filler[~ok, 0] = 1.0
        kept = np.flatnonzero(ok)
        if kept.size:
            mean = T.add(T.scatter_rows(T.gather_rows(mean, kept), kept, n), Tensor(filler))
        else:
            mean = Tensor(filler)
    return CentroidSet(c=T.l2_normalize_rows(mean), valid=valid)


def loss_avt(emb: EmbeddingSet, cents: CentroidSet, cfg: LossConfig) -> LossTerm:
    """Centroid alignment: sum over modalities of NCE(projection, centroid)."""
    if not cents.valid.any():
        return LossTerm(_zero(), skipped=True, n_eff=0)
    total: Tensor | None = None
    n_eff = 0
    for m in ("a", "v", "t"):
        mask = emb.availability(m) & cents.valid
        if not mask.any():
            continue
        term = nce(emb.proj[("avt", m)], cents.c, cfg.tau, mask)
        n_eff = max(n_eff, int(mask.sum()))
        total = term if total is None else T.add(total, term)
    if total is None:
        return LossTerm(_zero(), skipped=True, n_eff=0)
    return LossTerm(total, skipped=False, n_eff=n_eff)


def loss_total(emb: EmbeddingSet, cents: CentroidSet | None, cfg: LossConfig) -> LossBreakdown:
    """Weighted sum of the enabled terms (all weights 1.0 by default)."""
    values: dict[str, float] = {t: 0.0 for t in TERMS}
    skipped: list[str] = []
    total: Tensor | None = None
    for name in TERMS:
        if name not in cfg.enabled_terms:
            continue
        if name == "av":
            term = loss_av(emb, cfg)
        elif name == "vt":
            term = loss_vt(emb, cfg)
        else:
            if cents is None:
                cents = compute_centroids(emb)
            term = loss_avt(emb, cents, cfg)
        if term.skipped:
            skipped.append(name)
        weighted = T.scale(term.value, cfg.term_weights[name])
        values[name] = weighted.item()
        total = weighted if total is None else T.add(total, weighted)
    assert total is not None  # enabled_terms is nonempty
    return LossBreakdown(total=total, terms=values, skipped=tuple(skipped))
