"""Modality encoders and projection heads.

Three transformer encoders (audio / video / text) share a model width; a
single linear head per latent space (audio-video, video-text, and the joint
tri-modal space) projects encoder outputs, followed by L2 normalization so
similarities stay in [-1, 1] before temperature scaling.

Raw inputs arrive as plain numpy arrays, and the encoders make the model's
first tensors from them: `encode_video` and `encode_audio` take one
`[T, d_raw]` sequence or a `[B, T, d_raw]` stack of equal-length sequences
and return `[d_model]` or `[B, d_model]`, and `encode_text` takes one id
sequence. A stacked row is bitwise the row of its own one-sample call.
Frozen-encoder evaluation (`evaluate.embed_frozen`) calls them on such
stacks. `check_inputs` turns a sample the stack was not sized for into a
`ConfigError` naming the sample and the config key, before any forward.

`embed_batch` takes a batch as a plain list of `data.Sample`. Batch
embedding is strictly per-sample: a sample's embeddings and projections
never depend on which other samples share the batch, which is what makes
masked losses bitwise equal to their physically reduced sub-batch versions.
Missing modalities yield zero-filled rows that are disconnected from the
graph, so they receive and send exactly zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import section
from .errors import AvailabilityError, ConfigError, ShapeError
from .layers import MLP, EmbeddingTable, Linear, TransformerEncoder, mean_pool
from .tensor import Tensor

SPACES = {"av": ("a", "v"), "vt": ("v", "t"), "avt": ("a", "v", "t")}


@dataclass
class EmbeddingSet:
    """Per-batch unit-norm projections, keyed (space, modality).

    Rows of unavailable modalities are zero-filled; `avail_a` / `avail_t`
    say which rows are real. Masked rows are graph-disconnected constants.
    """

    proj: dict[tuple[str, str], Tensor]
    avail_a: np.ndarray
    avail_t: np.ndarray

    @property
    def n(self) -> int:
        return len(self.avail_a)

    def availability(self, modality: str) -> np.ndarray:
        if modality == "a":
            return self.avail_a
        if modality == "t":
            return self.avail_t
        if modality == "v":
            return np.ones(self.n, dtype=bool)
        raise ValueError(f"unknown modality {modality!r}")


class EncoderStack:
    """All trainable components: front-ends, encoders f_a/f_v/f_t, heads."""

    def __init__(self, *, d_video_raw: int, d_audio_raw: int, vocab: int, seed: int = 0,
                 **model):
        """`model` takes the config's `model` keys; keys left out take their
        schema defaults, and every value is checked against the schema."""
        m = _model_section(model)
        d_model, d_proj = m["d_model"], m["d_proj"]
        self.d_model = d_model
        self.d_proj = d_proj
        self.max_text_len = m["max_text_len"]
        enc = (d_model, m["n_heads"], m["n_layers"], m["d_ff"], seed)
        self.video_in = Linear(d_video_raw, d_model, seed, "video_in")
        self.audio_mlp = MLP(d_audio_raw, m["audio_hidden"], d_model, seed, "audio_mlp")
        self.text_embed = EmbeddingTable(vocab, d_model, seed, "text_embed")
        self.f_a = TransformerEncoder(*enc, "f_a")
        self.f_v = TransformerEncoder(*enc, "f_v")
        self.f_t = TransformerEncoder(*enc, "f_t")
        self.heads = {
            "av": Linear(d_model, d_proj, seed, "g_av"),
            "vt": Linear(d_model, d_proj, seed, "g_vt"),
            "avt": Linear(d_model, d_proj, seed, "g_avt"),
        }

    # -- encoders: one [T, d_raw] sample, or a [B, T, d_raw] stack ----------

    def encode_video(self, video: np.ndarray) -> Tensor:
        return mean_pool(self.f_v.forward(self.video_in.forward(Tensor(video))))

    def encode_audio(self, audio: np.ndarray | None) -> Tensor:
        if audio is None:
            raise AvailabilityError("encode_audio called on a sample without audio")
        return mean_pool(self.f_a.forward(self.audio_mlp.forward(Tensor(audio))))

    def encode_text(self, token_ids) -> Tensor:
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size < 1:
            raise ShapeError("text must be a non-empty 1-D id sequence")
        if ids.size > self.max_text_len:
            raise ShapeError(f"text length {ids.size} exceeds maximum {self.max_text_len}")
        return mean_pool(self.f_t.forward(self.text_embed.lookup(ids)))

    # -- projections ------------------------------------------------------

    def project(self, z: Tensor, space: str, modality: str) -> Tensor:
        """Map [n, d_model] rows into the requested latent space (unit rows)."""
        if space not in SPACES or modality not in SPACES[space]:
            raise ShapeError(f"invalid (space, modality) pair ({space!r}, {modality!r})")
        return T.l2_normalize_rows(self.heads[space].forward(z))

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = (self.video_in.parameters() + self.audio_mlp.parameters()
               + self.text_embed.parameters())
        for enc in (self.f_a, self.f_v, self.f_t):
            out.extend(enc.parameters())
        for space in ("av", "vt", "avt"):
            out.extend(self.heads[space].parameters())
        return out

    def check_inputs(self, samples, modalities: str = "vat") -> None:
        """Raise `ConfigError` for the first of `samples` whose raw inputs in
        `modalities` ("v", "a", "t") this stack cannot encode, naming the
        sample and the config key that sized the stack."""
        d_video, d_audio = self.video_in.W.shape[0], self.audio_mlp.l1.W.shape[0]
        for s in samples:
            if "v" in modalities and s.video.shape[1] != d_video:
                raise ConfigError(f"sample {s.id!r}: video frames have {s.video.shape[1]} "
                                  f"features, the model's data.d_video is {d_video}")
            if "a" in modalities and s.audio is not None and s.audio.shape[1] != d_audio:
                raise ConfigError(f"sample {s.id!r}: audio frames have {s.audio.shape[1]} "
                                  f"features, the model's data.d_audio is {d_audio}")
            if "t" in modalities and s.text is not None:
                if s.text.size > self.max_text_len:
                    raise ConfigError(f"sample {s.id!r}: text has {s.text.size} tokens, more "
                                      f"than the model's model.max_text_len {self.max_text_len}")
                if s.text.max() >= self.text_embed.vocab:
                    raise ConfigError(f"sample {s.id!r}: token id {s.text.max()} is outside "
                                      f"the model's data.vocab {self.text_embed.vocab}")

    # -- batch embedding ---------------------------------------------------

    def embed_batch(self, samples, spaces: tuple[str, ...] = ("av", "vt", "avt")) -> EmbeddingSet:
        """Encode and project every sample of a batch, a list of
        `data.Sample`.

        `spaces` restricts the computed projections (and the encoders they
        need) when some loss terms are disabled; the default covers all.
        """
        if not samples:
            raise ShapeError("embed_batch: empty batch")
        for space in spaces:
            if space not in SPACES:
                raise ShapeError(f"unknown latent space {space!r}")
        needed = {"v"} | {m for space in spaces for m in SPACES[space]}
        avail_a = np.array([s.audio is not None for s in samples], dtype=bool)
        avail_t = np.array([s.text is not None for s in samples], dtype=bool)

        zero_proj = Tensor(np.zeros(self.d_proj))
        proj_rows: dict[tuple[str, str], list[Tensor]] = {
            (space, m): [] for space in spaces for m in SPACES[space]
        }
        for s in samples:
            z = {"v": self.encode_video(s.video), "a": None, "t": None}
            if "a" in needed and s.audio is not None:
                z["a"] = self.encode_audio(s.audio)
            if "t" in needed and s.text is not None:
                z["t"] = self.encode_text(s.text)
            for space in spaces:
                for m in SPACES[space]:
                    if z[m] is None:
                        proj_rows[(space, m)].append(zero_proj)
                    else:
                        # one row at a time, so batch makeup is irrelevant
                        row = self.project(T.stack_rows([z[m]]), space, m)
                        proj_rows[(space, m)].append(_as_vector(row))

        return EmbeddingSet(
            proj={key: T.stack_rows(vals) for key, vals in proj_rows.items()},
            avail_a=avail_a,
            avail_t=avail_t,
        )


def _model_section(model: dict) -> dict:
    """The `model` keys resolved and checked, with `d_ff` (2 * d_model) and
    `audio_hidden` (d_model) filled in where null."""
    m = section("model", model)
    if m["d_ff"] is None:
        m["d_ff"] = 2 * m["d_model"]
    if m["audio_hidden"] is None:
        m["audio_hidden"] = m["d_model"]
    return m


def parameter_shapes(*, d_video_raw: int, d_audio_raw: int, vocab: int, **model):
    """Yield `(name, shape)` for every parameter of the `EncoderStack` that
    these arguments build, in `parameters()` order, without building it."""
    m = _model_section(model)
    d_model, d_ff, d_hidden = m["d_model"], m["d_ff"], m["audio_hidden"]

    def linear(name, d_in, d_out):
        yield f"{name}.W", (d_in, d_out)
        yield f"{name}.b", (d_out,)

    yield from linear("video_in", d_video_raw, d_model)
    yield from linear("audio_mlp.l1", d_audio_raw, d_hidden)
    yield from linear("audio_mlp.l2", d_hidden, d_model)
    yield "text_embed.table", (vocab, d_model)
    for enc in ("f_a", "f_v", "f_t"):
        for i in range(m["n_layers"]):
            block = f"{enc}.layer{i}"
            for w in ("Wq", "Wk", "Wv", "Wo"):
                yield from linear(f"{block}.attn.{w}", d_model, d_model)
            yield from linear(f"{block}.ff1", d_model, d_ff)
            yield from linear(f"{block}.ff2", d_ff, d_model)
            for norm in ("ln1", "ln2"):
                yield f"{block}.{norm}.gamma", (d_model,)
                yield f"{block}.{norm}.beta", (d_model,)
    for space in ("av", "vt", "avt"):
        yield from linear(f"g_{space}", d_model, m["d_proj"])


def _as_vector(row_matrix: Tensor) -> Tensor:
    """[1, d] -> [d] (graph-preserving)."""
    d = row_matrix.shape[1]

    def back(g):
        return (g[None, :].copy(),)

    return T._node(row_matrix.data[0].copy(), (row_matrix,), back, "as_vector")
