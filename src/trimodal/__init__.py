"""Tri-modal contrastive embedding alignment at desk scale.

A self-contained float64 tensor/autodiff core, transformer encoders for
audio, video and text, batch noise-contrastive losses with a per-sample
centroid alignment term, a deterministic training loop, and a frozen-encoder
linear-probe evaluation protocol over synthetic datasets.
"""

from . import (checkpoint, config, data, encoders, evaluate, gradcheck, layers,
               losses, ltf, optim, rng, tensor, train)
from .encoders import EncoderStack, EmbeddingSet
from .errors import (AvailabilityError, ConfigError, DegenerateVectorError,
                     FormatError, GraphError, MaskError, NumericError,
                     ShapeError, TrainingAborted, TrimodalError)
from .tensor import Tensor, backward

__all__ = [
    "AvailabilityError", "ConfigError", "DegenerateVectorError", "EncoderStack",
    "EmbeddingSet", "FormatError", "GraphError", "MaskError", "NumericError",
    "ShapeError", "Tensor", "TrainingAborted", "TrimodalError",
    "backward", "checkpoint", "config", "data", "encoders", "evaluate",
    "gradcheck", "layers", "losses", "ltf", "optim", "rng", "tensor", "train",
]

__version__ = "0.1.0"
