"""The JSON config document, sections {data, model, loss, optim, train, eval}.

`SCHEMA` holds one row per field: its default, type and interval.
`DEFAULTS` and `validate` are generated from the rows, and the section
objects (`SyntheticConfig`, `LossConfig`, `ProbeConfig`, `EncoderStack`,
`Adam`, `CosineSchedule`) take their defaults and checks from them. Unknown
keys are rejected with their dotted path; checkpoints store the resolved
document.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from .errors import ConfigError

TERMS = ("av", "vt", "avt")

# key: (default, type, interval). `int` excludes booleans; `float` is any
# finite number; a default of None also admits null; `list` is a nonempty
# list drawn from TERMS. An interval of None leaves the value unbounded.
SCHEMA: dict = {
    "data": {
        "n_samples": (480, int, "[1, inf)"),
        "n_classes": (8, int, "[2, inf)"),
        "seed": (42, int, None),
        "t_video": (12, int, "[1, inf)"),
        "d_video": (24, int, "[1, inf)"),
        "t_audio": (12, int, "[1, inf)"),
        "d_audio": (20, int, "[1, inf)"),
        "l_text": (8, int, "[1, inf)"),
        "vocab": (64, int, "[1, inf)"),
        "p_available": (0.625, float, "[0, 1]"),
        "sigma_video": (0.0625, float, "[0, inf)"),
        "template_scale_video": (0.125, float, "[0, inf)"),
        "mean_signal_video": (0.01, float, "[0, inf)"),
        "offset_sigma_video": (0.0, float, "[0, inf)"),
        "sigma_audio": (0.5, float, "[0, inf)"),
        "text_informativeness": (0.9, float, "[0, 1]"),
        "independent_availability": (False, bool, None),
    },
    "model": {
        "d_model": (64, int, "[1, inf)"),
        "n_heads": (4, int, "[1, inf)"),
        "n_layers": (2, int, "[0, inf)"),
        "d_ff": (None, int, "[1, inf)"),          # None -> 2 * d_model
        "d_proj": (32, int, "[1, inf)"),
        "audio_hidden": (None, int, "[1, inf)"),  # None -> d_model
        "max_text_len": (128, int, "[1, inf)"),
    },
    "loss": {
        "tau": (0.07, float, "(0, inf)"),
        "terms": (list(TERMS), list, None),
        "weights": {term: (1.0, float, None) for term in TERMS},
    },
    "optim": {
        "lr_max": (1e-3, float, "[0, inf)"),
        "lr_min": (0.0, float, "[0, inf)"),
        "warmup_steps": (0, int, "[0, inf)"),
        "beta1": (0.9, float, "[0, 1)"),
        "beta2": (0.999, float, "[0, 1)"),
        "eps": (1e-8, float, "(0, inf)"),
        "grad_clip": (0.0, float, "[0, inf)"),    # 0 = off
    },
    "train": {
        "epochs": (25, int, "[1, inf)"),
        "batch_size": (32, int, "[2, inf)"),
        "seed": (None, int, None),                # must be set (config or --seed) to pre-train
        "checkpoint_every": (0, int, "[0, inf)"),  # epochs between checkpoints; 0 = final only
        "augment_sigma_audio": (0.25, float, "[0, inf)"),
    },
    "eval": {
        "clips_per_video": (4, int, "[1, inf)"),
        "probe_lr": (1e-4, float, "(0, inf)"),
        "probe_batch_size": (32, int, "[1, inf)"),
        "probe_epochs": (300, int, "[1, inf)"),
        "probe_seed": (7, int, None),
        "eval_seed": (1234, int, None),
    },
}

_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               list: f"a nonempty list drawn from {list(TERMS)}"}


def _defaults(schema: dict) -> dict:
    return {key: _defaults(row) if isinstance(row, dict) else row[0]
            for key, row in schema.items()}


DEFAULTS: dict = _defaults(SCHEMA)


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _has_type(value, kind) -> bool:
    if kind is list:
        return isinstance(value, list) and bool(value) and all(t in TERMS for t in value)
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    return isinstance(value, int) or (
        kind is float and isinstance(value, float) and math.isfinite(value))


def _in_interval(value, interval: str) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(", "))
    return ((lo < value) if interval[0] == "(" else (lo <= value)) and \
        ((value < hi) if interval[-1] == ")" else (value <= hi))


def _check(schema: dict, doc: dict, prefix: str) -> None:
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if key not in schema:
            raise ConfigError(f"unknown config key {path!r}")
        row = schema[key]
        if isinstance(row, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path!r} must be an object")
            _check(row, value, path + ".")
            continue
        default, kind, interval = row
        if value is None and default is None:
            continue
        if not _has_type(value, kind):
            null = " or null" if default is None else ""
            raise ConfigError(f"{path} must be {_TYPE_NAMES[kind]}{null}, got {value!r}")
        if interval and not _in_interval(value, interval):
            raise ConfigError(f"{path} must lie in {interval}, got {value!r}")


def section(name: str, values) -> dict:
    """`values` over the section's defaults, every key, type, interval and
    relation between the section's fields checked; also for library callers."""
    if not isinstance(values, dict):
        raise ConfigError(f"config key {name!r} must be an object")
    sec = _merge(DEFAULTS[name], values)
    _check(SCHEMA[name], sec, name + ".")
    if name == "data":
        if sec["n_samples"] < sec["n_classes"]:
            raise ConfigError("data.n_samples must be >= data.n_classes (one sample per class)")
        if sec["vocab"] < 2 * sec["n_classes"]:
            raise ConfigError("data.vocab must be >= 2 * data.n_classes "
                              "(per-class sub-vocabularies)")
        if math.factorial(min(sec["t_video"], 20)) < sec["n_classes"]:
            raise ConfigError("data.t_video too short: classes are position orderings, and "
                              f"{sec['t_video']} positions admit fewer than "
                              f"{sec['n_classes']} distinct orders")
    if name == "model" and sec["d_model"] % sec["n_heads"] != 0:
        raise ConfigError("model.d_model must be divisible by model.n_heads")
    if name == "optim" and sec["lr_max"] < sec["lr_min"]:
        raise ConfigError("optim.lr_max must be >= optim.lr_min")
    return sec


def validate(doc: dict) -> dict:
    """The full document: every section resolved, then checked against the
    others; raises ConfigError naming the offending dotted key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"a config document must be an object, got {type(doc).__name__}")
    for name in doc:
        if name not in SCHEMA:
            raise ConfigError(f"unknown config key {name!r}")
    cfg = {name: section(name, doc.get(name, {})) for name in SCHEMA}
    if cfg["data"]["l_text"] > cfg["model"]["max_text_len"]:
        raise ConfigError("data.l_text must be <= model.max_text_len")
    return cfg


def load_config_file(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def resolve_config(path=None, overrides: dict | None = None) -> dict:
    """Load, merge (file then overrides) and validate; returns the full document."""
    doc = load_config_file(path) if path else {}
    return validate(_merge(doc, overrides or {}))


def resume_config(stored: dict, path=None, overrides: dict | None = None) -> dict:
    """`stored`, the resolved document of the checkpoint a run resumes from.
    The config file at `path` and `overrides` may repeat its values; one that
    differs raises ConfigError naming its dotted key."""
    def check(given: dict, have: dict, prefix: str) -> None:
        for key, value in given.items():
            if isinstance(value, dict):
                check(value, have[key], f"{prefix}{key}.")
            elif value != have[key]:
                raise ConfigError(f"{prefix}{key} is {value!r}, but the checkpoint being "
                                  f"resumed stores {have[key]!r}; a resumed run keeps its "
                                  "stored config")

    doc = _merge(load_config_file(path) if path else {}, overrides or {})
    validate(doc)
    check(doc, stored, "")
    return stored


# Builders from a resolved document. They import their classes on call,
# because those modules import this one for their defaults.

def synthetic_config(cfg: dict):
    from .data import SyntheticConfig
    return SyntheticConfig(**cfg["data"])


def _stack_args(cfg: dict) -> dict:
    d = cfg["data"]
    return {"d_video_raw": d["d_video"], "d_audio_raw": d["d_audio"], "vocab": d["vocab"],
            **cfg["model"]}


def encoder_stack(cfg: dict, seed: int):
    from .encoders import EncoderStack
    return EncoderStack(seed=seed, **_stack_args(cfg))


def parameter_shapes(cfg: dict):
    """`(name, shape)` of each parameter of `encoder_stack(cfg, ...)`, lazily."""
    from .encoders import parameter_shapes
    return parameter_shapes(**_stack_args(cfg))


def loss_config(cfg: dict):
    from .losses import LossConfig
    loss = cfg["loss"]
    return LossConfig(tau=loss["tau"], enabled_terms=tuple(loss["terms"]),
                      term_weights=dict(loss["weights"]))


def adam(cfg: dict, params):
    from .optim import Adam
    o = cfg["optim"]
    return Adam(params, beta1=o["beta1"], beta2=o["beta2"], eps=o["eps"],
                grad_clip=o["grad_clip"])


def probe_config(cfg: dict):
    from .evaluate import ProbeConfig
    e = cfg["eval"]
    return ProbeConfig(lr=e["probe_lr"], batch_size=e["probe_batch_size"],
                       epochs=e["probe_epochs"], seed=e["probe_seed"])
