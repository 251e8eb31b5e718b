"""Config document resolution and validation."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimodal import config as cfg_mod
from trimodal.data import SyntheticConfig
from trimodal.encoders import EncoderStack
from trimodal.errors import ConfigError
from trimodal.evaluate import ProbeConfig

# (document, dotted key the error must name); the first eight are the gaps
# listed under ROADMAP direction 3.
MALFORMED = [
    ({"eval": {"probe_batch_size": 0}}, "eval.probe_batch_size"),
    ({"model": {"d_ff": "x"}}, "model.d_ff"),
    ({"data": {"n_samples": 48.5}}, "data.n_samples"),
    ({"train": {"epochs": 1.5}}, "train.epochs"),
    ({"optim": {"beta1": 1.0}}, "optim.beta1"),
    ({"optim": {"warmup_steps": -3}}, "optim.warmup_steps"),
    ({"train": {"checkpoint_every": -1}}, "train.checkpoint_every"),
    ({"loss": {"weights": {"av": "x"}}}, "loss.weights.av"),
    ({"data": {"independent_availability": 1}}, "data.independent_availability"),
    ({"model": {"n_heads": True}}, "model.n_heads"),
    ({"loss": {"tau": float("inf")}}, "loss.tau"),
    ({"data": {"vocab": 10}}, "data.vocab"),
    ({"data": {"l_text": 200}}, "data.l_text"),
]


class TestDefaults:
    def test_empty_document_resolves(self):
        cfg = cfg_mod.resolve_config()
        assert cfg["data"]["n_samples"] == 480
        assert cfg["data"]["p_available"] == 0.625
        assert cfg["loss"]["tau"] == 0.07
        assert cfg["train"]["epochs"] == 25
        assert cfg["train"]["batch_size"] == 32
        assert cfg["train"]["seed"] is None
        assert cfg["eval"]["probe_lr"] == 1e-4
        assert cfg["eval"]["probe_batch_size"] == 32

    def test_partial_override_merges(self):
        cfg = cfg_mod.resolve_config(overrides={"train": {"epochs": 3}})
        assert cfg["train"]["epochs"] == 3
        assert cfg["train"]["batch_size"] == 32

    def test_section_objects_build(self):
        cfg = cfg_mod.resolve_config()
        assert cfg_mod.synthetic_config(cfg).n_samples == 480
        assert cfg_mod.loss_config(cfg).tau == 0.07
        assert cfg_mod.probe_config(cfg).lr == 1e-4

    def test_section_object_defaults_are_the_schema_defaults(self):
        assert vars(SyntheticConfig()) == cfg_mod.DEFAULTS["data"]
        assert ProbeConfig() == cfg_mod.probe_config(cfg_mod.resolve_config())
        assert ProbeConfig().epochs == 300

    def test_stack_builder_resolves_model_defaults(self):
        cfg = cfg_mod.resolve_config()
        stack = cfg_mod.encoder_stack(cfg, 0)
        assert stack.f_v.blocks[0].ff1.W.shape == (64, 2 * 64)  # d_ff
        assert stack.audio_mlp.l1.W.shape == (cfg["data"]["d_audio"], 64)  # audio_hidden
        assert stack.video_in.W.shape == (cfg["data"]["d_video"], 64)

    @pytest.mark.parametrize("model", [
        {}, {"n_layers": 0}, {"d_model": 12, "n_heads": 3, "n_layers": 3, "d_ff": 5,
                              "audio_hidden": 7, "d_proj": 2}], ids=str)
    def test_parameter_shapes_match_the_built_stack(self, model):
        # the shapes a checkpoint load checks before building the stack
        cfg = cfg_mod.resolve_config(overrides={"model": model, "data": {"vocab": 40}})
        stack = cfg_mod.encoder_stack(cfg, 0)
        assert (list(cfg_mod.parameter_shapes(cfg))
                == [(name, p.data.shape) for name, p in stack.parameters()])


class TestRejection:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            cfg_mod.resolve_config(overrides={"bogus": {}})

    def test_unknown_nested_key_has_dotted_path(self):
        with pytest.raises(ConfigError, match="train.lr"):
            cfg_mod.resolve_config(overrides={"train": {"lr": 1.0}})

    def test_unknown_weight_key(self):
        with pytest.raises(ConfigError, match="loss.weights.xy"):
            cfg_mod.resolve_config(overrides={"loss": {"weights": {"xy": 1.0}}})

    def test_bad_terms(self):
        with pytest.raises(ConfigError, match="terms"):
            cfg_mod.resolve_config(overrides={"loss": {"terms": []}})

    def test_batch_size_floor(self):
        with pytest.raises(ConfigError, match="batch_size"):
            cfg_mod.resolve_config(overrides={"train": {"batch_size": 1}})

    def test_heads_divide_width(self):
        with pytest.raises(ConfigError, match="divisible"):
            cfg_mod.resolve_config(overrides={"model": {"d_model": 10, "n_heads": 4}})

    def test_tau_positive(self):
        with pytest.raises(ConfigError, match="tau"):
            cfg_mod.resolve_config(overrides={"loss": {"tau": 0}})

    def test_lr_ordering(self):
        with pytest.raises(ConfigError, match="lr_max"):
            cfg_mod.resolve_config(overrides={"optim": {"lr_max": 1e-6, "lr_min": 1e-3}})

    def test_seed_type(self):
        with pytest.raises(ConfigError, match="seed"):
            cfg_mod.resolve_config(overrides={"train": {"seed": "forty-two"}})

    @pytest.mark.parametrize("doc,key", MALFORMED, ids=[key for _, key in MALFORMED])
    def test_malformed_field_names_its_key(self, doc, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            cfg_mod.validate(doc)

    def test_library_constructors_check_their_fields(self):
        with pytest.raises(ConfigError, match=r"data\.p_available"):
            SyntheticConfig(p_available=1.5)
        with pytest.raises(ConfigError, match=r"eval\.probe_batch_size"):
            ProbeConfig(batch_size=0)
        with pytest.raises(ConfigError, match=r"model\.d_modl"):
            EncoderStack(d_video_raw=2, d_audio_raw=2, vocab=4, d_modl=8)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
# Values near the schema's bounds as well as arbitrary JSON, so that some
# documents resolve and the rest fail in every row's type and bounds checks.
_VALUE = (st.integers(-2, 300) | st.floats(-1.0, 2.0)
          | st.sampled_from([["av"], ["xy"], []]) | _JSON)


def _section(name):
    keys = list(cfg_mod.DEFAULTS[name]) + ["bogus"]
    values = _VALUE
    if name == "loss":
        values = values | st.dictionaries(st.sampled_from(["av", "vt", "avt", "xy"]), _VALUE)
    return st.dictionaries(st.sampled_from(keys), values, max_size=4) | _JSON


_DOCUMENT = st.fixed_dictionaries(
    {}, optional={name: _section(name) for name in cfg_mod.DEFAULTS})


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(_DOCUMENT | _JSON)
    @example({"data": {"text_informativeness": "x"}})
    @example(None)
    @example([{"data": {}}])
    def test_any_document_resolves_or_raises_config_error(self, doc):
        try:
            cfg = cfg_mod.validate(doc)
        except ConfigError:
            return
        assert json.loads(json.dumps(cfg)) == cfg
        cfg_mod.synthetic_config(cfg)
        cfg_mod.loss_config(cfg)
        cfg_mod.probe_config(cfg)


class TestFiles:
    def test_file_loading(self, tmp_path):
        doc = {"train": {"epochs": 2, "seed": 1}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        cfg = cfg_mod.resolve_config(path)
        assert cfg["train"]["epochs"] == 2

    def test_invalid_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "train": {,}\n}\n')
        with pytest.raises(ConfigError, match=r"line 2, column"):
            cfg_mod.resolve_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            cfg_mod.resolve_config(path)

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"epochs": 2}}))
        cfg = cfg_mod.resolve_config(path, overrides={"train": {"epochs": 9}})
        assert cfg["train"]["epochs"] == 9

    def test_resume_config_takes_repeats_and_names_conflicts(self, tmp_path):
        stored = cfg_mod.resolve_config(overrides={"train": {"seed": 3, "epochs": 2}})
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"loss": {"weights": {"av": 1}}, "model": {"d_ff": None}}))
        assert cfg_mod.resume_config(stored, path, {"train": {"seed": 3}}) is stored
        for doc, key in (({"loss": {"weights": {"vt": 2.0}}}, "loss.weights.vt"),
                         ({"loss": {"terms": ["vt", "av", "avt"]}}, "loss.terms"),
                         ({"train": {"epochs": 3}}, "train.epochs")):
            with pytest.raises(ConfigError, match=re.escape(key)):
                cfg_mod.resume_config(stored, path, doc)
        with pytest.raises(ConfigError, match="unknown config key 'train.bogus'"):
            cfg_mod.resume_config(stored, overrides={"train": {"bogus": 3}})


def _rows(schema, prefix=""):
    for key, row in schema.items():
        if isinstance(row, dict):
            yield from _rows(row, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", row


class TestReadme:
    def test_schema_table_lists_every_row(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = {key: (default, bounds.strip()) for key, default, bounds in re.findall(
            r"^\| `([a-z0-9_.]+)` \| `([^`]*)` \| [^|]+ \| ([^|]+) \|", readme, re.M)}
        rows = dict(_rows(cfg_mod.SCHEMA))
        assert set(table) == set(rows)
        for key, (default, _, interval) in rows.items():
            assert json.loads(table[key][0]) == default, key
            assert table[key][1] == (interval or "—"), key
