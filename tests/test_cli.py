"""CLI subcommands, exit codes and artifact flows."""

import copy
import json
import shutil
import struct

import numpy as np
import pytest

from conftest import TINY_OVERRIDES
from test_config import MALFORMED
from test_ltf import ltf_header
from trimodal import cli as cli_mod
from trimodal import train as train_mod
from trimodal.checkpoint import _read_archive, _write_archive, load_checkpoint
from trimodal.cli import main
from trimodal.evaluate import ProbeHead, save_probe
from trimodal.rng import Stream


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """Config file + generated dataset + one checkpoint, shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    doc = copy.deepcopy(TINY_OVERRIDES)
    doc["train"]["epochs"] = 1
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(doc))
    data_dir = root / "ds"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    ckpt = root / "ck.lavc"
    assert main(["pretrain", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(ckpt)]) == 0
    return {"root": root, "cfg": cfg_path, "data": data_dir, "ckpt": ckpt}


class TestGenData:
    def test_summary_json(self, cli_env, capsys, tmp_path):
        out = tmp_path / "fresh"
        assert main(["gen-data", "--config", str(cli_env["cfg"]), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_samples"] == 48
        assert summary["n_classes"] == 3
        assert (out / "manifest.jsonl").exists()

    def test_refuses_nonempty_without_force(self, cli_env, capsys):
        assert main(["gen-data", "--config", str(cli_env["cfg"]),
                     "--out", str(cli_env["data"])]) == 3
        assert "--force" in capsys.readouterr().err

    def test_force_overwrites(self, cli_env, tmp_path):
        out = tmp_path / "ow"
        assert main(["gen-data", "--config", str(cli_env["cfg"]), "--out", str(out)]) == 0
        assert main(["gen-data", "--config", str(cli_env["cfg"]), "--out", str(out),
                     "--force"]) == 0

    def test_default_config_ratio(self, tmp_path, capsys):
        # defaults: 480 samples, roughly 300 with audio and text
        out = tmp_path / "default"
        assert main(["gen-data", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_samples"] == 480
        assert abs(summary["n_with_audio_and_text"] - 300) <= 4 * (480 * 0.625 * 0.375) ** 0.5

    def test_invalid_json_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{,}")
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "line 1" in capsys.readouterr().err


class TestPretrain:
    def test_artifacts_written(self, cli_env):
        assert cli_env["ckpt"].exists()
        log = cli_env["ckpt"].with_suffix(".lavc.log.jsonl")
        assert log.exists()
        first = json.loads(log.read_text().splitlines()[0])
        assert first["step"] == 0

    def test_loss_subset_flag(self, cli_env, tmp_path, capsys):
        out = tmp_path / "av.lavc"
        assert main(["pretrain", "--config", str(cli_env["cfg"]), "--data",
                     str(cli_env["data"]), "--out", str(out), "--losses", "av",
                     "--epochs", "1"]) == 0
        log = out.with_suffix(".lavc.log.jsonl")
        recs = [json.loads(l) for l in log.read_text().splitlines()]
        assert all(r["L_VT"] == 0.0 and r["L_AVT"] == 0.0 for r in recs if "step" in r)

    def test_seed_flag_overrides(self, cli_env, tmp_path):
        a, b = tmp_path / "a.lavc", tmp_path / "b.lavc"
        for out, seed in ((a, "7"), (b, "8")):
            assert main(["pretrain", "--config", str(cli_env["cfg"]), "--data",
                         str(cli_env["data"]), "--out", str(out), "--seed", seed,
                         "--epochs", "1"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_missing_seed_everywhere_exit_2(self, cli_env, tmp_path, capsys):
        doc = copy.deepcopy(TINY_OVERRIDES)
        doc["train"].pop("seed")
        doc["train"]["epochs"] = 1
        cfg = tmp_path / "noseed.json"
        cfg.write_text(json.dumps(doc))
        code = main(["pretrain", "--config", str(cfg), "--data", str(cli_env["data"]),
                     "--out", str(tmp_path / "x.lavc")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_missing_data_dir_exit_3(self, cli_env, tmp_path):
        assert main(["pretrain", "--config", str(cli_env["cfg"]),
                     "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "x.lavc")]) == 3


def _with(doc_edits: dict, tmp_path, name: str) -> str:
    """A config file: the tiny config with `doc_edits` merged into its sections."""
    doc = copy.deepcopy(TINY_OVERRIDES)
    doc["train"]["epochs"] = 1
    for section, values in doc_edits.items():
        doc.setdefault(section, {}).update(values)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestResume:
    def test_conflicting_flag_exit_2(self, cli_env, tmp_path, capsys):
        # the checkpoint stores epochs 1: a resumed run cannot silently drop --epochs 3
        code = main(["pretrain", "--data", str(cli_env["data"]), "--out",
                     str(tmp_path / "r.lavc"), "--resume", str(cli_env["ckpt"]),
                     "--epochs", "3"])
        assert code == 2
        assert "train.epochs" in capsys.readouterr().err
        assert not (tmp_path / "r.lavc").exists()

    def test_conflicting_config_value_exit_2(self, cli_env, tmp_path, capsys):
        cfg = _with({"optim": {"lr_max": 0.5}}, tmp_path, "lr")
        code = main(["pretrain", "--config", cfg, "--data", str(cli_env["data"]),
                     "--out", str(tmp_path / "r.lavc"), "--resume", str(cli_env["ckpt"])])
        assert code == 2
        assert "optim.lr_max" in capsys.readouterr().err

    def test_finished_run_with_equal_values_prints_null_loss(self, cli_env, tmp_path, capsys):
        # flags and --config may repeat the stored values; no step runs, so
        # there is no final loss, and the report stays valid JSON
        code = main(["pretrain", "--config", str(cli_env["cfg"]), "--data",
                     str(cli_env["data"]), "--out", str(tmp_path / "r.lavc"),
                     "--resume", str(cli_env["ckpt"]), "--epochs", "1", "--seed", "11"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"final_loss": null' in out
        report = json.loads(out, parse_constant=lambda c: pytest.fail(f"not JSON: {c}"))
        assert report["epochs"] == 1 and report["final_loss"] is None

    def test_checkpoint_loaded_once(self, cli_env, tmp_path, monkeypatch):
        # the archive read for the stored config is the one training resumes from
        cfg = _with({"train": {"epochs": 2, "checkpoint_every": 1}}, tmp_path, "two")
        assert main(["pretrain", "--config", cfg, "--data", str(cli_env["data"]),
                     "--out", str(tmp_path / "full.lavc")]) == 0
        calls = []

        def spy(path):
            calls.append(path)
            return load_checkpoint(path)

        monkeypatch.setattr(cli_mod, "load_checkpoint", spy)
        monkeypatch.setattr(train_mod, "load_checkpoint", spy)
        ckpt = str(tmp_path / "full.epoch0001.lavc")
        assert main(["pretrain", "--data", str(cli_env["data"]), "--out",
                     str(tmp_path / "r.lavc"), "--resume", ckpt]) == 0
        assert calls == [ckpt]
        assert (tmp_path / "r.lavc").read_bytes() == (tmp_path / "full.lavc").read_bytes()
        assert main(["pretrain", "--data", str(cli_env["data"]), "--out",
                     str(tmp_path / "c.lavc"), "--resume", ckpt, "--epochs", "3"]) == 2
        assert calls == [ckpt, ckpt]  # a conflicting resume also reads it once


class TestDatasetModelMismatch:
    """A dataset the model does not fit exits 2 with a message naming the
    sample and the config key, never a shape error traceback."""

    @pytest.fixture(scope="class")
    def other_data(self, tmp_path_factory):
        # the tiny dataset with wider video and audio frames (8 -> 10, 6 -> 9)
        root = tmp_path_factory.mktemp("other")
        cfg = _with({"data": {"d_video": 10, "d_audio": 9}}, root, "wide")
        assert main(["gen-data", "--config", cfg, "--out", str(root / "ds")]) == 0
        return root / "ds"

    @pytest.mark.parametrize("edits, key", [
        ({"data": {"d_video": 16}}, "data.d_video"),
        ({"data": {"d_audio": 5}}, "data.d_audio"),
        ({"data": {"vocab": 6}}, "data.vocab"),
        ({"data": {"l_text": 2}, "model": {"max_text_len": 3}}, "model.max_text_len"),
    ], ids=["d_video", "d_audio", "vocab", "max_text_len"])
    def test_pretrain_exit_2(self, cli_env, tmp_path, capsys, edits, key):
        cfg = _with(edits, tmp_path, "misfit")
        code = main(["pretrain", "--config", cfg, "--data", str(cli_env["data"]),
                     "--out", str(tmp_path / "x.lavc")])
        assert code == 2
        err = capsys.readouterr().err
        assert "sample 's0" in err and key in err
        assert not (tmp_path / "x.lavc").exists()

    @pytest.mark.parametrize("command, mode, key", [
        ("probe", "video", "data.d_video"),
        ("probe", "audio+video", "data.d_video"),
        ("eval", "video", "data.d_video"),
    ])
    def test_probe_and_eval_on_wider_video_exit_2(self, cli_env, other_data, capsys,
                                                  command, mode, key):
        code = main([command, "--ckpt", str(cli_env["ckpt"]), "--data", str(other_data),
                     "--mode", mode, "--config", str(cli_env["cfg"])])
        assert code == 2
        err = capsys.readouterr().err
        assert "sample 's0" in err and key in err

    def test_fused_eval_on_wider_audio_exit_2(self, cli_env, tmp_path, capsys):
        # same video width, another audio width: the video probe still runs,
        # the fused one names data.d_audio, with a trained head or a saved one
        cfg = _with({"data": {"d_audio": 9}}, tmp_path, "audio9")
        data = tmp_path / "ds"
        assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
        head = tmp_path / "head.lavc"
        save_probe(head, ProbeHead(Stream(0, "head").normal((32, 3)), np.zeros(3),
                                   "audio+video"))
        base = ["eval", "--ckpt", str(cli_env["ckpt"]), "--data", str(data),
                "--clips", "1", "--config", str(cli_env["cfg"])]
        assert main(base + ["--mode", "video"]) == 0
        capsys.readouterr()
        for extra in ([], ["--head", str(head)]):
            assert main(base + ["--mode", "audio+video"] + extra) == 2
            err = capsys.readouterr().err
            assert "sample 's0" in err and "data.d_audio" in err


class TestMalformedInputs:
    @pytest.mark.parametrize("doc,key", MALFORMED, ids=[key for _, key in MALFORMED])
    def test_malformed_config_exit_2(self, cli_env, tmp_path, capsys, doc, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        code = main(["pretrain", "--config", str(cfg), "--data", str(cli_env["data"]),
                     "--out", str(tmp_path / "x.lavc"), "--seed", "1"])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("dims", [[2**31, 2**28], [2**62]], ids=str)
    def test_oversized_ltf_header_exit_3(self, cli_env, tmp_path, capsys, dims):
        # a checkpoint archive whose one entry declares far more bytes than it holds
        name = b"param.x"
        bad = tmp_path / "forged.lavc"
        bad.write_bytes(b"LAVC" + struct.pack("<I", 1) + struct.pack("<H", len(name)) + name
                        + ltf_header(dims) + bytes(64))
        assert main(["probe", "--ckpt", str(bad), "--data", str(cli_env["data"])]) == 3
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("blob, message", [
        (b"{not json", "not UTF-8 JSON"),
        (b"\xff\xfe{}", "not UTF-8 JSON"),
        (b"{}", "has no 'config'"),
        (b'{"config": null}', "must be an object"),
        (b'{"config": 5}', "must be an object"),
        (b'{"config": [1, 2]}', "must be an object"),
        (b'{"config": {"model": {"n_heads": 3}}}', "model.d_model must be divisible"),
        (b'{"config": {"data": {"bogus": 1}}}', "unknown config key 'data.bogus'"),
    ], ids=["not-json", "not-utf8", "no-config", "null", "int", "list", "bad-heads",
            "unknown-key"])
    def test_forged_checkpoint_config_exit_3(self, cli_env, tmp_path, capsys, blob, message):
        entries = _read_archive(cli_env["ckpt"])
        entries["config"] = np.frombuffer(blob, dtype=np.uint8)
        bad = tmp_path / "forged.lavc"
        _write_archive(bad, list(entries.items()))
        assert main(["probe", "--ckpt", str(bad), "--data", str(cli_env["data"])]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "entry 'config'" in err and message in err

    def test_stack_dims_of_older_archives_ignored(self, cli_env, tmp_path):
        # an archive in the earlier format, whose `stack_dims` says 2 heads
        # where its config says 4: the model comes from the config alone
        entries = _read_archive(cli_env["ckpt"])
        blob = json.loads(entries["config"].tobytes())
        config = copy.deepcopy(blob["config"])
        config["model"]["n_heads"] = 4
        data, model = config["data"], blob["config"]["model"]
        dims = {**model, "d_ff": 2 * model["d_model"], "audio_hidden": model["d_model"],
                "d_video_raw": data["d_video"], "d_audio_raw": data["d_audio"],
                "vocab": data["vocab"]}
        older = json.dumps({"config": config, "stack_dims": dims}, sort_keys=True).encode()
        entries["config"] = np.frombuffer(older, dtype=np.uint8)
        path = tmp_path / "older.lavc"
        _write_archive(path, list(entries.items()))
        ck = load_checkpoint(path)
        assert dims["n_heads"] == 2
        assert {enc.n_heads for enc in (ck.stack.f_a, ck.stack.f_v, ck.stack.f_t)} == {4}
        assert ck.config == config
        for name, p in ck.stack.parameters():
            assert p.data.tobytes() == entries[f"param.{name}"].tobytes(), name

    def test_config_larger_than_archive_exit_3(self, cli_env, tmp_path, capsys):
        entries = _read_archive(cli_env["ckpt"])
        blob = json.loads(entries["config"].tobytes())
        blob["config"]["model"].update(d_model=256, n_layers=16)
        entries["config"] = np.frombuffer(json.dumps(blob).encode(), dtype=np.uint8)
        bad = tmp_path / "forged.lavc"
        _write_archive(bad, list(entries.items()))
        assert main(["probe", "--ckpt", str(bad), "--data", str(cli_env["data"])]) == 3
        assert "shape mismatch for 'param.video_in.W'" in capsys.readouterr().err

    def test_resume_over_disagreeing_log_exit_3(self, cli_env, tmp_path, capsys):
        out = tmp_path / "r.lavc"
        log = tmp_path / "r.lavc.log.jsonl"
        log.write_text('{"step": 0}\nnot json\n')
        assert main(["pretrain", "--data", str(cli_env["data"]), "--out", str(out),
                     "--resume", str(cli_env["ckpt"])]) == 3
        assert f"{log}: line 2 is not the record of step 1" in capsys.readouterr().err
        assert log.read_text() == '{"step": 0}\nnot json\n'

    @pytest.mark.parametrize("counters", [[3.0, 1.0], [3.0, 1.0, 0.5], [3.0, -1.0, 3.0],
                                          [[3.0, 1.0, 3.0]]], ids=str)
    def test_forged_counters_exit_3(self, cli_env, tmp_path, capsys, counters):
        entries = _read_archive(cli_env["ckpt"])
        entries["state.counters"] = np.array(counters)
        bad = tmp_path / "forged.lavc"
        _write_archive(bad, list(entries.items()))
        assert main(["probe", "--ckpt", str(bad), "--data", str(cli_env["data"])]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "'state.counters'" in err

    @pytest.mark.parametrize("forge, message", [
        (lambda entries: entries.pop("config"), "missing entry 'config'"),
        (lambda entries: entries.update({"param.probe.W": np.zeros(4)}), "do not form"),
        (lambda entries: entries.update(config=np.frombuffer(b'{"mode": 5}', dtype=np.uint8)),
         "has mode 5"),
        (lambda entries: entries.update(config=np.frombuffer(b'{"mode": "bogus"}',
                                                             dtype=np.uint8)),
         "has mode 'bogus'"),
    ], ids=["no-config", "1d-weight", "mode-int", "mode-unknown"])
    def test_forged_probe_head_exit_3(self, cli_env, tmp_path, capsys, forge, message):
        head = tmp_path / "head.lavc"
        save_probe(head, ProbeHead(Stream(0, "head").normal((4, 3)), np.zeros(3), "video"))
        entries = _read_archive(head)
        forge(entries)
        _write_archive(head, list(entries.items()))
        code = main(["eval", "--ckpt", str(cli_env["ckpt"]), "--data", str(cli_env["data"]),
                     "--mode", "video", "--clips", "1", "--head", str(head),
                     "--config", str(cli_env["cfg"])])
        assert code == 3
        err = capsys.readouterr().err
        assert str(head) in err and message in err

    def test_non_utf8_entry_name_exit_3(self, cli_env, tmp_path, capsys):
        head = tmp_path / "head.lavc"
        save_probe(head, ProbeHead(Stream(0, "head").normal((4, 3)), np.zeros(3), "video"))
        raw = head.read_bytes()
        assert raw.count(b"param.probe.b") == 1
        head.write_bytes(raw.replace(b"param.probe.b", b"param.probe.\xff"))
        code = main(["eval", "--ckpt", str(cli_env["ckpt"]), "--data", str(cli_env["data"]),
                     "--mode", "video", "--clips", "1", "--head", str(head),
                     "--config", str(cli_env["cfg"])])
        assert code == 3
        err = capsys.readouterr().err
        assert str(head) in err and "is not UTF-8" in err

    def test_nan_parameter_exit_3(self, cli_env, tmp_path, capsys):
        # rejected as the archive is read, not at the first forward (exit 4)
        entries = _read_archive(cli_env["ckpt"])
        entries["param.video_in.W"] = np.full_like(entries["param.video_in.W"], np.nan)
        bad = tmp_path / "forged.lavc"
        _write_archive(bad, list(entries.items()))
        code = main(["eval", "--ckpt", str(bad), "--data", str(cli_env["data"]),
                     "--mode", "video", "--clips", "1", "--config", str(cli_env["cfg"])])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{bad}:param.video_in.W" in err and "NaN or infinite" in err


class TestProbeAndEval:
    def test_probe_writes_head(self, cli_env, capsys):
        assert main(["probe", "--ckpt", str(cli_env["ckpt"]), "--data",
                     str(cli_env["data"]), "--mode", "video",
                     "--config", str(cli_env["cfg"])]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "video"
        assert json.loads(json.dumps(out))  # machine-parsable

    def test_eval_all_splits(self, cli_env, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["eval", "--ckpt", str(cli_env["ckpt"]), "--data",
                     str(cli_env["data"]), "--mode", "video", "--clips", "1",
                     "--config", str(cli_env["cfg"]), "--out", str(report_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["splits"]) == {"test1", "test2", "test3"}
        assert report["clips_per_video"] == 1
        assert json.loads(report_path.read_text()) == report

    def test_eval_single_split(self, cli_env, capsys):
        assert main(["eval", "--ckpt", str(cli_env["ckpt"]), "--data",
                     str(cli_env["data"]), "--mode", "video", "--clips", "1",
                     "--splits", "1", "--config", str(cli_env["cfg"])]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["splits"]) == {"test1"}

    def test_eval_reuses_saved_head(self, cli_env, capsys, tmp_path):
        head = tmp_path / "head.lavc"
        assert main(["probe", "--ckpt", str(cli_env["ckpt"]), "--data",
                     str(cli_env["data"]), "--mode", "video",
                     "--config", str(cli_env["cfg"]), "--out", str(head)]) == 0
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(cli_env["ckpt"]), "--data",
                     str(cli_env["data"]), "--mode", "video", "--clips", "1",
                     "--head", str(head), "--config", str(cli_env["cfg"])]) == 0

    def test_head_mode_mismatch_exit_2(self, cli_env, capsys, tmp_path):
        head = tmp_path / "vhead.lavc"
        assert main(["probe", "--ckpt", str(cli_env["ckpt"]), "--data",
                     str(cli_env["data"]), "--mode", "video",
                     "--config", str(cli_env["cfg"]), "--out", str(head)]) == 0
        assert main(["eval", "--ckpt", str(cli_env["ckpt"]), "--data",
                     str(cli_env["data"]), "--mode", "audio+video",
                     "--head", str(head), "--config", str(cli_env["cfg"])]) == 2

    def test_overflowing_probe_exit_4(self, cli_env, tmp_path, capsys):
        doc = copy.deepcopy(TINY_OVERRIDES)
        doc["eval"].update(probe_lr=1e308, probe_epochs=2)
        cfg = tmp_path / "huge-lr.json"
        cfg.write_text(json.dumps(doc))
        code = main(["probe", "--ckpt", str(cli_env["ckpt"]), "--data", str(cli_env["data"]),
                     "--mode", "video", "--config", str(cfg), "--out", str(tmp_path / "h.lavc")])
        assert code == 4
        assert "numeric abort" in capsys.readouterr().err
        assert not (tmp_path / "h.lavc").exists()

    @pytest.mark.parametrize("mode,edit", [
        ("audio+video", lambda m: m["templates"].pop("audio")),
        ("video", lambda m: m["templates"].update(video=7)),
        ("video", lambda m: m.update(templates=["templates_video.ltf"])),
        ("video", lambda m: m["templates"].update(video="templates_audio.ltf")),
        ("video", lambda m: m["config"].update(bogus=1)),
        ("video", lambda m: m["config"].update(t_video=0)),
        ("video", lambda m: m.pop("config")),
    ], ids=["no-audio-template", "template-name-not-a-string", "templates-not-an-object",
            "template-shape", "unknown-config-key", "config-out-of-bounds", "no-config"])
    def test_malformed_meta_exit_3(self, cli_env, tmp_path, capsys, mode, edit):
        # meta.json is a dataset file: multi-clip evaluation reads its config
        # and templates, and a fault there is a format error, not a config one
        data = tmp_path / "ds"
        shutil.copytree(cli_env["data"], data)
        meta = json.loads((data / "meta.json").read_text())
        edit(meta)
        (data / "meta.json").write_text(json.dumps(meta))
        assert main(["eval", "--ckpt", str(cli_env["ckpt"]), "--data", str(data),
                     "--mode", mode, "--clips", "4", "--splits", "1",
                     "--config", str(cli_env["cfg"])]) == 3
        assert "meta.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda m: m["config"].update(bogus=1),
        lambda m: m["config"].update(t_video=0),
        lambda m: m.update(config=[1]),
    ], ids=["unknown-config-key", "config-out-of-bounds", "config-not-an-object"])
    def test_meta_config_checked_at_load_exit_3(self, cli_env, tmp_path, capsys, edit):
        # load_manifest checks meta.json's config against the data schema, so
        # pre-training refuses such a dataset too, not only multi-clip eval
        data = tmp_path / "ds"
        shutil.copytree(cli_env["data"], data)
        meta = json.loads((data / "meta.json").read_text())
        edit(meta)
        (data / "meta.json").write_text(json.dumps(meta))
        assert main(["pretrain", "--config", str(cli_env["cfg"]), "--data", str(data),
                     "--out", str(tmp_path / "x.lavc")]) == 3
        assert "meta.json" in capsys.readouterr().err

    def test_fusion_on_audio_free_dataset_exit_2(self, cli_env, tmp_path, capsys):
        doc = copy.deepcopy(TINY_OVERRIDES)
        doc["data"]["p_available"] = 0.0
        doc["train"]["epochs"] = 1
        cfg = tmp_path / "nofaudio.json"
        cfg.write_text(json.dumps(doc))
        data = tmp_path / "ds"
        assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
        code = main(["eval", "--ckpt", str(cli_env["ckpt"]), "--data", str(data),
                     "--mode", "audio+video", "--config", str(cfg)])
        assert code == 2
        assert "audio" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_with_json_output(self, capsys):
        assert main(["gradcheck", "--seed", "1", "--instances", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert "matmul" in report["ops"]
        assert report["worst"] < report["tolerance"]


class TestHelp:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "gen-data" in capsys.readouterr().out
