"""CLI subcommands, exit codes and artifact flows."""

import copy
import json
import struct

import numpy as np
import pytest

from conftest import TINY_OVERRIDES
from test_config import MALFORMED
from test_ltf import ltf_header
from trimodal.checkpoint import _read_archive, _write_archive
from trimodal.cli import main
from trimodal.evaluate import ProbeHead, save_probe
from trimodal.layers import Linear


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
        (json.dumps({"config": {}}).encode(), "has no 'stack_dims'"),
    ], ids=["not-json", "not-utf8", "no-stack-dims"])
    def test_forged_checkpoint_config_exit_3(self, cli_env, tmp_path, capsys, blob, message):
        entries = _read_archive(cli_env["ckpt"])
        entries["config"] = np.frombuffer(blob, dtype=np.uint8)
        bad = tmp_path / "forged.lavc"
        _write_archive(bad, list(entries.items()))
        assert main(["probe", "--ckpt", str(bad), "--data", str(cli_env["data"])]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and message in err

    @pytest.mark.parametrize("forge, message", [
        (lambda blob: blob["stack_dims"].pop("vocab"), "no positive integer 'vocab'"),
        (lambda blob: blob["stack_dims"].pop("d_audio_raw"), "no positive integer 'd_audio_raw'"),
        (lambda blob: blob.update(stack_dims=list(blob["stack_dims"].values())),
         "'stack_dims' in entry 'config' is not an object"),
        (lambda blob: blob["stack_dims"].update(n_heads=3), "model.d_model"),
    ], ids=["no-vocab", "no-d_audio_raw", "list", "bad-model-key"])
    def test_forged_stack_dims_exit_3(self, cli_env, tmp_path, capsys, forge, message):
        entries = _read_archive(cli_env["ckpt"])
        blob = json.loads(entries["config"].tobytes())
        forge(blob)
        entries["config"] = np.frombuffer(json.dumps(blob).encode(), dtype=np.uint8)
        bad = tmp_path / "forged.lavc"
        _write_archive(bad, list(entries.items()))
        assert main(["probe", "--ckpt", str(bad), "--data", str(cli_env["data"])]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and message in err

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
    ], ids=["no-config", "1d-weight"])
    def test_forged_probe_head_exit_3(self, cli_env, tmp_path, capsys, forge, message):
        head = tmp_path / "head.lavc"
        save_probe(head, ProbeHead(Linear(4, 3, 0, "probe"), "video", 3))
        entries = _read_archive(head)
        forge(entries)
        _write_archive(head, list(entries.items()))
        code = main(["eval", "--ckpt", str(cli_env["ckpt"]), "--data", str(cli_env["data"]),
                     "--mode", "video", "--clips", "1", "--head", str(head),
                     "--config", str(cli_env["cfg"])])
        assert code == 3
        err = capsys.readouterr().err
        assert str(head) in err and message in err


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
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
