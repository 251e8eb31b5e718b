"""Training loop: determinism, checkpointing, resumption, abort handling."""

import json
import weakref

import numpy as np
import pytest

from trimodal import config as cfg_mod
from trimodal import ltf
from trimodal import train as train_mod
from trimodal.checkpoint import load_checkpoint, save_checkpoint
from trimodal.data import generate_synthetic
from trimodal.encoders import EncoderStack
from trimodal.errors import ConfigError, FormatError, NumericError, TrainingAborted
from trimodal.train import pretrain


def read_log(path):
    return [json.loads(line) for line in open(path) if line.strip()]


def strip_wall(records):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]


class TestDeterminism:
    def test_one_step_twice_bitwise_identical(self, tiny_cfg, tiny_dataset, tmp_path):
        cfg = cfg_mod.validate({**tiny_cfg, "train": {**tiny_cfg["train"], "epochs": 1}})
        a = pretrain(cfg, tiny_dataset.root, tmp_path / "a.lavc")
        b = pretrain(cfg, tiny_dataset.root, tmp_path / "b.lavc")
        assert (tmp_path / "a.lavc").read_bytes() == (tmp_path / "b.lavc").read_bytes()
        assert strip_wall(read_log(a.log_path)) == strip_wall(read_log(b.log_path))

    def test_log_schema(self, tiny_run):
        rec = read_log(tiny_run.log_path)[0]
        assert list(rec) == ["step", "epoch", "lr", "L_AV", "L_VT", "L_AVT",
                             "total", "skipped_terms", "wall_ms"]

    def test_total_is_sum_of_terms(self, tiny_run):
        for rec in read_log(tiny_run.log_path):
            assert rec["total"] == rec["L_AV"] + rec["L_VT"] + rec["L_AVT"]


class TestMemory:
    def test_step_graph_freed_before_next_forward(self, tiny_cfg, tiny_dataset, tmp_path,
                                                  monkeypatch):
        # Only one step's graph may be alive at a time: when a forward starts,
        # nothing of the previous step (embeddings, centroids, loss root) is.
        step_refs: list = []
        alive_at_forward: list[bool] = []
        embed, total = EncoderStack.embed_batch, train_mod.loss_total

        def spy_embed(stack, batch, **kw):
            alive_at_forward.append(any(ref() is not None for ref in step_refs))
            step_refs.clear()
            emb = embed(stack, batch, **kw)
            step_refs.append(weakref.ref(emb))
            return emb

        def spy_loss(emb, cents, cfg):
            lb = total(emb, cents, cfg)
            step_refs.extend([weakref.ref(lb), weakref.ref(lb.total), weakref.ref(cents)])
            return lb

        monkeypatch.setattr(EncoderStack, "embed_batch", spy_embed)
        monkeypatch.setattr(train_mod, "loss_total", spy_loss)
        cfg = cfg_mod.validate({**tiny_cfg, "train": {**tiny_cfg["train"], "epochs": 1}})
        res = pretrain(cfg, tiny_dataset.root, tmp_path / "m.lavc")
        assert len(alive_at_forward) == res.steps > 1
        assert not any(alive_at_forward)


class TestAblationConfigs:
    def test_av_only_runs_without_text(self, tiny_cfg, tiny_dataset, tmp_path):
        cfg = cfg_mod.validate({**tiny_cfg,
                                "loss": {**tiny_cfg["loss"], "terms": ["av"]},
                                "train": {**tiny_cfg["train"], "epochs": 1}})
        res = pretrain(cfg, tiny_dataset.root, tmp_path / "av.lavc")
        for rec in read_log(res.log_path):
            assert rec["L_VT"] == 0.0 and rec["L_AVT"] == 0.0

    def test_modality_free_dataset_skips_and_warns(self, tiny_cfg, tmp_path):
        synth = cfg_mod.synthetic_config(tiny_cfg)
        synth.p_available = 0.0
        man = generate_synthetic(synth, tmp_path / "videoonly")
        cfg = cfg_mod.validate({**tiny_cfg,
                                "loss": {**tiny_cfg["loss"], "terms": ["av"]},
                                "train": {**tiny_cfg["train"], "epochs": 1}})
        with pytest.warns(UserWarning, match="skipped"):
            res = pretrain(cfg, man.root, tmp_path / "skip.lavc")
        steps = [r for r in read_log(res.log_path) if "step" in r]
        assert all(r["skipped_terms"] == ["av"] and r["total"] == 0.0 for r in steps)


class TestCheckpoint:
    def test_save_load_save_bitwise(self, tiny_run, tmp_path):
        ck = load_checkpoint(tiny_run.checkpoint_path)
        out = tmp_path / "again.lavc"
        save_checkpoint(out, ck.stack, ck.adam, ck.config, ck.epochs_done, ck.step)
        assert out.read_bytes() == tiny_run.checkpoint_path.read_bytes()

    def test_load_restores_counters(self, tiny_run, tiny_cfg):
        ck = load_checkpoint(tiny_run.checkpoint_path)
        assert ck.epochs_done == tiny_cfg["train"]["epochs"]
        assert ck.step == tiny_run.steps
        assert ck.adam.t == tiny_run.steps

    def test_truncated_archive_rejected(self, tiny_run, tmp_path):
        raw = tiny_run.checkpoint_path.read_bytes()
        bad = tmp_path / "trunc.lavc"
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError, match="truncat"):
            load_checkpoint(bad)

    def test_bad_magic_rejected(self, tiny_run, tmp_path):
        raw = bytearray(tiny_run.checkpoint_path.read_bytes())
        raw[:4] = b"XXXX"
        bad = tmp_path / "magic.lavc"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(bad)

    def test_duplicate_names_rejected(self, tiny_run, tmp_path):
        from trimodal.checkpoint import _write_archive
        with pytest.raises(FormatError, match="duplicate"):
            _write_archive(tmp_path / "dup.lavc",
                           [("a", np.zeros(2)), ("a", np.zeros(2))])

    def test_failed_write_keeps_previous_archive(self, tiny_run, tmp_path, monkeypatch):
        # a save that fails after its first entry leaves the old checkpoint
        # byte for byte, and no temporary file beside it
        ck = load_checkpoint(tiny_run.checkpoint_path)
        out = tmp_path / "ck.lavc"
        out.write_bytes(tiny_run.checkpoint_path.read_bytes())
        write_stream, written = ltf.write_stream, []

        def fail_after_first(f, arr):
            if written:
                raise OSError("disk full")
            written.append(arr)
            write_stream(f, arr)

        monkeypatch.setattr(ltf, "write_stream", fail_after_first)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(out, ck.stack, ck.adam, ck.config, ck.epochs_done + 1, ck.step + 1)
        assert len(written) == 1
        assert out.read_bytes() == tiny_run.checkpoint_path.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["ck.lavc"]

    def test_trailing_bytes_rejected(self, tiny_run, tmp_path):
        bad = tmp_path / "trail.lavc"
        bad.write_bytes(tiny_run.checkpoint_path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(bad)


class TestResume:
    def test_resume_matches_uninterrupted_bitwise(self, tiny_cfg, tiny_dataset, tmp_path):
        # tiny split has >= 5 steps per epoch, satisfying the 5-step contract
        cfg2 = cfg_mod.validate({**tiny_cfg,
                                 "train": {**tiny_cfg["train"], "epochs": 2,
                                           "checkpoint_every": 1}})
        full = pretrain(cfg2, tiny_dataset.root, tmp_path / "full.lavc")
        midpoint = full.epoch_checkpoints[1]

        resumed = pretrain(None, tiny_dataset.root, tmp_path / "resumed.lavc",
                           resume=midpoint)

        assert (tmp_path / "resumed.lavc").read_bytes() == (tmp_path / "full.lavc").read_bytes()
        full_log = strip_wall(read_log(full.log_path))
        resumed_log = strip_wall(read_log(resumed.log_path))
        steps_per_epoch = full.steps // 2
        assert resumed_log == full_log[steps_per_epoch:]
        assert len(resumed_log) >= 5

    def test_intermediate_checkpoints_written(self, tiny_cfg, tiny_dataset, tmp_path):
        cfg = cfg_mod.validate({**tiny_cfg,
                                "train": {**tiny_cfg["train"], "epochs": 2,
                                          "checkpoint_every": 1}})
        res = pretrain(cfg, tiny_dataset.root, tmp_path / "ck.lavc")
        assert set(res.epoch_checkpoints) == {1, 2}
        assert res.epoch_checkpoints[1].exists()
        mid = load_checkpoint(res.epoch_checkpoints[1])
        assert mid.epochs_done == 1


class TestAbort:
    def test_numeric_failure_aborts_and_keeps_checkpoint(self, tiny_cfg, tiny_dataset,
                                                         tmp_path, monkeypatch):
        calls = {"n": 0}
        real = train_mod.loss_total

        def wrapped(emb, cents, cfg):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise NumericError("synthetic failure")
            return real(emb, cents, cfg)

        monkeypatch.setattr(train_mod, "loss_total", wrapped)
        cfg = cfg_mod.validate({**tiny_cfg, "train": {**tiny_cfg["train"], "epochs": 1}})
        out = tmp_path / "abort.lavc"
        with pytest.raises(TrainingAborted, match="step 2"):
            pretrain(cfg, tiny_dataset.root, out)
        assert not out.exists()  # no corrupt final checkpoint is written

    def test_seed_required(self, tiny_cfg, tiny_dataset, tmp_path):
        cfg = cfg_mod.validate({**tiny_cfg, "train": {**tiny_cfg["train"], "seed": None}})
        with pytest.raises(ConfigError, match="seed"):
            pretrain(cfg, tiny_dataset.root, tmp_path / "x.lavc")


class TestLearning:
    def test_loss_decreases_on_tiny_dataset(self, tiny_cfg, tiny_dataset, tmp_path):
        cfg = cfg_mod.validate({**tiny_cfg, "train": {**tiny_cfg["train"], "epochs": 6}})
        res = pretrain(cfg, tiny_dataset.root, tmp_path / "learn.lavc")
        totals = [r["total"] for r in read_log(res.log_path) if "step" in r]
        assert np.mean(totals[-10:]) < np.mean(totals[:10])
