"""Training loop: determinism, checkpointing, resumption, abort handling."""

import json
import math
import os
import struct
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TINY_OVERRIDES
from test_config import _JSON
import trimodal
from trimodal import config as cfg_mod
from trimodal import ltf
from trimodal import train as train_mod
from trimodal.checkpoint import _read_archive, _write_archive, load_checkpoint, save_checkpoint
from trimodal.data import generate_synthetic
from trimodal.encoders import EncoderStack
from trimodal.errors import ConfigError, FormatError, NumericError, TrainingAborted
from trimodal.evaluate import ProbeHead, load_probe, save_probe
from trimodal.rng import Stream
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

    def test_claimed_model_larger_than_archive_is_not_allocated(self, tmp_path):
        # a desk-default archive whose config claims d_model 256 and 16
        # layers: the load fails on its first entry, and its peak RSS stays
        # near a valid load's (building the claimed model took ~640 MB)
        cfg = cfg_mod.resolve_config(overrides={"train": {"seed": 1}})
        stack = cfg_mod.encoder_stack(cfg, 1)
        valid, forged = tmp_path / "valid.lavc", tmp_path / "forged.lavc"
        save_checkpoint(valid, stack, cfg_mod.adam(cfg, stack.parameters()), cfg, 0, 0)
        entries = _read_archive(valid)
        blob = json.loads(entries["config"].tobytes())
        blob["config"]["model"].update(d_model=256, n_layers=16)
        entries["config"] = np.frombuffer(json.dumps(blob).encode(), dtype=np.uint8)
        _write_archive(forged, list(entries.items()))
        src = os.path.dirname(os.path.dirname(trimodal.__file__))
        script = ("import resource, sys\n"
                  "from trimodal.checkpoint import load_checkpoint\n"
                  "from trimodal.errors import FormatError\n"
                  "try:\n"
                  "    load_checkpoint(sys.argv[1]); print('loaded')\n"
                  "except FormatError as e:\n"
                  "    print(f'FormatError: {e}')\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        peaks = {}
        for path in (valid, forged):
            proc = subprocess.run([sys.executable, "-c", script, str(path)],
                                  env={**os.environ, "PYTHONPATH": src},
                                  capture_output=True, text=True, timeout=120)
            outcome, kib = proc.stdout.splitlines()
            peaks[path.stem] = (outcome, int(kib) / 1024)
        assert peaks["valid"][0] == "loaded"
        assert peaks["forged"][0].startswith(f"FormatError: {forged}: shape mismatch")
        assert peaks["forged"][1] < peaks["valid"][1] + 16.0, peaks

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


# Any JSON value, at the top level of the `config` entry or in its `config`
# slot, and the stored tiny config with schema keys edited. Those keys only
# ever get small values, so that a config the schema accepts never builds a
# stack much larger than the tiny one.
_SMALL = (st.none() | st.booleans() | st.integers(-2, 8) | st.floats(-1.0, 2.0)
          | st.text(max_size=3))
_KEY = st.sampled_from([(name, key) for name, sec in cfg_mod.SCHEMA.items() for key in sec]
                       + [(name, None) for name in cfg_mod.SCHEMA] + [("bogus", None)])


def _edited(edits) -> dict:
    config = cfg_mod.resolve_config(overrides=TINY_OVERRIDES)
    for (name, key), value in edits:
        if key is None:
            config[name] = value
        elif isinstance(config.get(name), dict):
            config[name][key] = value
    return {"config": config}


_STORED = st.one_of(
    _JSON, st.dictionaries(st.sampled_from(["config", "stack_dims"]), _JSON),
    st.lists(st.tuples(_KEY, _SMALL | st.lists(_SMALL, max_size=2)), max_size=3).map(_edited))


class TestArbitraryStoredConfigs:
    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory, tiny_run):
        return (tmp_path_factory.mktemp("stored-config") / "ck.lavc",
                _read_archive(tiny_run.checkpoint_path))

    @settings(max_examples=250, deadline=None)
    @given(blob=_STORED)
    @example(blob={"config": None})
    @example(blob=_edited([(("model", "n_heads"), 3)]))
    @example(blob=_edited([(("model", "n_layers"), 2)]))
    def test_loads_or_raises_format_error(self, archive, blob):
        path, entries = archive
        raw = np.frombuffer(json.dumps(blob).encode(), dtype=np.uint8)
        _write_archive(path, list({**entries, "config": raw}.items()))
        try:
            ck = load_checkpoint(path)
        except FormatError:
            return
        for name, p in ck.stack.parameters():
            assert p.data.tobytes() == entries[f"param.{name}"].tobytes(), name


def _framing(raw: bytes) -> list[int]:
    """Offsets of the bytes that frame an LAVC archive: its magic and count,
    and each entry's name length, name and LTF header."""
    offsets, at = list(range(8)), 8
    for _ in range(struct.unpack_from("<I", raw, 4)[0]):
        ltf_at = at + 2 + struct.unpack_from("<H", raw, at)[0]
        code, rank = raw[ltf_at + 4], raw[ltf_at + 5]
        end = ltf_at + 8 + 8 * rank
        offsets.extend(range(at, end))
        dims = struct.unpack_from(f"<{rank}Q", raw, ltf_at + 8)
        at = end + math.prod(dims) * (1 if code else 8)  # uint8 or float64
    return offsets


# (framing byte?, position, xor mask) edits, then an optional truncation
_EDITS = st.lists(st.tuples(st.booleans(), st.integers(0, 2**31), st.integers(1, 255)),
                  max_size=4)
_CUT = st.none() | st.integers(0, 2**31)


class TestArbitraryArchiveBytes:
    @pytest.fixture(scope="class")
    def archives(self, tmp_path_factory, tiny_run):
        root = tmp_path_factory.mktemp("archive-bytes")
        s = Stream(2, "head")
        save_probe(root / "head.lavc", ProbeHead(s.normal((6, 3)), s.normal(3), "video"))
        out = {}
        for which, path, load in (("checkpoint", tiny_run.checkpoint_path, load_checkpoint),
                                  ("probe", root / "head.lavc", load_probe)):
            raw = path.read_bytes()
            out[which] = (root / f"edited-{which}.lavc", raw, _framing(raw), load)
        return out

    @settings(max_examples=300, deadline=None)
    @given(which=st.sampled_from(["checkpoint", "probe"]), edits=_EDITS, cut=_CUT)
    @example(which="checkpoint", edits=[(True, 10, 0x8F)], cut=None)  # name not UTF-8
    @example(which="probe", edits=[(True, 8, 0x40)], cut=None)  # name longer than written
    def test_loads_or_raises_format_error(self, archives, which, edits, cut):
        path, raw, framing, load = archives[which]
        data = bytearray(raw)
        for framed, pos, mask in edits:
            data[framing[pos % len(framing)] if framed else pos % len(data)] ^= mask
        if cut is not None:
            data = data[:cut % len(data)]
        path.write_bytes(bytes(data))
        try:
            load(path)
        except FormatError:
            pass


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

    def test_resume_into_same_log_matches_uninterrupted(self, tiny_cfg, tiny_dataset,
                                                         tmp_path):
        # the records past the checkpoint are dropped, not duplicated
        cfg = cfg_mod.validate({**tiny_cfg, "train": {**tiny_cfg["train"], "epochs": 3,
                                                      "checkpoint_every": 1}})
        full = pretrain(cfg, tiny_dataset.root, tmp_path / "run.lavc")
        full_log = strip_wall(read_log(full.log_path))
        resumed = pretrain(None, tiny_dataset.root, tmp_path / "run.lavc",
                           resume=full.epoch_checkpoints[1])
        assert resumed.log_path == full.log_path
        assert strip_wall(read_log(resumed.log_path)) == full_log
        assert [r["step"] for r in full_log] == list(range(full.steps))

    def test_resume_twice_into_a_resumed_log(self, tiny_cfg, tiny_dataset, tmp_path):
        # a log started by a resumed run begins at that run's checkpoint step,
        # and resuming it again keeps its records from there
        cfg = cfg_mod.validate({**tiny_cfg, "train": {**tiny_cfg["train"], "epochs": 3,
                                                      "checkpoint_every": 1}})
        full = pretrain(cfg, tiny_dataset.root, tmp_path / "full.lavc")
        full_log = strip_wall(read_log(full.log_path))
        first = pretrain(None, tiny_dataset.root, tmp_path / "second.lavc",
                         resume=full.epoch_checkpoints[1])
        start = load_checkpoint(full.epoch_checkpoints[1]).step
        second = pretrain(None, tiny_dataset.root, tmp_path / "second.lavc",
                          resume=first.epoch_checkpoints[2])
        assert second.log_path == first.log_path
        assert strip_wall(read_log(second.log_path)) == full_log[start:]
        assert (tmp_path / "second.lavc").read_bytes() == full.checkpoint_path.read_bytes()

    def test_failed_resume_leaves_the_log(self, tiny_cfg, tiny_dataset, tmp_path,
                                          monkeypatch):
        # the log is cut back only once every set-up check has passed
        cfg = cfg_mod.validate({**tiny_cfg, "train": {**tiny_cfg["train"],
                                                      "checkpoint_every": 1}})
        full = pretrain(cfg, tiny_dataset.root, tmp_path / "run.lavc")
        before = full.log_path.read_bytes()

        def refuse(self, samples, modalities="vat"):
            raise ConfigError("dataset does not fit")

        monkeypatch.setattr(EncoderStack, "check_inputs", refuse)
        with pytest.raises(ConfigError):
            pretrain(None, tiny_dataset.root, tmp_path / "run.lavc",
                     resume=full.epoch_checkpoints[1])
        assert full.log_path.read_bytes() == before

    @pytest.fixture(scope="class")
    def epoch_log(self, tiny_cfg, tiny_dataset, tmp_path_factory):
        """The lines of a 2-epoch log with a warning after each epoch, and its
        epoch-1 checkpoint's step."""
        cfg = cfg_mod.validate({**tiny_cfg, "train": {**tiny_cfg["train"],
                                                      "checkpoint_every": 1}})
        res = pretrain(cfg, tiny_dataset.root, tmp_path_factory.mktemp("log") / "ck.lavc")
        step = load_checkpoint(res.epoch_checkpoints[1]).step
        lines = open(res.log_path, "rb").read().splitlines(keepends=True)
        warn = [json.dumps({"epoch": e, "warning": "w"}).encode() + b"\n" for e in (0, 1)]
        return lines[:step] + warn[:1] + lines[step:] + warn[1:], step

    def test_kept_log_ends_at_the_checkpoint(self, epoch_log, tmp_path):
        lines, step = epoch_log
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"".join(lines) + b'{"step": 99, "ep')  # cut mid-record
        assert train_mod._kept_log(path, step, 1) == b"".join(lines[:step + 1])
        assert train_mod._kept_log(path, len(lines) - 2, 2) == b"".join(lines)
        assert train_mod._kept_log(path, 0, 0) == b""

    def test_kept_log_may_start_past_step_0(self, epoch_log, tmp_path):
        # the log of a run resumed into a new path starts at its checkpoint
        lines, step = epoch_log
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"".join(lines[2:]))
        assert train_mod._kept_log(path, step, 1) == b"".join(lines[2:step + 1])
        path.write_bytes(b"".join(lines[step + 1:]))  # starts at the checkpoint
        assert train_mod._kept_log(path, step, 1) == b""
        assert train_mod._kept_log(path, 1, 0) == b""  # starts past it

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:2] + [b'{"step": 2, "ep\n'] + lines[3:], "line 3 is not"),
        (lambda lines: lines[:2] + [b"\xff\n"] + lines[3:], "line 3 is not"),
        (lambda lines: lines[:2] + [b"[2]\n"] + lines[3:], "line 3 is not"),
        (lambda lines: lines[:2] + lines[3:], "line 3 is not the record of step 2"),
        (lambda lines: lines[:3], "its step records end at step 2"),
        (lambda lines: [b'{"step": -1}\n'] + lines, "line 1 is not a step record"),
        (lambda lines: [b'{"step": true}\n'] + lines[1:], "line 1 is not a step record"),
        (lambda lines: lines[:1] + [b'{"step": true}\n'] + lines[2:],
         "line 2 is not the record of step 1"),
    ], ids=["cut", "not-utf8", "not-object", "skipped-step", "short", "negative-step",
            "bool-step", "bool-step-later"])
    def test_disagreeing_log_is_format_error(self, epoch_log, tmp_path, edit, message):
        lines, step = epoch_log
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"".join(edit(lines)))
        with pytest.raises(FormatError, match=message) as err:
            train_mod._kept_log(path, step, 1)
        assert str(path) in str(err.value)

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
