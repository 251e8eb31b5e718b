"""Command-line interface.

Exit codes: 0 success, 1 verification failure (gradcheck), 2 configuration
error, 3 I/O or file-format error, 4 numeric abort (pre-training or probe fitting).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import config as cfg_mod
from . import gradcheck
from .checkpoint import load_checkpoint
from .data import generate_synthetic, load_manifest
from .errors import (AvailabilityError, ConfigError, FormatError, MaskError, NumericError,
                     TrainingAborted)
from .evaluate import evaluate_all_splits, load_probe, save_probe, train_probe
from .ltf import atomic_write
from .train import pretrain

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _cmd_gen_data(args) -> int:
    cfg = cfg_mod.resolve_config(args.config)
    synth = cfg_mod.synthetic_config(cfg)
    manifest = generate_synthetic(synth, args.out, force=args.force)
    n_joint = sum(1 for r in manifest.records if r.audio_path and r.text_path)
    per_class: dict[int, int] = {}
    for r in manifest.records:
        per_class[r.label] = per_class.get(r.label, 0) + 1
    summary = {
        "manifest": str(Path(args.out) / "manifest.jsonl"),
        "n_samples": len(manifest.records),
        "n_with_audio_and_text": n_joint,
        "n_classes": manifest.n_classes,
        "class_counts": {str(k): per_class[k] for k in sorted(per_class)},
        "splits": {s: len(manifest.records_for(s)) for s in ("train", "test1", "test2", "test3")},
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _cmd_pretrain(args) -> int:
    overrides: dict = {"train": {}, "loss": {}}
    if args.losses:
        terms = [t.strip() for t in args.losses.split(",") if t.strip()]
        overrides["loss"]["terms"] = terms
    if args.epochs is not None:
        overrides["train"]["epochs"] = args.epochs
    if args.seed is not None:
        overrides["train"]["seed"] = args.seed
    if args.checkpoint_every is not None:
        overrides["train"]["checkpoint_every"] = args.checkpoint_every
    overrides = {k: v for k, v in overrides.items() if v}
    if args.resume is None:
        cfg, resume = cfg_mod.resolve_config(args.config, overrides), None
    else:
        resume = load_checkpoint(args.resume)  # loaded once, for its config and to resume
        cfg = cfg_mod.resume_config(resume.config, args.config, overrides)
    result = pretrain(cfg, args.data, args.out, resume=resume)
    print(json.dumps({
        "checkpoint": str(result.checkpoint_path),
        "log": str(result.log_path),
        "steps": result.steps,
        "epochs": result.epochs_done,
        "final_loss": result.final_loss,
    }, indent=2))
    return EXIT_OK


def _probe_setup(args):
    cfg = cfg_mod.resolve_config(args.config)
    ck = load_checkpoint(args.ckpt)
    manifest = load_manifest(args.data)
    probe_cfg = cfg_mod.probe_config(cfg)
    return cfg, ck, manifest, probe_cfg


def _cmd_probe(args) -> int:
    _, ck, manifest, probe_cfg = _probe_setup(args)
    head = train_probe(ck.stack, manifest, args.mode, probe_cfg)
    out = args.out or str(args.ckpt) + f".probe-{args.mode.replace('+', '_')}.lavc"
    save_probe(out, head)
    print(json.dumps({"probe": str(out), "mode": head.mode, "d_in": head.d_in,
                      "n_classes": head.n_classes}, indent=2))
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg, ck, manifest, probe_cfg = _probe_setup(args)
    if args.head:
        head = load_probe(args.head)
        if head.mode != args.mode:
            raise ConfigError(f"probe head was trained for mode {head.mode!r}, "
                              f"requested {args.mode!r}")
    else:
        head = train_probe(ck.stack, manifest, args.mode, probe_cfg)
    clips = args.clips if args.clips is not None else cfg["eval"]["clips_per_video"]
    splits = ("test1",) if args.splits == "1" else ("test1", "test2", "test3")
    report = evaluate_all_splits(ck.stack, head, manifest, clips_per_video=clips,
                                 seed=cfg["eval"]["eval_seed"], splits=splits)
    text = json.dumps(report.to_dict(), indent=2)
    print(text)
    if args.out:
        with atomic_write(args.out) as f:
            f.write((text + "\n").encode("utf-8"))
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    report = gradcheck.run_all(seed=args.seed, instances=args.instances)
    print(gradcheck.report_json(report))
    return EXIT_OK if report["pass"] else EXIT_CHECK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trimodal",
        description="Tri-modal (audio/video/text) contrastive embedding alignment: "
                    "synthetic data, pre-training, linear-probe evaluation, gradient checks.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic tri-modal dataset")
    g.add_argument("--config", help="JSON config file (data section)")
    g.add_argument("--out", required=True, help="output dataset directory")
    g.add_argument("--force", action="store_true", help="overwrite a non-empty directory")
    g.set_defaults(func=_cmd_gen_data)

    t = sub.add_parser("pretrain", help="run contrastive pre-training")
    t.add_argument("--config", help="JSON config file")
    t.add_argument("--data", required=True, help="dataset directory")
    t.add_argument("--out", required=True, help="output checkpoint path (.lavc)")
    t.add_argument("--losses", help="comma list of loss terms, e.g. av,vt,avt")
    t.add_argument("--epochs", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--checkpoint-every", type=int, dest="checkpoint_every",
                   help="write an intermediate checkpoint every N epochs")
    t.add_argument("--resume", help="continue from an epoch-aligned checkpoint, with the "
                   "config stored in it (flags and --config may only repeat its values)")
    t.set_defaults(func=_cmd_pretrain)

    pr = sub.add_parser("probe", help="train a linear probe on a frozen checkpoint")
    pr.add_argument("--ckpt", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--mode", choices=["video", "audio+video"], default="video")
    pr.add_argument("--config", help="JSON config file (eval section)")
    pr.add_argument("--out", help="where to write the probe head archive")
    pr.set_defaults(func=_cmd_probe)

    ev = sub.add_parser("eval", help="evaluate (training a probe head unless --head is given)")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--mode", choices=["video", "audio+video"], default="video")
    ev.add_argument("--clips", type=int, help="clips per test video (default from config)")
    ev.add_argument("--splits", choices=["1", "all"], default="all")
    ev.add_argument("--head", help="reuse a saved probe head")
    ev.add_argument("--config", help="JSON config file (eval section)")
    ev.add_argument("--out", help="also write the report JSON here")
    ev.set_defaults(func=_cmd_eval)

    gc = sub.add_parser("gradcheck", help="finite-difference check of every op and the full loss")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--instances", type=int, default=20,
                    help="random instances per op")
    gc.set_defaults(func=_cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, AvailabilityError, MaskError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingAborted, NumericError) as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
