"""Pre-training loop: batches -> embeddings -> contrastive losses -> Adam.

Fully deterministic given (seed, config, dataset): batch order is keyed on
(seed, epoch), augmentation noise on (seed, epoch, batch, slot), and the
optimizer state rides along in every checkpoint, so resuming from an
epoch-aligned checkpoint reproduces the uninterrupted run bitwise.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import config as cfg_mod
from . import ltf
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import Sample, augment_audio, load_manifest, make_batches
from .errors import ConfigError, FormatError, NumericError, TrainingAborted
from .losses import compute_centroids, loss_total
from .optim import CosineSchedule
from .rng import Stream
from .tensor import backward


@dataclass
class TrainResult:
    checkpoint_path: Path
    log_path: Path
    steps: int
    epochs_done: int
    final_loss: float | None  # None when no step ran
    epoch_checkpoints: dict[int, Path] = field(default_factory=dict)


def _augmented(batch: list[Sample], sigma: float, seed: int, epoch: int,
               batch_idx: int) -> list[Sample]:
    if sigma <= 0:
        return batch
    child_seeds = Stream(seed, "augseed", epoch, batch_idx).u64(len(batch))
    return [s if s.audio is None else replace(s, audio=augment_audio(s.audio, sigma, int(c)))
            for s, c in zip(batch, child_seeds)]


def _kept_log(log_path: Path, step: int, epochs_done: int) -> bytes:
    """The bytes of an existing log that a run resumed at `step`, after
    `epochs_done` epochs, keeps: its step records before `step`, and the
    warnings of epochs before `epochs_done`. The records run one a step from
    the first (0, or the checkpoint step of the run that started the log) to
    `step` - 1; every line up to the last kept one must be such a record or
    warning, otherwise `FormatError` names the log and the line."""
    kept, nxt = [], None  # nxt: the step the next record must have
    with open(log_path, "rb") as f:
        for n, line in enumerate(f, 1):
            try:
                rec = json.loads(line)
            except ValueError:  # not UTF-8 or not JSON
                rec = {}
            rec = rec if isinstance(rec, dict) else {}
            epoch = rec.get("epoch")
            if "warning" in rec and isinstance(epoch, int) and epoch < epochs_done:
                kept.append(line)
                continue
            s = rec.get("step")
            s = s if type(s) is int and s >= 0 else None
            nxt = s if nxt is None else nxt
            if nxt is not None and nxt >= step:
                break  # past the checkpoint
            if s is None or s != nxt:
                which = "a step record" if nxt is None else f"the record of step {nxt}"
                raise FormatError(f"{log_path}: line {n} is not {which}, "
                                  f"and the checkpoint being resumed is at step {step}")
            kept.append(line)
            nxt += 1
    if nxt is not None and nxt < step:
        raise FormatError(f"{log_path}: its step records end at step {nxt - 1}, but the "
                          f"checkpoint being resumed is at step {step}")
    return b"".join(kept)


def pretrain(cfg: dict, data_dir, out_path, log_path=None, resume=None) -> TrainResult:
    """Run pre-training and write the final checkpoint plus a JSONL log.

    `cfg` is a fully-resolved config document (see `config.resolve_config`).
    With `resume` (a checkpoint's path, or the `Checkpoint` already loaded
    from it), training continues from that epoch-aligned checkpoint using
    the configuration stored inside it; an existing log at `log_path` keeps
    the records before the checkpoint (`_kept_log`) and drops the rest.
    """
    out_path = Path(out_path)
    log_path = Path(log_path) if log_path else out_path.with_suffix(out_path.suffix + ".log.jsonl")
    manifest = load_manifest(data_dir)

    if resume is not None:
        ck = resume if isinstance(resume, Checkpoint) else load_checkpoint(resume)
        cfg = ck.config
        stack, adam = ck.stack, ck.adam
        start_epoch, global_step = ck.epochs_done, ck.step
        kept = _kept_log(log_path, ck.step, ck.epochs_done) if log_path.exists() else None
        log_mode = "a"
    else:
        seed_value = cfg["train"]["seed"]
        if seed_value is None:
            raise ConfigError("train.seed is required (set it in the config or pass --seed)")
        stack = cfg_mod.encoder_stack(cfg, seed_value)
        adam = cfg_mod.adam(cfg, stack.parameters())
        start_epoch, global_step = 0, 0
        kept, log_mode = None, "w"

    seed = cfg["train"]["seed"]
    epochs = cfg["train"]["epochs"]
    batch_size = cfg["train"]["batch_size"]
    sigma_aug = cfg["train"]["augment_sigma_audio"]
    checkpoint_every = cfg["train"]["checkpoint_every"]
    loss_cfg = cfg_mod.loss_config(cfg)
    stack.check_inputs(manifest.samples("train"))
    use_centroids = "avt" in loss_cfg.enabled_terms

    n_train = len(manifest.records_for("train"))
    steps_per_epoch = (n_train + batch_size - 1) // batch_size
    schedule = CosineSchedule(lr_max=cfg["optim"]["lr_max"], lr_min=cfg["optim"]["lr_min"],
                              total_steps=max(1, epochs * steps_per_epoch),
                              warmup_steps=cfg["optim"]["warmup_steps"])

    epoch_ckpts: dict[int, Path] = {}
    final_loss = None
    if kept is not None:  # rewritten only once every check above has passed
        with ltf.atomic_write(log_path) as f:
            f.write(kept)
    with open(log_path, log_mode) as log:
        for epoch in range(start_epoch, epochs):
            batches = make_batches(manifest, "train", batch_size, seed, epoch)
            fully_skipped = 0
            for b_idx, batch in enumerate(batches):
                t0 = time.monotonic()
                lr = schedule.lr_at(global_step)
                try:
                    emb = stack.embed_batch(_augmented(batch, sigma_aug, seed, epoch, b_idx),
                                            spaces=loss_cfg.enabled_terms)
                    cents = compute_centroids(emb) if use_centroids else None
                    lb = loss_total(emb, cents, loss_cfg)
                    if lb.total.requires_grad:
                        backward(lb.total)
                        adam.step(lr)
                        adam.zero_grad()  # the next forward starts without them
                    else:
                        fully_skipped += 1
                except NumericError as e:
                    raise TrainingAborted(
                        f"numeric failure at step {global_step}: {e}; "
                        f"last saved checkpoint retained") from e
                final_loss = lb.total.item()
                record = {
                    "step": global_step, "epoch": epoch, "lr": lr,
                    "L_AV": lb.terms["av"], "L_VT": lb.terms["vt"], "L_AVT": lb.terms["avt"],
                    "total": final_loss, "skipped_terms": list(lb.skipped),
                    "wall_ms": round((time.monotonic() - t0) * 1000.0, 3),
                }
                # Free this step's graph before the next forward builds its own.
                del emb, cents, lb
                log.write(json.dumps(record) + "\n")
                global_step += 1
            if fully_skipped * 2 > len(batches):
                msg = (f"epoch {epoch}: {fully_skipped}/{len(batches)} batches had every "
                       "loss term skipped; check modality availability")
                warnings.warn(msg)
                log.write(json.dumps({"epoch": epoch, "warning": msg}) + "\n")
            if checkpoint_every > 0 and (epoch + 1) % checkpoint_every == 0 and epoch + 1 < epochs:
                ck_path = out_path.with_name(f"{out_path.stem}.epoch{epoch + 1:04d}{out_path.suffix}")
                log.flush()  # a resume from this checkpoint finds its records
                save_checkpoint(ck_path, stack, adam, cfg, epoch + 1, global_step)
                epoch_ckpts[epoch + 1] = ck_path

    save_checkpoint(out_path, stack, adam, cfg, epochs, global_step)
    epoch_ckpts[epochs] = out_path
    return TrainResult(checkpoint_path=out_path, log_path=log_path, steps=global_step,
                       epochs_done=epochs, final_loss=final_loss,
                       epoch_checkpoints=epoch_ckpts)
