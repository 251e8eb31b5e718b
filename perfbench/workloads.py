"""The benchmark's workloads. Each one builds its inputs from the seed, runs
whole rounds of its operations for the requested time, checks the program's
outputs, and returns the result line (see run.py).

Every workload reports the same end-to-end metrics; what each one times is
listed in README.md. In a traced run one untraced round is followed by one
traced round of the same inputs, which gives the tracing overhead and the
per-layer metrics, and must give the same numerical results.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import resource
import time
from pathlib import Path

import numpy as np

from checks import loss_terms_oracle, percentile
from tracing import END, START, Tracer

# One round of the `pretrain` workload is a pre-training run at the desk
# defaults over this many epochs (11 steps each).
PRETRAIN_EPOCHS = 2
# `probe_eval` pre-trains its checkpoint in set-up for this many epochs;
# the audio+video probe on it must reach PROBE_MIN_TOP1. (The video-only
# probe's accuracy after short pre-training depends on the seed; see
# README.md.)
PROBE_SETUP_EPOCHS = 3
PROBE_MIN_TOP1 = 0.90
CLIPS_PER_VIDEO = 4
# Acceptance criterion 1: every op case and the composed objective.
GRADCHECK_SEED = 0
GRADCHECK_INSTANCES = 20
GRADCHECK_OPS = (
    "add", "add_rowvec", "add_scalar", "concat_cols", "cross_entropy_rows",
    "diag_part", "dot", "exp", "gather_rows", "l2_normalize_rows",
    "layer_norm_rows", "log", "logsumexp_all", "matmul", "mean_axis0", "mul",
    "neg", "relu", "scale", "scatter_rows", "slice_cols", "softmax_rows",
    "stack_rows", "sub", "sum_all", "transpose",
)
GRADCHECK_FORWARDS = 50

# Per-layer metric -> unit. Each belongs to one workload (see README.md).
PER_LAYER = {
    "encoders.embed_batch_ms": "ms", "encoders.encode_video_ms": "ms",
    "encoders.encode_audio_ms": "ms", "encoders.encode_text_ms": "ms",
    "layers.attention_ms": "ms", "layers.layer_norm_ms": "ms", "layers.linear_ms": "ms",
    "layers.stack_build_ms": "ms", "tensor.ops_per_step": "count",
    "tensor.backward_ms": "ms", "losses.centroids_ms": "ms", "losses.loss_total_ms": "ms",
    "optim.adam_step_ms": "ms", "data.augment_ms": "ms", "data.make_batches_ms": "ms",
    "checkpoint.save_ms": "ms", "checkpoint.bytes": "bytes",
    "checkpoint.load_ms": "ms", "evaluate.probe_embed_s": "s", "evaluate.probe_fit_s": "s",
    "encoders.encode_ms_per_clip": "ms", "data.sample_clip_ms": "ms",
    "tensor.ops_per_clip": "count", "tensor.graph_op_share_eval": "%",
    "gradcheck.pool_start_s": "s", "gradcheck.e2e_instance_s": "s",
    "gradcheck.forward_ms": "ms", "gradcheck.ops_s": "s",
    "trace.overhead_pct": "%",
}
# No tail percentile: `probe_eval` and `gradcheck` time fewer than 40
# operations a run, and every workload reports every end-to-end metric.
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "latency_ms_p50": "ms", "throughput_per_s": "1/s",
}


class Run:
    """One benchmark invocation: its arguments, scratch directory and the
    checks that failed."""

    def __init__(self, seed: int, seconds: float, trace: bool, work: Path,
                 out: Path, setup_clock):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.out = out
        self.setup_clock = setup_clock
        self.failures: list[str] = []
        self.tracer: Tracer | None = None

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def result(self, attempted: int, metrics: dict) -> dict:
        units = PER_LAYER if self.trace else END_TO_END
        assert metrics.keys() == units.keys()
        return {
            "correct": not self.failures,
            "attempted": attempted,
            "failed": 0,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }


def _peak_rss_mb(children: bool = False) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _end_to_end(setup_s: float, latencies_ms: list[float], throughput: float,
                children: bool = False) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(children),
        "latency_ms_p50": percentile(latencies_ms, 50),
        "throughput_per_s": throughput,
    }


def _per_layer(values: dict) -> dict:
    """Every per-layer metric; one that this workload never reaches reads 0."""
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def _rounds(run: Run, do_round) -> int:
    """Whole rounds until `run.seconds` have passed (at least one); in a
    traced run, one untraced and one traced round."""
    if run.trace:
        do_round(0)
        run.tracer = Tracer().install()
        try:
            with run.tracer.span("round"):
                do_round(1)
        finally:
            run.tracer.uninstall()
        return 2
    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start < run.seconds:
        do_round(n)
        n += 1
    return n


def _write_trace(run: Run, workload: str) -> None:
    """Write the spans, with each span name's share of the traced round's
    time taken as self time, where there is a traced round."""
    s = run.tracer.summary()
    shares = s.self_shares("round") if s.count("round") else {}
    run.tracer.write(run.out / f"trace-{workload}-seed{run.seed}.json",
                     {"workload": workload, "seed": run.seed, "self_share": shares})


def _overhead_pct(untraced_s: float, traced_s: float) -> float:
    return 100.0 * (traced_s - untraced_s) / untraced_s


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

class _StepClock:
    """Stamps the end of every optimiser step, from the benchmark's clock."""

    def __init__(self):
        from trimodal.optim import Adam
        self.cls = Adam
        self.original = Adam.__dict__["step"]
        self.stamps: list[float] = []

    def __enter__(self):
        original, stamps = self.original, self.stamps

        def step(adam, lr):
            original(adam, lr)
            stamps.append(time.perf_counter())

        self.cls.step = step
        return self

    def __exit__(self, *exc):
        self.cls.step = self.original
        return False


def _desk_config(seed: int, epochs: int) -> dict:
    """The default config: the desk dataset (its own fixed seed), with the
    training seed (initialisation, batch order, augmentation) from `seed`."""
    from trimodal import config
    return config.resolve_config(overrides={"train": {"seed": seed, "epochs": epochs}})


def _make_dataset(cfg: dict, root: Path):
    from trimodal import config, data
    data.generate_synthetic(config.synthetic_config(cfg), root)
    return data.load_manifest(root)


def _check_nce_oracle(run: Run, cfg: dict, manifest, ckpt_path: Path) -> None:
    """The program's av, vt and avt terms on two training batches of the
    trained stack against the double-loop oracle (within 1e-9), and every
    NCE inside [0, log n_eff + 2 / tau]."""
    from trimodal import checkpoint, config, data, losses
    stack = checkpoint.load_checkpoint(ckpt_path).stack
    loss_cfg = config.loss_config(cfg)
    batches = data.make_batches(manifest, "train", cfg["train"]["batch_size"], run.seed, 0)
    for batch in (batches[0], batches[-1]):
        emb = stack.embed_batch(batch)
        got = losses.loss_total(emb, losses.compute_centroids(emb), loss_cfg).terms
        proj = {k: v.data for k, v in emb.proj.items()}
        want, parts = loss_terms_oracle(proj, emb.avail_a, emb.avail_t, loss_cfg.tau,
                                        loss_cfg.term_weights)
        for term in ("av", "vt", "avt"):
            run.check(abs(got[term] - want[term]) <= 1e-9,
                      f"NCE oracle: {term} {got[term]!r} vs {want[term]!r} (n={len(batch)})")
        for name, value, bound in parts:
            run.check(0.0 <= value <= bound, f"NCE bound: {name} {value} not in [0, {bound}]")


def _epoch_mean_losses(log_path: Path) -> dict[int, float]:
    by_epoch: dict[int, list[float]] = {}
    with open(log_path) as f:
        for line in f:
            rec = json.loads(line)
            if "step" in rec:
                by_epoch.setdefault(rec["epoch"], []).append(rec["total"])
    return {e: sum(v) / len(v) for e, v in sorted(by_epoch.items())}


def pretrain(run: Run) -> dict:
    from trimodal import train
    cfg = _desk_config(run.seed, PRETRAIN_EPOCHS)
    manifest = _make_dataset(cfg, run.work / "data")
    n_train = len(manifest.records_for("train"))
    setup_s = run.setup_clock()

    step_ms: list[float] = []
    wall = {}
    ckpt_bytes = {}
    steps = {}

    def do_round(i):
        ckpt = run.work / f"round{i}.lavc"
        with _StepClock() as clock:
            t0 = time.perf_counter()
            res = train.pretrain(cfg, manifest.root, ckpt)
            wall[i] = time.perf_counter() - t0
        marks = [t0] + clock.stamps
        step_ms.extend(1000.0 * (b - a) for a, b in zip(marks, marks[1:]))
        steps[i] = res.steps
        run.check(res.steps == PRETRAIN_EPOCHS * math.ceil(n_train / cfg["train"]["batch_size"]),
                  f"round {i}: {res.steps} steps")
        losses = _epoch_mean_losses(res.log_path)
        first, last = losses[0], losses[PRETRAIN_EPOCHS - 1]
        run.check(last < first, f"round {i}: last-epoch loss {last} >= first-epoch {first}")
        ckpt_bytes[i] = ckpt.read_bytes()
        run.check(ckpt_bytes[i] == ckpt_bytes[0],
                  f"round {i}: checkpoint differs from round 0 on the same inputs")

    rounds = _rounds(run, do_round)
    _check_nce_oracle(run, cfg, manifest, run.work / "round0.lavc")
    attempted = sum(steps.values())

    if not run.trace:
        throughput = rounds * PRETRAIN_EPOCHS * n_train / sum(wall.values())
        return run.result(attempted, _end_to_end(setup_s, step_ms, throughput))

    s = run.tracer.summary()
    per_step = 1000.0 / steps[1]

    def ms(name):
        return s.total_time(name) * per_step

    def self_ms(name):
        return s.self_time(name) * per_step

    saves = s.count("checkpoint.save")
    values = {
        "encoders.embed_batch_ms": self_ms("encoders.embed_batch"),
        "encoders.encode_video_ms": ms("encoders.encode_video"),
        "encoders.encode_audio_ms": ms("encoders.encode_audio"),
        "encoders.encode_text_ms": ms("encoders.encode_text"),
        "layers.attention_ms": self_ms("layers.attention"),
        "layers.layer_norm_ms": self_ms("layers.layer_norm"),
        "layers.linear_ms": self_ms("layers.linear"),
        "layers.stack_build_ms": 1000.0 * s.total_time("layers.stack_build")
                                 / s.count("layers.stack_build"),
        "tensor.ops_per_step": s.ops("train.pretrain")[0] / steps[1],
        "tensor.backward_ms": ms("tensor.backward"),
        "losses.centroids_ms": ms("losses.centroids"),
        "losses.loss_total_ms": ms("losses.loss_total"),
        "optim.adam_step_ms": ms("optim.adam_step"),
        "data.augment_ms": ms("data.augment"),
        "data.make_batches_ms": 1000.0 * s.total_time("data.make_batches") / PRETRAIN_EPOCHS,
        "checkpoint.save_ms": 1000.0 * s.total_time("checkpoint.save") / saves,
        "checkpoint.bytes": len(ckpt_bytes[1]),
        "trace.overhead_pct": _overhead_pct(wall[0], wall[1]),
    }
    _write_trace(run, "pretrain")
    return run.result(attempted, _per_layer(values))


# ---------------------------------------------------------------------------
# probe_eval
# ---------------------------------------------------------------------------

def _manifest_counts(root: Path) -> dict[str, tuple[int, int]]:
    """Per split: (records, records without audio), read from manifest.jsonl."""
    counts: dict[str, list[int]] = {}
    with open(root / "manifest.jsonl") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                c = counts.setdefault(rec["split"], [0, 0])
                c[0] += 1
                c[1] += rec.get("audio_path") is None
    return {k: (v[0], v[1]) for k, v in counts.items()}


def _param_bytes(stack) -> dict[str, bytes]:
    return {name: p.data.tobytes() for name, p in stack.parameters()}


def probe_eval(run: Run) -> dict:
    from trimodal import checkpoint, config, data, evaluate, train
    cfg = _desk_config(run.seed, PROBE_SETUP_EPOCHS)
    root = _make_dataset(cfg, run.work / "data").root
    ckpt = run.work / "setup.lavc"
    train.pretrain(cfg, root, ckpt)
    stack = checkpoint.load_checkpoint(ckpt).stack
    setup_s = run.setup_clock()

    probe_cfg = config.probe_config(cfg)
    eval_seed = int(cfg["eval"]["eval_seed"])
    before = _param_bytes(stack)
    probe_ms: list[float] = []
    round_s = {}
    eval_s = 0.0
    clips = 0
    reports = {}

    def do_round(i):
        nonlocal eval_s, clips
        t_start = time.perf_counter()
        # A fresh manifest has no cached features, so every round reads
        # them from disk, as a separate `trimodal probe` / `eval` call does.
        manifest = data.load_manifest(root)
        probe_s = 0.0
        for mode in evaluate.MODES:
            t0 = time.perf_counter()
            head = evaluate.train_probe(stack, manifest, mode, probe_cfg)
            t1 = time.perf_counter()
            rep = evaluate.evaluate_all_splits(stack, head, manifest,
                                               clips_per_video=CLIPS_PER_VIDEO, seed=eval_seed)
            t2 = time.perf_counter()
            probe_s += t1 - t0
            eval_s += t2 - t1
            clips += CLIPS_PER_VIDEO * sum(r.n for r in rep.splits.values())
            reports.setdefault(mode, rep.to_dict())
            run.check(rep.to_dict() == reports[mode],
                      f"round {i}: {mode} report differs from round 0")
        probe_ms.append(1000.0 * probe_s)
        round_s[i] = time.perf_counter() - t_start

    _rounds(run, do_round)
    attempted = clips

    run.check(_param_bytes(stack) == before, "probing changed encoder parameters")
    counts = _manifest_counts(root)
    for mode, rep in reports.items():
        for split, r in rep["splits"].items():
            size, no_audio = counts[split]
            run.check(r["n"] + r["n_excluded"] == size,
                      f"{mode}/{split}: n {r['n']} + excluded {r['n_excluded']} != {size}")
            excluded = no_audio if mode == "audio+video" else 0
            run.check(r["n_excluded"] == excluded,
                      f"{mode}/{split}: excluded {r['n_excluded']}, expected {excluded}")
    top1 = reports["audio+video"]["mean_top1"]
    run.check(top1 >= PROBE_MIN_TOP1, f"audio+video probe top-1 {top1} < {PROBE_MIN_TOP1}")

    if not run.trace:
        return run.result(attempted, _end_to_end(setup_s, probe_ms, clips / eval_s))

    tracer = run.tracer
    tracer.install()
    try:
        loaded = checkpoint.load_checkpoint(ckpt).stack
    finally:
        tracer.uninstall()
    run.check(_param_bytes(loaded) == before, "reloaded checkpoint differs")
    s = tracer.summary()
    clips_traced = clips // 2
    embed_s = (s.total_time("encoders.encode_video", "evaluate.train_probe")
               + s.total_time("encoders.encode_audio", "evaluate.train_probe"))
    clip_ms = 1000.0 / clips_traced
    eval_ops, eval_graph_ops = s.ops("evaluate.evaluate_all_splits")
    values = {
        "checkpoint.load_ms": 1000.0 * s.total_time("checkpoint.load"),
        "evaluate.probe_embed_s": embed_s,
        "evaluate.probe_fit_s": s.total_time("evaluate.train_probe") - embed_s,
        "encoders.encode_ms_per_clip": clip_ms * (
            s.total_time("encoders.encode_video", "evaluate.evaluate_all_splits")
            + s.total_time("encoders.encode_audio", "evaluate.evaluate_all_splits")),
        "data.sample_clip_ms": clip_ms * s.total_time("data.sample_clip",
                                                      "evaluate.evaluate_all_splits"),
        "tensor.ops_per_clip": eval_ops / clips_traced,
        "tensor.graph_op_share_eval": 100.0 * eval_graph_ops / eval_ops,
        "trace.overhead_pct": _overhead_pct(round_s[0], round_s[1]),
    }
    _write_trace(run, "probe_eval")
    return run.result(attempted, _per_layer(values))


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _directional_check(run: Run) -> None:
    """Central difference of the end-to-end objective along one random
    direction against the analytic <grad L, d>, at the harness's step and
    tolerance."""
    from trimodal import gradcheck, tensor
    leaves, forward = gradcheck.end_to_end_case(GRADCHECK_SEED)
    tensor.backward(forward())
    rng = np.random.default_rng(run.seed)
    dirs = [rng.standard_normal(leaf.shape) for leaf in leaves]
    norm = math.sqrt(sum(float((d * d).sum()) for d in dirs))
    dirs = [d / norm for d in dirs]
    analytic = sum(float((leaf.grad * d).sum()) for leaf, d in zip(leaves, dirs)
                   if leaf.grad is not None)
    saved = [leaf.data.copy() for leaf in leaves]
    h = gradcheck.STEP
    values = []
    with tensor.no_grad():
        for sign in (1.0, -1.0):
            for leaf, base, d in zip(leaves, saved, dirs):
                leaf.data[...] = base + sign * h * d
            values.append(forward().item())
    for leaf, base in zip(leaves, saved):
        leaf.data[...] = base
        leaf.grad = None
    fd = (values[0] - values[1]) / (2.0 * h)
    err = abs(analytic - fd) / max(1.0, abs(fd))
    run.check(err < gradcheck.TOLERANCE,
              f"directional derivative: analytic {analytic} vs central difference {fd}")


def gradcheck(run: Run) -> dict:
    from trimodal import gradcheck as gc
    from trimodal import tensor
    from trimodal.rng import Stream
    setup_s = run.setup_clock()

    run_ms: list[float] = []
    cases = 0

    def do_round(i):
        nonlocal cases
        t0 = time.perf_counter()
        report = gc.run_all(seed=GRADCHECK_SEED, instances=GRADCHECK_INSTANCES)
        run_ms.append(1000.0 * (time.perf_counter() - t0))
        run.check(not multiprocessing.active_children(), "gradcheck workers left running")
        cases += len(report["ops"]) * GRADCHECK_INSTANCES + GRADCHECK_INSTANCES
        run.check(report["pass"] and report["worst"] < gc.TOLERANCE,
                  f"gradcheck report fails: worst {report['worst']}")
        ops = set(report["ops"])
        run.check(ops == set(gc.OP_CASES) and set(GRADCHECK_OPS) <= ops,
                  f"gradcheck report covers {sorted(ops)}")

    if run.trace:
        do_round(0)
    else:
        _rounds(run, do_round)
    _directional_check(run)
    attempted = cases

    if not run.trace:
        throughput = cases / (sum(run_ms) / 1000.0)
        return run.result(attempted, _end_to_end(setup_s, run_ms, throughput, children=True))

    # The pool's workers are out of reach of wrappers in this process, so
    # the per-layer figures come from serial calls made here.
    t0 = time.perf_counter()
    gc.max_rel_err(*gc.end_to_end_case(GRADCHECK_SEED))
    untraced_e2e = time.perf_counter() - t0
    run.tracer = tracer = Tracer().install()
    try:
        with tracer.span("gradcheck.pool_start"):
            gc.run_all(seed=GRADCHECK_SEED, instances=0, end_to_end_instances=0)
        with tracer.span("gradcheck.e2e_instance"):
            gc.max_rel_err(*gc.end_to_end_case(GRADCHECK_SEED))
        _, forward = gc.end_to_end_case(GRADCHECK_SEED)
        with tensor.no_grad():
            for _ in range(GRADCHECK_FORWARDS):
                with tracer.span("gradcheck.forward"):
                    forward()
        with tracer.span("gradcheck.ops"):
            for name in sorted(gc.OP_CASES):
                for k in range(GRADCHECK_INSTANCES):
                    gc.max_rel_err(*gc.OP_CASES[name](Stream(GRADCHECK_SEED, "case", name, k)))
    finally:
        tracer.uninstall()
    run.check(not multiprocessing.active_children(), "gradcheck workers left running")
    s = tracer.summary()
    forward_ms = [1000.0 * (sp[END] - sp[START]) for sp in s.spans if sp[0] == "gradcheck.forward"]
    values = {
        "gradcheck.pool_start_s": s.total_time("gradcheck.pool_start"),
        "gradcheck.e2e_instance_s": s.total_time("gradcheck.e2e_instance"),
        "gradcheck.forward_ms": percentile(forward_ms, 50),
        "gradcheck.ops_s": s.total_time("gradcheck.ops"),
        "trace.overhead_pct": _overhead_pct(untraced_e2e, s.total_time("gradcheck.e2e_instance")),
    }
    _write_trace(run, "gradcheck")
    return run.result(attempted, _per_layer(values))


WORKLOADS = {"pretrain": pretrain, "probe_eval": probe_eval, "gradcheck": gradcheck}
