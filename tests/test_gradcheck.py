"""The verification harness itself: sensitivity and reporting."""

import json
import multiprocessing

from trimodal import config as cfg_mod
from trimodal import tensor as T
from trimodal.data import generate_synthetic, make_batches
from trimodal.evaluate import embed_frozen
from trimodal.gradcheck import (OP_CASES, end_to_end_case, max_rel_err, report_json,
                                run_all)
from trimodal.losses import compute_centroids, loss_total
from trimodal.rng import Stream


class TestHarness:
    def test_quick_pass(self):
        report = run_all(seed=2, instances=1)
        assert report["pass"] is True
        assert report["worst"] < report["tolerance"]
        assert set(report["ops"]) == set(OP_CASES)
        assert not multiprocessing.active_children()  # every worker joined

    def test_detects_corrupted_gradient_rule(self):
        report = run_all(seed=2, instances=1, corrupt=("matmul", 1.02))
        assert report["pass"] is False
        assert report["ops"]["matmul"] > report["tolerance"]
        assert not T._GRAD_FAULTS  # hook cleaned up
        assert not multiprocessing.active_children()

    def test_corruption_localized_to_named_op(self):
        report = run_all(seed=2, instances=1, corrupt=("relu", 1.05))
        assert report["ops"]["relu"] > report["tolerance"]
        assert report["ops"]["log"] < report["tolerance"]

    def test_report_is_machine_parsable(self):
        report = run_all(seed=3, instances=1)
        parsed = json.loads(report_json(report))
        assert parsed == report

    def test_fan_out_reports_each_case_once(self):
        # Every value computed in the workers equals the same case computed
        # here, so the pool neither drops nor duplicates a case.
        seed = 4
        report = run_all(seed=seed, instances=1)
        for name, builder in OP_CASES.items():
            expected = max_rel_err(*builder(Stream(seed, "case", name, 0)))
            assert report["ops"][name] == expected, name
        assert report["end_to_end"] == max_rel_err(*end_to_end_case(seed))


class TestOpCoverage:
    # `encoders._as_vector` reshapes the per-sample rows of `embed_batch`;
    # it goes when the training step is batched (ROADMAP direction 3).
    UNCHECKED = {"as_vector"}

    def test_every_op_the_model_runs_has_a_case(self, tmp_path, monkeypatch):
        # A case is what gradchecks an op, and the benchmark's tracer counts
        # ops by case name, so an op without one would go unchecked and uncounted.
        cfg = cfg_mod.resolve_config()
        man = generate_synthetic(cfg_mod.synthetic_config(cfg), tmp_path / "ds")
        seen = set()
        node = T._node

        def recording(arr, parents, backward, op):
            seen.add(op)
            return node(arr, parents, backward, op)

        monkeypatch.setattr(T, "_node", recording)
        stack = cfg_mod.encoder_stack(cfg, 1)
        adam = cfg_mod.adam(cfg, stack.parameters())
        loss_cfg = cfg_mod.loss_config(cfg)
        batch = make_batches(man, "train", cfg["train"]["batch_size"], 1, 0)[0]
        emb = stack.embed_batch(batch, spaces=loss_cfg.enabled_terms)
        T.backward(loss_total(emb, compute_centroids(emb), loss_cfg).total)
        adam.step(cfg["optim"]["lr_max"])
        fused = [s for s in man.samples("test1") if s.audio is not None]
        embed_frozen(stack, [s.video for s in fused], [s.audio for s in fused])
        assert {"attention_sublayer", "feedforward_sublayer", "linear", "linear_relu",
                "add_const"} <= seen
        assert seen - set(OP_CASES) <= self.UNCHECKED, sorted(seen - set(OP_CASES))
