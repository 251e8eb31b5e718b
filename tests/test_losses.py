"""Contrastive losses against closed forms and brute-force oracles.

The oracle evaluates the batch objective literally: summed exponentiated
matched-pair similarities over the same plus every ordered cross pair,
computed with a double python loop in float64.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimodal import config as cfg_mod
from trimodal import tensor as T
from trimodal.data import generate_synthetic, make_batches
from trimodal.encoders import EmbeddingSet
from trimodal.errors import ConfigError, MaskError, ShapeError
from trimodal.gradcheck import max_rel_err, tiny_training_setup
from trimodal.losses import (LossConfig, compute_centroids, loss_av,
                             loss_avt, loss_total, loss_vt, nce)
from trimodal.rng import Stream
from trimodal.tensor import Tensor


def nce_oracle(z: np.ndarray, zp: np.ndarray, tau: float, mask=None) -> float:
    idx = range(len(z)) if mask is None else np.flatnonzero(mask)
    pos = sum(math.exp(float(z[i] @ zp[i]) / tau) for i in idx)
    neg = sum(math.exp(float(z[i] @ zp[j]) / tau)
              for i in idx for j in idx if j != i)
    return -math.log(pos / (pos + neg))


def unit_rows(stream: Stream, n: int, d: int) -> np.ndarray:
    x = stream.normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def embedding_set(n, d, stream, avail_a=None, avail_t=None) -> EmbeddingSet:
    """An EmbeddingSet of random unit projections (leaf tensors)."""
    avail_a = np.ones(n, dtype=bool) if avail_a is None else np.asarray(avail_a)
    avail_t = np.ones(n, dtype=bool) if avail_t is None else np.asarray(avail_t)
    proj = {}
    for space, mods in (("av", "av"), ("vt", "vt"), ("avt", "avt")):
        for m in mods:
            rows = unit_rows(stream, n, d)
            avail = {"a": avail_a, "v": np.ones(n, dtype=bool), "t": avail_t}[m]
            rows[~avail] = 0.0
            proj[(space, m)] = Tensor(rows)
    return EmbeddingSet(proj=proj, avail_a=avail_a, avail_t=avail_t)


class TestNce:
    def test_requires_positive_tau(self):
        x = Tensor([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            nce(x, x, 0.0)

    def test_single_survivor_is_exactly_zero(self):
        z = Tensor([[1.0, 0.0], [0.0, 1.0]])
        out = nce(z, z, 0.07, mask=[True, False])
        assert out.item() == 0.0

    def test_identical_embeddings_log_n(self):
        v = np.tile([1.0, 0.0, 0.0], (4, 1))
        for tau in (0.07, 1.0):
            got = nce(Tensor(v), Tensor(v), tau).item()
            assert abs(got - math.log(4)) < 1e-9

    def test_orthonormal_two_sample_closed_form(self):
        z = Tensor(np.eye(2))
        got = nce(z, z, 1.0).item()
        assert abs(got - math.log(1.0 + math.exp(-1.0))) < 1e-9
        assert abs(got - 0.3132617) < 1e-7

    def test_matches_oracle_across_sizes_and_temperatures(self):
        for n in (2, 4, 8, 16):
            for tau in (0.07, 0.5, 1.0):
                for seed in range(10):
                    s = Stream(seed, "nce", n)
                    z = unit_rows(s, n, 6)
                    zp = unit_rows(s, n, 6)
                    got = nce(Tensor(z), Tensor(zp), tau).item()
                    assert abs(got - nce_oracle(z, zp, tau)) < 1e-9

    def test_masked_matches_oracle(self):
        s = Stream(77, "mask")
        z, zp = unit_rows(s, 6, 5), unit_rows(s, 6, 5)
        mask = np.array([True, False, True, True, False, True])
        got = nce(Tensor(z), Tensor(zp), 0.5, mask).item()
        assert abs(got - nce_oracle(z, zp, 0.5, mask)) < 1e-9

    def test_non_negative_and_positive_with_negatives(self):
        for seed in range(20):
            s = Stream(seed, "pos")
            z, zp = unit_rows(s, 5, 4), unit_rows(s, 5, 4)
            assert nce(Tensor(z), Tensor(zp), 0.5).item() > 0.0

    def test_empty_mask_rejected(self):
        z = Tensor(np.eye(2))
        with pytest.raises(MaskError):
            nce(z, z, 1.0, mask=[False, False])

    def test_non_unit_rows_rejected(self):
        z = Tensor(np.eye(2) * 2.0)
        with pytest.raises(ShapeError):
            nce(z, z, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(row=st.integers(0, 3), off=st.floats(-4e-6, 4e-6), which=st.sampled_from(["z", "zp"]))
    @example(row=2, off=2e-6, which="z")
    @example(row=0, off=-2e-6, which="zp")
    def test_unit_norm_check_raises_where_linalg_norm_says(self, row, off, which):
        s = Stream(66, "unit")
        rows = {"z": unit_rows(s, 4, 5), "zp": unit_rows(s, 4, 5)}
        rows[which][row] *= 1.0 + off
        worst = max(np.abs(np.linalg.norm(m, axis=1) - 1.0).max() for m in rows.values())
        if worst > 1e-6:
            with pytest.raises(ShapeError, match="unit norm"):
                nce(Tensor(rows["z"]), Tensor(rows["zp"]), 0.07)
        else:
            nce(Tensor(rows["z"]), Tensor(rows["zp"]), 0.07)

    def test_permutation_invariance(self):
        s = Stream(3, "perm")
        z, zp = unit_rows(s, 8, 5), unit_rows(s, 8, 5)
        perm = Stream(4).permutation(8)
        a = nce(Tensor(z), Tensor(zp), 0.07).item()
        b = nce(Tensor(z[perm]), Tensor(zp[perm]), 0.07).item()
        assert abs(a - b) < 1e-12

    def test_lower_tau_lowers_loss_when_positives_dominate(self):
        z = Tensor(np.eye(2))  # positive dot 1.0 > negative dot 0.0
        losses = [nce(z, z, tau).item() for tau in (0.07, 0.5, 1.0)]
        assert losses[0] < losses[1] < losses[2]

    def test_gradient(self):
        s = Stream(5, "g")
        z = Tensor(unit_rows(s, 3, 4))
        zp = Tensor(unit_rows(s, 3, 4))
        raw = Tensor(s.normal((3, 4)), requires_grad=True)

        def forward():
            return nce(T.l2_normalize_rows(raw), zp, 0.5)

        assert max_rel_err([raw], forward) < 1e-4


def nce_chain(z: Tensor, zp: Tensor, idx, c: float) -> Tensor:
    """The nine-node graph `tensor.batch_nce` stands for: its bitwise reference."""
    sims = T.scale(T.matmul(T.gather_rows(z, idx), T.transpose(T.gather_rows(zp, idx))), c)
    return T.sub(T.logsumexp_all(sims), T.logsumexp_all(T.diag_part(sims)))


def half_mask(n: int, seed: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[Stream(seed, "half").permutation(n)[:n // 2]] = True
    return mask


class TestBatchNceNode:
    """`tensor.batch_nce` against the chain it stands for, at the desk shapes
    (N 32, d_proj 32, tau 0.07): the same bytes, forward and backward."""

    def _run(self, build, z0, zp0, mask):
        z, zp = Tensor(z0, requires_grad=True), Tensor(zp0, requires_grad=True)
        out = build(z, zp, np.flatnonzero(mask), 1.0 / 0.07)
        T.backward(T.scale(out, 0.7))  # an upstream gradient other than 1
        return out, z.grad, zp.grad

    @pytest.mark.parametrize("masked", [False, True])
    def test_bytes_equal_the_chain(self, masked):
        s = Stream(61, "nce-node", int(masked))
        z0, zp0 = unit_rows(s, 32, 32), unit_rows(s, 32, 32)
        mask = half_mask(32, 62) if masked else np.ones(32, dtype=bool)
        out, gz, gzp = self._run(T.batch_nce, z0, zp0, mask)
        want_out, want_gz, want_gzp = self._run(nce_chain, z0, zp0, mask)
        assert out.data.tobytes() == want_out.data.tobytes()
        assert gz.tobytes() == want_gz.tobytes()
        assert gzp.tobytes() == want_gzp.tobytes()

    def test_repeated_rows_sum_their_gradients_as_the_chain(self):
        s = Stream(67, "nce-node")
        z0, zp0 = unit_rows(s, 6, 4), unit_rows(s, 6, 4)
        idx = [4, 0, 4, 2]
        got = self._run(lambda z, zp, _, c: T.batch_nce(z, zp, idx, c), z0, zp0, np.ones(6))
        want = self._run(lambda z, zp, _, c: nce_chain(z, zp, idx, c), z0, zp0, np.ones(6))
        for a, b in zip((got[0].data, *got[1:]), (want[0].data, *want[1:])):
            assert a.tobytes() == b.tobytes()

    def test_masked_rows_get_exactly_zero_gradient(self):
        s = Stream(63, "nce-node")
        mask = half_mask(32, 64)
        _, gz, gzp = self._run(T.batch_nce, unit_rows(s, 32, 32), unit_rows(s, 32, 32), mask)
        for g in (gz, gzp):
            assert g[~mask].tobytes() == np.zeros((16, 32)).tobytes()  # +0.0 only
            assert np.all(g[mask].any(axis=1))

    def test_single_survivor_is_zero_with_zero_gradients(self):
        s = Stream(65, "nce-node")
        mask = np.zeros(32, dtype=bool)
        mask[5] = True
        out, gz, gzp = self._run(T.batch_nce, unit_rows(s, 32, 32), unit_rows(s, 32, 32), mask)
        assert out.item() == 0.0
        assert not gz.any() and not gzp.any()

    def test_default_batch_projection_gradients_equal_the_chain(self, tmp_path, monkeypatch):
        cfg = cfg_mod.resolve_config()
        man = generate_synthetic(cfg_mod.synthetic_config(cfg), tmp_path / "ds")
        stack = cfg_mod.encoder_stack(cfg, 1)
        loss_cfg = cfg_mod.loss_config(cfg)
        batch = make_batches(man, "train", cfg["train"]["batch_size"], 1, 0)[0]
        with T.no_grad():
            emb = stack.embed_batch(batch)

        def grads():
            proj = {k: Tensor(v.data, requires_grad=True) for k, v in emb.proj.items()}
            leaves = EmbeddingSet(proj=proj, avail_a=emb.avail_a, avail_t=emb.avail_t)
            total = loss_total(leaves, compute_centroids(leaves), loss_cfg).total
            T.backward(total)
            return [total.data.tobytes()] + [proj[k].grad.tobytes() for k in sorted(proj)]

        got = grads()
        monkeypatch.setattr(T, "batch_nce", nce_chain)
        assert got == grads()


class TestCrossModalTerms:
    def test_all_audio_missing_skips(self):
        emb = embedding_set(3, 4, Stream(6), avail_a=[False] * 3)
        term = loss_av(emb, LossConfig())
        assert term.skipped and term.value.item() == 0.0

    def test_all_text_missing_skips(self):
        emb = embedding_set(3, 4, Stream(7), avail_t=[False] * 3)
        term = loss_vt(emb, LossConfig())
        assert term.skipped and term.value.item() == 0.0

    def test_coincident_orthonormal_pairs(self):
        emb = embedding_set(2, 2, Stream(8))
        eye = np.eye(2)
        emb.proj[("av", "a")] = Tensor(eye)
        emb.proj[("av", "v")] = Tensor(eye)
        got = loss_av(emb, LossConfig(tau=1.0)).value.item()
        assert abs(got - math.log(1.0 + math.exp(-1.0))) < 1e-9

    def test_masking_equals_reduced_subbatch(self):
        for seed in range(10):
            s = Stream(seed, "maskeq")
            avail = s.uniform(6) < 0.6
            if not avail.any():
                avail[0] = True
            emb_full = embedding_set(6, 5, Stream(seed, "rows"), avail_a=avail)
            keep = np.flatnonzero(avail)
            emb_sub = EmbeddingSet(
                proj={k: Tensor(v.data[keep]) for k, v in emb_full.proj.items()},
                avail_a=emb_full.avail_a[keep], avail_t=emb_full.avail_t[keep])
            full = loss_av(emb_full, LossConfig(tau=0.07)).value.item()
            sub = loss_av(emb_sub, LossConfig(tau=0.07)).value.item()
            assert full == sub  # bitwise


class TestCentroids:
    def _emb_with_avt(self, rows_a, rows_v, rows_t, avail_a=None, avail_t=None):
        n = len(rows_v)
        emb = embedding_set(n, len(rows_v[0]), Stream(9),
                            avail_a=avail_a, avail_t=avail_t)
        emb.proj[("avt", "a")] = Tensor(rows_a)
        emb.proj[("avt", "v")] = Tensor(rows_v)
        emb.proj[("avt", "t")] = Tensor(rows_t)
        return emb

    def test_identical_projections_fixed_point(self):
        v = np.tile([0.6, 0.8], (2, 1))
        emb = self._emb_with_avt(v, v, v)
        cents = compute_centroids(emb)
        assert np.allclose(cents.c.data, v, atol=1e-15)
        assert cents.valid.all()

    def test_hand_computed_mean(self):
        e1 = [1.0, 0.0]
        e2 = [0.0, 1.0]
        emb = self._emb_with_avt(np.array([e1]), np.array([e2]), np.array([e1]))
        cents = compute_centroids(emb)
        expected = np.array([2.0, 1.0]) / math.sqrt(5.0)
        assert np.allclose(cents.c.data[0], expected, atol=1e-15)

    def test_single_modality_marked_invalid(self):
        emb = embedding_set(2, 4, Stream(10), avail_a=[False, True], avail_t=[False, True])
        cents = compute_centroids(emb)
        assert cents.valid.tolist() == [False, True]

    def test_degenerate_mean_flagged_not_raised(self):
        plus = np.array([[1.0, 0.0]])
        minus = np.array([[-1.0, 0.0]])
        emb = self._emb_with_avt(plus, minus, np.zeros((1, 2)), avail_t=[False])
        cents = compute_centroids(emb)  # mean of opposite vectors is zero
        assert cents.valid.tolist() == [False]

    def test_centroid_rows_unit_norm(self):
        emb = embedding_set(5, 4, Stream(11))
        cents = compute_centroids(emb)
        assert np.abs(np.linalg.norm(cents.c.data, axis=1) - 1.0).max() <= 1e-12


class TestCentroidLoss:
    def test_single_valid_sample_zero(self):
        emb = embedding_set(2, 4, Stream(12), avail_a=[True, False], avail_t=[True, False])
        cents = compute_centroids(emb)
        term = loss_avt(emb, cents, LossConfig(tau=1.0))
        assert term.value.item() == 0.0 and not term.skipped

    def test_orthonormal_construction_three_terms(self):
        eye = np.eye(2)
        emb = embedding_set(2, 2, Stream(13))
        for m in ("a", "v", "t"):
            emb.proj[("avt", m)] = Tensor(eye)
        cents = compute_centroids(emb)
        assert np.allclose(cents.c.data, eye, atol=1e-15)
        got = loss_avt(emb, cents, LossConfig(tau=1.0)).value.item()
        expected = 3.0 * math.log(1.0 + math.exp(-1.0))
        assert abs(got - expected) < 1e-9
        assert abs(expected - 0.9397851) < 1e-7

    def test_no_valid_centroids_skips(self):
        emb = embedding_set(2, 4, Stream(14), avail_a=[False] * 2, avail_t=[False] * 2)
        cents = compute_centroids(emb)
        term = loss_avt(emb, cents, LossConfig())
        assert term.skipped and term.value.item() == 0.0

    def test_matches_oracle_on_random_batches(self):
        for seed in range(8):
            s = Stream(seed, "avt")
            n = 2 + seed % 7
            avail_a = s.uniform(n) < 0.7
            avail_t = s.uniform(n) < 0.7
            emb = embedding_set(n, 5, Stream(seed, "avt-rows"),
                                avail_a=avail_a, avail_t=avail_t)
            cents = compute_centroids(emb)
            got = loss_avt(emb, cents, LossConfig(tau=0.5)).value.item()

            # oracle: naive per-sample centroid then double-loop nce per modality
            c = np.zeros((n, 5))
            for i in range(n):
                parts = [emb.proj[("avt", "v")].data[i]]
                if avail_a[i]:
                    parts.append(emb.proj[("avt", "a")].data[i])
                if avail_t[i]:
                    parts.append(emb.proj[("avt", "t")].data[i])
                mean = np.mean(parts, axis=0)
                c[i] = mean / np.linalg.norm(mean)
            valid = (1 + avail_a.astype(int) + avail_t.astype(int)) >= 2
            expected = 0.0
            for m, avail in (("a", avail_a), ("v", np.ones(n, bool)), ("t", avail_t)):
                mask = avail & valid
                if mask.any():
                    expected += nce_oracle(emb.proj[("avt", m)].data, c, 0.5, mask)
            assert abs(got - expected) < 1e-9


class TestLossTotal:
    def test_av_only_equals_av_term(self):
        emb = embedding_set(4, 4, Stream(15))
        cfg = LossConfig(enabled_terms=("av",))
        lb = loss_total(emb, None, cfg)
        assert lb.total.item() == loss_av(emb, cfg).value.item()
        assert lb.terms["vt"] == 0.0 and lb.terms["avt"] == 0.0

    def test_pathological_batch_totals_zero(self):
        emb = embedding_set(2, 4, Stream(16), avail_a=[False] * 2, avail_t=[False] * 2)
        lb = loss_total(emb, None, LossConfig(enabled_terms=("av", "vt")))
        assert lb.total.item() == 0.0
        assert set(lb.skipped) == {"av", "vt"}

    def test_additivity_exact(self):
        emb = embedding_set(5, 4, Stream(17))
        lb = loss_total(emb, compute_centroids(emb), LossConfig())
        assert lb.total.item() == lb.terms["av"] + lb.terms["vt"] + lb.terms["avt"]

    def test_weights_scale_terms(self):
        emb = embedding_set(4, 4, Stream(18))
        base = loss_total(emb, None, LossConfig(enabled_terms=("av",)))
        scaled = loss_total(emb, None, LossConfig(enabled_terms=("av",),
                                                  term_weights={"av": 2.0}))
        assert scaled.terms["av"] == 2.0 * base.terms["av"]

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="loss.tau"):
            LossConfig(tau=-1.0)
        with pytest.raises(ConfigError, match="loss.terms"):
            LossConfig(enabled_terms=())
        with pytest.raises(ConfigError, match="loss.terms"):
            LossConfig(enabled_terms=("xy",))

    def test_full_objective_gradient(self):
        stack, batch = tiny_training_setup(19)
        cfg = LossConfig(tau=0.2)
        leaves = [p for _, p in stack.parameters()]

        def forward():
            emb = stack.embed_batch(batch)
            return loss_total(emb, compute_centroids(emb), cfg).total

        assert max_rel_err(leaves, forward) < 1e-4
