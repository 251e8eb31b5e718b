"""Encoder stack: modality front-ends, projections, batch embedding."""

from dataclasses import replace

import numpy as np
import pytest

from trimodal import tensor as T
from trimodal.data import Sample
from trimodal.encoders import EncoderStack
from trimodal.errors import AvailabilityError, ConfigError, ShapeError
from trimodal.gradcheck import max_rel_err, tiny_training_setup
from trimodal.losses import LossConfig, compute_centroids, loss_av, loss_total
from trimodal.rng import Stream
from trimodal.tensor import Tensor, backward


def small_stack(seed=0, **kw):
    args = dict(d_video_raw=5, d_audio_raw=4, vocab=9, d_model=8, n_heads=2,
                n_layers=1, d_ff=8, d_proj=4, max_text_len=16, seed=seed)
    args.update(kw)
    return EncoderStack(**args)


def make_batch(stack_seed=23, availability=((True, True), (False, True), (True, False))):
    s = Stream(stack_seed, "feats")
    samples = []
    for i, (has_a, has_t) in enumerate(availability):
        samples.append(Sample(f"b{i}", i % 2, video=s.normal((3, 5)),
                              audio=s.normal((2, 4)) if has_a else None,
                              text=s.integers(3, 9) if has_t else None))
    return samples


class TestSingleSampleEncoders:
    def test_encode_video_deterministic(self):
        stack = small_stack()
        x = Stream(1).normal((4, 5))
        assert np.array_equal(stack.encode_video(x).data, stack.encode_video(x).data)

    def test_encode_video_output_dim(self):
        stack = small_stack()
        for t in (1, 2, 7):
            z = stack.encode_video(Stream(2, t).normal((t, 5)))
            assert z.shape == (8,)

    def test_encode_audio_full_scale_shape(self):
        # log-mel input laid out [time, mel] = [256, 80]
        stack = small_stack(d_audio_raw=80)
        z = stack.encode_audio(Stream(3).normal((256, 80)))
        assert z.shape == (8,)

    def test_encode_audio_absent_rejected(self):
        with pytest.raises(AvailabilityError):
            small_stack().encode_audio(None)

    def test_encode_text_single_token(self):
        stack = small_stack()
        assert stack.encode_text([4]).shape == (8,)

    def test_encode_text_max_length_enforced(self):
        stack = small_stack(max_text_len=128, vocab=200)
        ok = Stream(4).integers(128, 200)
        assert stack.encode_text(ok).shape == (8,)
        too_long = Stream(4).integers(129, 200)
        with pytest.raises(ShapeError, match="128"):
            stack.encode_text(too_long)

    def test_encode_text_out_of_vocab(self):
        with pytest.raises(ShapeError):
            small_stack().encode_text([9])

    def test_encoder_gradients_end_to_end(self):
        stack, batch = tiny_training_setup(5)
        video = batch[0].video
        w = Tensor(Stream(6).uniform(4) + 0.5)
        leaves = [p for _, p in stack.parameters()]
        err = max_rel_err(leaves, lambda: T.dot(stack.encode_video(video), w))
        assert err < 1e-4


class TestStackedEncoders:
    """A [B, T, d] stack encodes each sample bitwise as its own call does."""

    @pytest.mark.parametrize("b", [1, 3, 7])
    @pytest.mark.parametrize("t", [1, 5, 12])
    def test_stacked_rows_equal_one_sample_calls(self, b, t):
        stack = small_stack(seed=4, n_layers=2)
        s = Stream(9, "stacked", b, t)
        video, audio = s.normal((b, t, 5)), s.normal((b, t, 4))
        for encode, x in ((stack.encode_video, video), (stack.encode_audio, audio)):
            rows = encode(x)
            assert rows.shape == (b, 8)
            for i in range(b):
                assert rows.data[i].tobytes() == encode(x[i]).data.tobytes()

    def test_stacked_gradients(self):
        stack = small_stack(n_heads=2)
        x = Stream(6).normal((2, 3, 5))
        leaves = [stack.video_in.W, stack.f_v.blocks[0].attn.Wq.W, stack.f_v.blocks[0].ln2.gamma]
        weights = Tensor(Stream(6, "w").uniform((2, 8)))

        def forward():
            return T.sum_all(T.mul(stack.encode_video(x), weights))

        assert max_rel_err(leaves, forward) < 1e-4


class TestProjection:
    def test_unit_norm_rows(self):
        stack = small_stack()
        z = Tensor(Stream(7).normal((6, 8)))
        for space, mod in (("av", "a"), ("av", "v"), ("vt", "v"), ("vt", "t"),
                           ("avt", "a"), ("avt", "v"), ("avt", "t")):
            p = stack.project(z, space, mod)
            assert np.abs(np.linalg.norm(p.data, axis=1) - 1.0).max() <= 1e-12

    def test_invalid_pairs_rejected(self):
        stack = small_stack()
        z = Tensor(Stream(8).normal((2, 8)))
        for space, mod in (("av", "t"), ("vt", "a"), ("xy", "v")):
            with pytest.raises(ShapeError):
                stack.project(z, space, mod)

    def test_shared_head_per_space(self):
        # one projection function per latent space, applied to both modalities
        stack = small_stack()
        z = Tensor(Stream(9).normal((3, 8)))
        a = stack.project(z, "av", "a")
        v = stack.project(z, "av", "v")
        assert np.array_equal(a.data, v.data)

    def test_projection_gradients(self):
        stack = small_stack()
        z = Tensor(Stream(10).normal((3, 8)), requires_grad=True)
        w = Tensor(Stream(11).uniform((3, 4)) + 0.5)
        head = stack.heads["av"]
        err = max_rel_err([z, head.W, head.b],
                          lambda: T.sum_all(T.mul(stack.project(z, "av", "a"), w)))
        assert err < 1e-4


class TestCheckInputs:
    """A sample the stack cannot encode is a config error naming the sample
    and the key that sized the stack (d_video 5, d_audio 4, vocab 9,
    max_text_len 16 here)."""

    @pytest.mark.parametrize("field,value,key", [
        ("video", np.zeros((3, 6)), "data.d_video"),
        ("audio", np.zeros((2, 5)), "data.d_audio"),
        ("text", np.array([1, 9]), "data.vocab"),
        ("text", np.ones(17, dtype=np.int64), "model.max_text_len"),
    ])
    def test_misfit_names_sample_and_key(self, field, value, key):
        stack = small_stack()
        batch = make_batch()
        stack.check_inputs(batch)
        batch[0] = replace(batch[0], **{field: value})
        with pytest.raises(ConfigError, match=f"sample 'b0'.*{key}"):
            stack.check_inputs(batch)
        with pytest.raises(ShapeError):  # what the encoders would raise instead
            stack.embed_batch(batch)

    def test_only_named_modalities_are_checked(self):
        stack = small_stack()
        batch = [replace(s, audio=None if s.audio is None else np.zeros((2, 5)),
                         text=None if s.text is None else np.array([9]))
                 for s in make_batch()]
        stack.check_inputs(batch, "v")
        with pytest.raises(ConfigError, match="data.d_audio"):
            stack.check_inputs(batch, "va")


class TestEmbedBatch:
    def test_availability_flags_and_shapes(self):
        stack = small_stack()
        emb = stack.embed_batch(make_batch())
        assert emb.avail_a.tolist() == [True, False, True]
        assert emb.avail_t.tolist() == [True, True, False]
        assert emb.n == 3
        for key, mat in emb.proj.items():
            assert mat.shape == (3, 4), key

    def test_masked_rows_are_zero(self):
        stack = small_stack()
        emb = stack.embed_batch(make_batch())
        assert np.array_equal(emb.proj[("av", "a")].data[1], np.zeros(4))
        assert np.array_equal(emb.proj[("vt", "t")].data[2], np.zeros(4))
        assert np.array_equal(emb.proj[("avt", "a")].data[1], np.zeros(4))

    def test_available_projection_rows_unit_norm(self):
        stack = small_stack()
        emb = stack.embed_batch(make_batch())
        rows = emb.proj[("avt", "a")].data[emb.avail_a]
        assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-12

    def test_space_subset(self):
        stack = small_stack()
        emb = stack.embed_batch(make_batch(), spaces=("av",))
        assert set(emb.proj) == {("av", "a"), ("av", "v")}

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError):
            small_stack().embed_batch([])

    def test_gradients_reach_every_touched_parameter(self):
        stack, batch = tiny_training_setup(12)
        emb = stack.embed_batch(batch)
        lb = loss_total(emb, compute_centroids(emb), LossConfig(tau=0.3))
        backward(lb.total)
        for name, p in stack.parameters():
            assert p.grad is not None, name
            assert np.any(p.grad != 0.0), name

    def test_missing_modalities_contribute_zero_gradient(self):
        # loss over a batch with one audio-less sample == loss over the
        # physically reduced batch, including every parameter gradient
        stack = small_stack(seed=31)
        batch = make_batch(availability=((True, True), (False, True), (True, True)))
        emb = stack.embed_batch(batch)
        term = loss_av(emb, LossConfig(tau=0.5))
        backward(term.value)
        grads_masked = {name: p.grad.copy() for name, p in stack.parameters()
                        if p.grad is not None}
        for _, p in stack.parameters():
            p.grad = None

        reduced = [batch[0], batch[2]]
        term2 = loss_av(stack.embed_batch(reduced), LossConfig(tau=0.5))
        backward(term2.value)
        assert term.value.item() == term2.value.item()
        for name, p in stack.parameters():
            if p.grad is None:
                assert name not in grads_masked or not np.any(grads_masked[name])
            else:
                assert np.array_equal(grads_masked[name], p.grad), name
