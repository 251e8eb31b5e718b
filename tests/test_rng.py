"""SplitMix64 stream determinism, distribution sanity and golden values."""

import hashlib
import math

import numpy as np
import pytest

from trimodal.data import SyntheticConfig, _sample_text
from trimodal.rng import Stream, mix64


class TestDeterminism:
    def test_same_key_same_sequence(self):
        a = Stream(42, "video", 17).u64(100)
        b = Stream(42, "video", 17).u64(100)
        assert np.array_equal(a, b)

    def test_different_keys_diverge(self):
        a = Stream(42, "video", 17).u64(100)
        b = Stream(42, "video", 18).u64(100)
        c = Stream(42, "audio", 17).u64(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_counter_continuity(self):
        s = Stream(7)
        first = np.concatenate([s.u64(3), s.u64(5)])
        assert np.array_equal(first, Stream(7).u64(8))

    def test_known_finalizer_identity(self):
        # mix64(0) is a fixed constant of the generator family
        assert int(mix64(np.uint64(0))) == 0

    def test_string_and_int_keys_are_distinct(self):
        assert not np.array_equal(Stream(1, "2").u64(4), Stream(1, 2).u64(4))

    def test_bad_key_type_rejected(self):
        with pytest.raises(TypeError):
            Stream(1, 3.5)


class TestDistributions:
    def test_uniform_range_and_mean(self):
        u = Stream(2).uniform(200_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 4 * (1 / np.sqrt(12)) / np.sqrt(len(u))

    def test_normal_moments(self):
        z = Stream(3).normal(200_000)
        assert abs(z.mean()) < 4 / np.sqrt(len(z))
        assert abs(z.std() - 1.0) < 0.01

    def test_normal_sigma_scaling(self):
        a = Stream(4).normal((10, 10), sigma=2.5)
        b = Stream(4).normal((10, 10))
        assert np.allclose(a, 2.5 * b)

    def test_integers_bounds(self):
        v = Stream(5).integers(10_000, 7)
        assert v.min() >= 0 and v.max() < 7
        counts = np.bincount(v, minlength=7)
        assert counts.min() > 1000  # roughly uniform

    def test_shuffle_is_permutation(self):
        items = list(range(50))
        out = Stream(6).shuffle(items)
        assert sorted(out) == items
        assert out != items
        assert items == list(range(50))  # input untouched

    def test_scalar_draws(self):
        x = Stream(8).uniform()
        assert isinstance(x, float) and 0.0 <= x < 1.0


class TestGoldenValues:
    """Exact outputs of the generator defined in the module docstring. Any
    implementation of the same generator must reproduce these bits."""

    @pytest.mark.parametrize("key, first", [
        ((0,), [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
        ((42,), [0x989B3F130A063869, 0x290DB4BF2570DED7, 0x2A990BE63A01B2D5]),
        ((-1,), [0xA577782BC52A9F5A, 0xB485244380E590BE, 0x5176985D86CFF511]),
        ((2**63 + 5,), [0xF12F129D69F6D3FA, 0xF36882765948E012, 0x76271E0E54B43E0F]),
        ((7, -3), [0xE1F4A549E8842D42, 0x9142E30459B8EF8D, 0xAA2498CDEE549C59]),
        ((7, 2**64 + 9), [0x24B73752365230BB, 0x08A355E0CA5B6C02, 0x4FF67FFC38BBB6CF]),
        ((42, "video"), [0x5EA119A1C9E190B8, 0x3B477E0D08CBA87F, 0x4A62046D013DBADC]),
        ((42, "vidéo"), [0x57404B21F72B338A, 0xB50B566132A7F585, 0x6F2E9D38C65B65CB]),
        ((42, ""), [0x989B3F130A063869, 0x290DB4BF2570DED7, 0x2A990BE63A01B2D5]),
        ((1234, "clip-video", "s0123", 3),
         [0x9AB0E6784FFD022F, 0x9DEC9AC6FC466912, 0xE6652CE81880A457]),
        ((42, "video", 17, "x"), [0x28AC45237E238823, 0xB9C622FFCD287BCB, 0x30F7B8D7D7FF771E]),
    ])
    def test_first_draws(self, key, first):
        assert Stream(*key).u64(3).tolist() == first

    def test_long_block_digest(self):
        raw = Stream(42, "video", 17).u64(1000)
        assert raw.dtype == np.uint64
        assert hashlib.sha256(raw.tobytes()).hexdigest() == (
            "6f2fc99cca08386f3712cf7407c5253eb33a10fc55e07b8bfd726acd6a58ab7d")

    def test_derived_draws(self):
        s = Stream(5, "draws")
        assert s.uniform(3).tolist() == [0.6410881157773091, 0.6492825924329038,
                                         0.8239471070203243]
        assert s.uniform() == 0.7394516316603795
        # Box-Muller goes through libm's log/cos/sin, hence approx at 1 ulp
        assert s.normal(3).tolist() == pytest.approx(
            [0.7760057353880138, -1.9186833741096956, -0.03672344089016641], rel=1e-15)
        assert s.normal(sigma=2.0) == pytest.approx(0.7044031794220494, rel=1e-15)
        assert s.integers(6, 10).tolist() == [0, 5, 5, 1, 4, 7]
        assert s.permutation(10) == [3, 7, 0, 9, 4, 8, 6, 2, 1, 5]

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_normal_follows_documented_definition(self, n):
        # Rebuilt from raw outputs as the module docstring defines it: u1 from
        # the first half of the block, u2 from the second half, not pairs.
        pairs = (n + 1) // 2
        raw = [out >> 11 for out in Stream(3, "normal", n).u64(2 * pairs).tolist()]
        expect = []
        for k in range(pairs):
            u1 = (raw[k] + 1.0) * 2.0**-53
            u2 = raw[pairs + k] * 2.0**-53
            r = math.sqrt(-2.0 * math.log(u1))
            expect += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
        got = Stream(3, "normal", n).normal(n, sigma=1.5)
        assert got.tolist() == pytest.approx([1.5 * z for z in expect[:n]], rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 212, 336, 348, 1000])
    def test_permutation_follows_documented_definition(self, n):
        # Fisher-Yates as the module docstring defines it, one scalar draw at a time
        for epoch in range(5):
            expect = list(range(n))
            draws = Stream(7, "probe-batches", epoch).u64(n - 1).tolist()
            for i, draw in zip(range(n - 1, 0, -1), draws):
                j = draw % (i + 1)
                expect[i], expect[j] = expect[j], expect[i]
            assert Stream(7, "probe-batches", epoch).permutation(n) == expect

    def test_long_permutation_digest(self):
        perm = Stream(42, "batches", 3).permutation(336)
        assert hashlib.sha256(str(perm).encode()).hexdigest() == (
            "28409bd4444ad225d2e26bde0e0a72ebd04e544cc79f7f737f3f88c58a9f6283")

    @pytest.mark.parametrize("z, out", [
        (0, 0),
        (1, 0x5692161D100B05E5),
        (2**64 - 1, 0xB4D055FCF2CBBD7B),
        (0x9E3779B97F4A7C15, 0xE220A8397B1DCDAF),
    ])
    def test_mix64_int_equals_array(self, z, out):
        assert int(mix64(z)) == out
        assert mix64(np.array([z], dtype=np.uint64)).tolist() == [out]

    def test_sample_text_tokens(self):
        cfg = SyntheticConfig()
        assert _sample_text(cfg, Stream(42, "text", 3), 2).tolist() == [
            10, 9, 10, 8, 11, 10, 9, 8]
        cfg = SyntheticConfig(l_text=12, text_informativeness=0.5)
        assert _sample_text(cfg, Stream(42, "text", 3), 5).tolist() == [
            18, 21, 22, 0, 7, 6, 57, 8, 23, 23, 20, 20]
