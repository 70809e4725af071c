"""Matrix-core: exact spectral norm, Haar draws, and the
seeded stream layout everything else builds on."""

import math

import numpy as np
import pytest

from mclab.errors import InvalidParameterError
from mclab.linalg import Rng, _preset_words, haar_orthogonal, spectral_norm


def _rand(n, m, seed):
    return np.random.default_rng(seed).standard_normal((n, m))


# ---------------------------------------------------------------- Rng

def test_rng_reproducible_and_stream_separated():
    a = Rng(7, 3).gen.random(5)
    b = Rng(7, 3).gen.random(5)
    c = Rng(7, 4).gen.random(5)
    d = Rng(8, 3).gen.random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _assert_draws_equal(gen, ref):
    np.testing.assert_array_equal(gen.random((4, 5)), ref.random((4, 5)))
    np.testing.assert_array_equal(gen.choice(50, size=20, replace=False),
                                  ref.choice(50, size=20, replace=False))
    np.testing.assert_array_equal(gen.standard_normal(7), ref.standard_normal(7))


def _default_rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence(
        entropy=seed & (2**64 - 1), spawn_key=(stream & (2**64 - 1),)))


# one-word keys (0 is one zero word) and two-word keys; 2**70 + 3 is masked
_KEYS = (0, 1, 3, (5 << 20) + 17, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 3)


def test_rng_gen_draws_equal_the_default_rng_route():
    # Rng.gen builds Generator(PCG64(ss)), and Rng.batch seeds the same
    # generators in one pass; default_rng(ss) is the reference for both
    for seed, stream in ((0, 0), (7, 3), (31, (5 << 20) + 17), (-1, 2**64 - 1)):
        _assert_draws_equal(Rng(seed, stream).gen, _default_rng(seed, stream))
    # mixed key widths either way round, all one-word keys, all two-word keys
    batches = (_KEYS, _KEYS[::-1], (0, 1, 3, 2**32 - 1), (2**32, 2**40 + 7, 2**64 - 1))
    for seed in (0, -1, 7, 2**32, 2**40 + 1, 2**64 + 5):
        for keys in batches:
            batch = Rng.batch(seed, keys)
            assert batch == [Rng(seed, key) for key in keys]
            for key, rng in zip(keys, batch):
                _assert_draws_equal(rng.gen, _default_rng(seed, key))


def test_rng_batch_of_one_and_of_none():
    (rng,) = Rng.batch(9, [2**33 + 4])
    assert rng == Rng(9, 2**33 + 4)
    _assert_draws_equal(rng.gen, _default_rng(9, 2**33 + 4))
    assert Rng.batch(9, []) == []


def test_rng_gen_is_cached_and_ignored_by_eq_and_repr():
    rng = Rng(1, 2)
    assert rng.gen is rng.gen
    # successive draws advance the one generator
    first, second = rng.gen.random(3), rng.gen.random(3)
    np.testing.assert_array_equal(np.concatenate([first, second]), Rng(1, 2).gen.random(6))
    # a batch presets each generator from its words; reading .gen keeps it
    batch = Rng.batch(1, [2, 3])
    preset = [vars(r)["gen"] for r in batch]
    assert all(r.gen is g for r, g in zip(batch, preset))
    assert all(isinstance(g.bit_generator.seed_seq, _preset_words()) for g in preset)
    assert isinstance(rng.gen.bit_generator.seed_seq, np.random.SeedSequence)
    # == and repr see only seed and stream, drawn from or not
    assert rng == Rng(1, 2) == batch[0]
    assert repr(rng) == repr(Rng(1, 2)) == repr(batch[0]) == "Rng(seed=1, stream=2)"


def test_rng_substream_distinct_from_parent_and_siblings():
    base = Rng(11, 2)
    s0 = base.substream(0)
    s1 = base.substream(1)
    draws = {tuple(r.gen.random(4)) for r in (base, s0, s1)}
    assert len(draws) == 3
    # derivation is pure: same key gives the same stream (fresh handles;
    # .gen itself is a cached stateful generator)
    np.testing.assert_array_equal(Rng(11, 2).substream(0).gen.random(4),
                                  base.substream(0).gen.random(4))


@pytest.mark.parametrize("k", [-1, 1 << 20])
def test_rng_substream_index_out_of_range_is_refused(k):
    # a masked index would alias: substream(2**20) was substream(0)
    with pytest.raises(InvalidParameterError):
        Rng(1, 7).substream(k)


# ------------------------------------------------------ spectral_norm

def test_spectral_norm_matches_svd_on_random_8x8():
    A = _rand(8, 8, 2)
    s1 = float(np.linalg.svd(A, compute_uv=False)[0])
    assert abs(spectral_norm(A) - s1) <= 1e-6 * s1


def test_spectral_norm_zero_and_rank_one():
    assert spectral_norm(np.zeros((4, 4))) == 0.0
    u = np.arange(1.0, 5.0)
    A = np.outer(u, u)
    np.testing.assert_allclose(spectral_norm(A), float(u @ u), rtol=1e-8)


def test_spectral_norm_rejects_nonfinite():
    A = np.eye(3)
    A[1, 1] = np.nan
    with pytest.raises(InvalidParameterError):
        spectral_norm(A)


def test_spectral_norm_rejects_1d_and_is_zero_when_empty():
    with pytest.raises(InvalidParameterError):
        spectral_norm(np.ones(3))
    assert spectral_norm(np.zeros((0, 3))) == 0.0


def test_spectral_norm_degenerate_gap():
    # an orthogonal matrix has all singular values equal to 1
    Q = haar_orthogonal(10, Rng(6, 0))
    assert abs(spectral_norm(Q) - 1.0) <= 1e-6


# ---------------------------------------------------- haar_orthogonal

def test_haar_is_orthogonal_and_seeded():
    Q = haar_orthogonal(16, Rng(9, 1))
    np.testing.assert_allclose(Q.T @ Q, np.eye(16), atol=1e-10)
    np.testing.assert_array_equal(Q, haar_orthogonal(16, Rng(9, 1)))
    assert not np.array_equal(Q, haar_orthogonal(16, Rng(9, 2)))
    with pytest.raises(InvalidParameterError):
        haar_orthogonal(0, Rng(9, 1))


def test_haar_first_column_uniform_on_sphere():
    # rotation invariance in distribution: the first column's max entry
    # concentrates near sqrt(2 log(2n) / n); crude two-sided band
    n, draws = 64, 300
    peaks = [float(np.abs(haar_orthogonal(n, Rng(10, t))[:, 0]).max())
             for t in range(draws)]
    ref = math.sqrt(2.0 * math.log(2 * n) / n)
    q99 = float(np.quantile(peaks, 0.99))
    assert ref / 2 <= q99 <= 2 * ref
