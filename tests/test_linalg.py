"""Matrix-core: exact spectral norm, the two ends of a symmetric
spectrum, Haar draws, and the seeded stream layout everything else
builds on."""

import math

import numpy as np
import pytest

from mclab import linalg
from mclab.errors import InvalidParameterError
from mclab.linalg import (
    Rng,
    _preset_words,
    extreme_eigenvalues,
    haar_orthogonal,
    spectral_norm,
)
from mclab.models import gen_random_orthogonal
from mclab.sampling import sample_bernoulli, sample_uniform


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


# ------------------------------------------------- extreme_eigenvalues
# eigvalsh is the oracle: each end within a few dim * eps * max|lam|

def _assert_ends_match_eigvalsh(A):
    lo, hi = extreme_eigenvalues(A)
    lam = np.linalg.eigvalsh(A)
    tol = 4 * A.shape[0] * np.finfo(float).eps * np.abs(lam).max()
    assert abs(lo - lam[0]) <= tol, (lo, lam[0])
    assert abs(hi - lam[-1]) <= tol, (hi, lam[-1])
    return lo, hi


def _tangent_gram(n, r, sampler, m):
    T = gen_random_orthogonal(n, r, Rng(n, r)).tangent_space()
    if sampler == "bernoulli":
        S = sample_bernoulli(n, m / (n * n), Rng(n, 100 + r))
    else:
        S = sample_uniform(n, m, Rng(n, 100 + r))
    return T.gram(S.mask)


@pytest.mark.parametrize("sampler", ["bernoulli", "uniform"])
@pytest.mark.parametrize("n, r", [(1, 1), (2, 1), (2, 2), (13, 1), (13, 2), (13, 13),
                                  (48, 1), (48, 2), (48, 48)])
def test_extreme_eigenvalues_of_tangent_gram_match_eigvalsh(n, r, sampler):
    G = _tangent_gram(n, r, sampler, (n * n + 1) // 2)
    assert G.shape == (2 * n * r - r * r,) * 2
    _assert_ends_match_eigvalsh(G)


def test_extreme_eigenvalues_of_empty_full_and_singular_gram():
    n, r = 13, 2
    T = gen_random_orthogonal(n, r, Rng(5)).tangent_space()
    assert extreme_eigenvalues(T.gram(np.zeros((n, n), dtype=bool))) == (0.0, 0.0)
    lo, hi = _assert_ends_match_eigvalsh(T.gram(np.ones((n, n), dtype=bool)))  # G = I
    assert abs(lo - 1.0) <= 1e-13 and abs(hi - 1.0) <= 1e-13
    G = _tangent_gram(n, r, "uniform", T.dim - 8)  # |Omega| < dim T: G is singular
    lo, hi = _assert_ends_match_eigvalsh(G)
    assert abs(lo) <= 1e-13 < hi


@pytest.mark.parametrize("n", [2, 3, 7, 50, 200])
def test_extreme_eigenvalues_of_indefinite_matrices_match_eigvalsh(n):
    for seed in range(3):
        X = _rand(n, n, 100 * n + seed)
        lo, hi = _assert_ends_match_eigvalsh(X + X.T)
        assert lo < 0.0 < hi


def test_extreme_eigenvalues_of_order_one():
    assert extreme_eigenvalues([[-2.5]]) == (-2.5, -2.5)
    assert extreme_eigenvalues(np.zeros((1, 1))) == (0.0, 0.0)


def test_extreme_eigenvalues_read_only_the_lower_triangle():
    n = 30
    X = _rand(n, n, 31)
    A = X + X.T
    A[np.triu_indices(n, 1)] = 10.0 * _rand(n, n, 32)[np.triu_indices(n, 1)]
    lo, hi = _assert_ends_match_eigvalsh(A)  # eigvalsh reads UPLO='L'
    upper = np.linalg.eigvalsh(A, UPLO="U")
    assert abs(lo - upper[0]) > 1.0 and abs(hi - upper[-1]) > 1.0


def test_extreme_eigenvalues_without_bisection_use_the_whole_spectrum(monkeypatch):
    # dstebz reports an index it could not reach on large clusters of equal
    # eigenvalues; then the ends come from all eigenvalues of the same
    # tridiagonal matrix
    monkeypatch.setattr(linalg, "_bisect", lambda lapack, d, e, k: None)
    for A in (_tangent_gram(13, 2, "uniform", 85), _rand(9, 9, 4) + _rand(9, 9, 4).T,
              _tangent_gram(20, 1, "bernoulli", 400)):
        _assert_ends_match_eigvalsh(A)


def test_extreme_eigenvalues_refuse_what_is_not_a_square_finite_matrix():
    nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
    for A in (np.ones((3, 4)), np.zeros((0, 0)), np.ones(3), nan):
        with pytest.raises(InvalidParameterError):
            extreme_eigenvalues(A)


# ---------------------------------------------------------- _workspace

def test_workspace_matches_scipys_query():
    # the sizes scipy's eigh wrapper asks for, so the direct dsyevr call
    # reduces as that route does
    from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs

    query = get_lapack_funcs(("syevr_lwork",))[0]
    for n in (1, 7, 48, 200):
        sizes = linalg._workspace("dsyevr", n)
        assert sizes == _compute_lwork(query, n, lower=1)
        assert linalg._workspace("dsyevr", n) is sizes


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
