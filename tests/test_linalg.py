"""Matrix-core: canonical SVD, exact spectral norm, Haar draws,
orthonormalization, and the seeded stream layout everything else builds on."""

import math

import numpy as np
import pytest

from mclab.errors import DegenerateInputError, InvalidParameterError
from mclab.linalg import Rng, haar_orthogonal, orthonormalize, spectral_norm, svd


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


def test_rng_gen_draws_equal_the_default_rng_route():
    # Rng.gen builds Generator(PCG64(ss)); default_rng(ss) is the reference
    for seed, stream in ((0, 0), (7, 3), (31, (5 << 20) + 17), (-1, 2**64 - 1)):
        ss = np.random.SeedSequence(entropy=seed & (2**64 - 1),
                                    spawn_key=(stream & (2**64 - 1),))
        ref = np.random.default_rng(ss)
        gen = Rng(seed, stream).gen
        np.testing.assert_array_equal(gen.random((4, 5)), ref.random((4, 5)))
        np.testing.assert_array_equal(gen.choice(50, size=20, replace=False),
                                      ref.choice(50, size=20, replace=False))
        np.testing.assert_array_equal(gen.standard_normal(7), ref.standard_normal(7))


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


# ---------------------------------------------------------------- svd

def test_svd_reconstructs_and_orders():
    A = _rand(9, 9, 0)
    F = svd(A)
    np.testing.assert_allclose(F.assemble(), A, atol=1e-10)
    assert np.all(np.diff(F.S) <= 1e-12)
    np.testing.assert_allclose(F.U.T @ F.U, np.eye(9), atol=1e-10)
    np.testing.assert_allclose(F.V.T @ F.V, np.eye(9), atol=1e-10)


def test_svd_sign_canonical_under_column_flips():
    # flipping signs of (u_k, v_k) together leaves A unchanged; the
    # canonical form must not depend on which representative lapack picks
    A = _rand(7, 5, 1)
    F = svd(A)
    for k in range(F.U.shape[1]):
        col = F.U[:, k]
        assert col[np.argmax(np.abs(col))] > 0
    G = svd(A.copy())
    np.testing.assert_array_equal(F.U, G.U)
    np.testing.assert_array_equal(F.V, G.V)


def test_svd_rejects_nonfinite():
    A = np.eye(3)
    A[1, 1] = np.nan
    with pytest.raises(InvalidParameterError):
        svd(A)


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


def test_haar_first_column_uniform_on_sphere():
    # rotation invariance in distribution: the first column's max entry
    # concentrates near sqrt(2 log(2n) / n); crude two-sided band
    n, draws = 64, 300
    peaks = [float(np.abs(haar_orthogonal(n, Rng(10, t))[:, 0]).max())
             for t in range(draws)]
    ref = math.sqrt(2.0 * math.log(2 * n) / n)
    q99 = float(np.quantile(peaks, 0.99))
    assert ref / 2 <= q99 <= 2 * ref


# ----------------------------------------------------- orthonormalize

def test_orthonormalize_identity_on_orthonormal_input():
    Q = haar_orthogonal(8, Rng(12, 0))[:, :3]
    W = orthonormalize(Q)
    np.testing.assert_allclose(W.T @ W, np.eye(3), atol=1e-12)
    # same column space
    np.testing.assert_allclose(W @ (W.T @ Q), Q, atol=1e-10)


def test_orthonormalize_fixes_scaled_skewed_input():
    A = _rand(10, 4, 4) @ np.diag([1.0, 10.0, 0.1, 5.0])
    W = orthonormalize(A)
    np.testing.assert_allclose(W.T @ W, np.eye(4), atol=1e-12)
    # projector onto span(A) is preserved
    P_a = A @ np.linalg.pinv(A)
    np.testing.assert_allclose(W @ W.T, P_a, atol=1e-8)


def test_orthonormalize_rejects_rank_deficient():
    A = np.ones((6, 2))
    with pytest.raises(DegenerateInputError):
        orthonormalize(A)
