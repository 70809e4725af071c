"""Tangent-space geometry: projection algebra, the centered operator and
its entry coefficients, incoherence statistics, cancellation identities."""

import numpy as np
import pytest

from mclab.errors import InvalidParameterError
from mclab.geometry import check_cancellation, incoherence, tangent_space
from mclab.linalg import Rng, haar_orthogonal


def _random_t(n, r, seed):
    U = haar_orthogonal(n, Rng(seed, 0))[:, :r]
    V = haar_orthogonal(n, Rng(seed, 1))[:, :r]
    return tangent_space(U, V)


# ----------------------------------------------------------- construction

def test_full_rank_degenerate_case():
    T = tangent_space(np.eye(5), np.eye(5))
    np.testing.assert_array_equal(T.pu, np.eye(5))
    np.testing.assert_array_equal(T.pv, np.eye(5))
    np.testing.assert_array_equal(T.e, np.eye(5))
    assert T.rho == 1.0 and T.rho_prime == 1.0
    assert T.dim == 25


def test_rank_one_flat_vector():
    n = 9
    u = np.full((n, 1), 1 / np.sqrt(n))
    T = tangent_space(u, u)
    np.testing.assert_allclose(T.e, np.full((n, n), 1 / n), atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(T.e) ** 2, 1.0, rtol=1e-12)


def test_sign_pattern_gram_identities():
    T = _random_t(20, 3, 100)
    np.testing.assert_allclose(T.e.T @ T.e, T.pv, atol=1e-10)
    np.testing.assert_allclose(T.e @ T.e.T, T.pu, atol=1e-10)
    np.testing.assert_allclose(T.pu @ T.e, T.e, atol=1e-10)
    np.testing.assert_allclose(T.e @ T.pv, T.e, atol=1e-10)


def test_trace_dimension_accounting():
    # trace(P_T) / n^2 equals rho' = 2 rho - rho^2, i.e. dim T = 2nr - r^2
    T = _random_t(12, 4, 101)
    assert T.dim == 2 * 12 * 4 - 16
    assert abs(T.n ** 2 * T.rho_prime - T.dim) <= 1e-8


def test_rejects_non_orthonormal():
    with pytest.raises(InvalidParameterError):
        tangent_space(np.ones((6, 2)), np.ones((6, 2)))


@pytest.mark.parametrize("U,V", [
    (np.ones(6) / np.sqrt(6), np.ones(6) / np.sqrt(6)),  # 1-d factors
    (np.eye(3)[:2], np.eye(3)[:2]),                      # r > n
    (np.eye(6)[:, :2], np.eye(6)[:, :1]),                # unequal shapes
], ids=["one_d", "r_gt_n", "shapes"])
def test_rejects_malformed_factors(U, V):
    with pytest.raises(InvalidParameterError):
        tangent_space(U, V)


# ------------------------------------------------------- projection maps

def test_pt_fixes_sign_pattern_and_kills_complement():
    T = _random_t(15, 2, 102)
    np.testing.assert_allclose(T.apply_pt(T.e), T.e, atol=1e-12)
    gen = np.random.default_rng(0)
    X0 = gen.standard_normal((15, 15))
    comp = (np.eye(15) - T.pu) @ X0 @ (np.eye(15) - T.pv)
    np.testing.assert_allclose(T.apply_pt(comp), 0.0, atol=1e-12)
    np.testing.assert_allclose(T.apply_ptperp(comp), comp, atol=1e-12)
    np.testing.assert_allclose(T.apply_ptperp(T.e), 0.0, atol=1e-12)


def test_projection_algebra_and_pythagoras():
    T = _random_t(14, 3, 103)
    gen = np.random.default_rng(1)
    for _ in range(10):
        X = gen.standard_normal((14, 14))
        pt = T.apply_pt(X)
        ptp = T.apply_ptperp(X)
        np.testing.assert_allclose(T.apply_pt(pt), pt, atol=1e-10)
        np.testing.assert_allclose(T.apply_ptperp(ptp), ptp, atol=1e-10)
        np.testing.assert_allclose(pt + ptp, X, atol=1e-10)
        assert abs(np.vdot(pt, ptp)) <= 1e-9
        nx, npt, nptp = (np.linalg.norm(Z) for Z in (X, pt, ptp))
        assert abs(nx**2 - npt**2 - nptp**2) <= 1e-9


def test_ptperp_is_spectral_contraction():
    T = _random_t(10, 2, 104)
    gen = np.random.default_rng(2)
    for _ in range(100):
        X = gen.standard_normal((10, 10))
        s_in = np.linalg.svd(X, compute_uv=False)[0]
        s_out = np.linalg.svd(T.apply_ptperp(X), compute_uv=False)[0]
        assert s_out <= s_in + 1e-9


def test_tangent_dimension_by_gram_rank():
    # rank of P_T applied to the coordinate basis equals 2nr - r^2
    for n, r in ((6, 1), (8, 2), (12, 3)):
        T = _random_t(n, r, 105 + n)
        cols = np.empty((n * n, n * n))
        for a in range(n):
            for b in range(n):
                eab = np.zeros((n, n))
                eab[a, b] = 1.0
                cols[:, a * n + b] = T.apply_pt(eab).ravel()
        assert np.linalg.matrix_rank(cols, tol=1e-8) == 2 * n * r - r * r


# ------------------------------------------------------ centered operator

def test_qt_on_sign_pattern():
    T = _random_t(13, 2, 106)
    np.testing.assert_allclose(T.apply_qt(T.e), (1 - T.rho_prime) * T.e, atol=1e-12)


def test_qt_both_forms_agree():
    T = _random_t(11, 3, 107)
    gen = np.random.default_rng(3)
    for _ in range(20):
        X = gen.standard_normal((11, 11))
        qt = T.apply_qt(X)
        np.testing.assert_allclose(qt, T.apply_pt(X) - T.rho_prime * X, atol=1e-12)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n", [13, 16, 17, 32])
def test_qt_on_a_stack_is_bit_identical_per_matrix(n, r):
    # sizes of no common width: a product folded into one GEMM over the stack
    # rounds differently at n = 13 and 17, a per-matrix product does not
    T = _random_t(n, r, 110 + r)
    gen = np.random.default_rng(n * 10 + r)
    for shape in [(1,), (3,), (16,), (17,), (2, 3)]:
        X = gen.standard_normal(shape + (n, n))
        want = np.array([T.apply_qt(x) for x in X.reshape(-1, n, n)]).reshape(X.shape)
        np.testing.assert_array_equal(T.apply_qt(X), want)


def _qt_out_of_place(T, X):
    """Q_T as apply_qt computed it before it worked in place."""
    rho = T.rho
    qu_x = T.U @ (T.U.T @ X) - rho * X
    x_qv = (X @ T.V) @ T.V.T - rho * X
    qu_x_qv = (qu_x @ T.V) @ T.V.T - rho * qu_x
    return (1.0 - rho) * (qu_x + x_qv) - qu_x_qv


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 13, 32])
def test_qt_in_place_equals_the_out_of_place_expression(n, r):
    T = _random_t(n, r, 120 + r)
    gen = np.random.default_rng(n * 10 + r)
    for shape in [(), (1,), (5,), (2, 3)]:
        X = gen.standard_normal(shape + (n, n))
        X0 = X.copy()
        got, want = T.apply_qt(X), _qt_out_of_place(T, X)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        np.testing.assert_array_equal(X, X0)  # the input is left alone


def test_qt_square_identity_and_norm_bound():
    T = _random_t(12, 2, 108)
    rp = T.rho_prime
    gen = np.random.default_rng(4)
    for i in range(100):
        X = gen.standard_normal((12, 12))
        if i < 10:
            lhs = T.apply_qt(T.apply_qt(X))
            rhs = (1 - 2 * rp) * T.apply_qt(X) + rp * (1 - rp) * X
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        s_out = np.linalg.svd(T.apply_qt(X), compute_uv=False)[0]
        s_in = np.linalg.svd(X, compute_uv=False)[0]
        assert s_out <= 2 * s_in + 1e-9


def _unit(n, a, b):
    e = np.zeros((n, n))
    e[a, b] = 1.0
    return e


def test_qt_entry_closed_form_and_exhaustive_match():
    # <Q_T(e_{ab}), e_{a'b'}> read from apply_qt against the closed form
    # (1-rho) [b=b'] Q_U[a',a] + (1-rho) [a=a'] Q_V[b',b] - Q_U[a',a] Q_V[b',b]
    T = _random_t(6, 2, 109)
    rho = T.rho
    for a in range(6):
        for b in range(6):
            img = T.apply_qt(_unit(6, a, b))
            for a2 in range(6):
                for b2 in range(6):
                    want = (
                        (1 - rho) * (b2 == b) * T.qu[a2, a]
                        + (1 - rho) * (a2 == a) * T.qv[b2, b]
                        - T.qu[a2, a] * T.qv[b2, b]
                    )
                    assert abs(img[a2, b2] - want) <= 1e-12


def test_qt_entry_magnitude_bound():
    # |c| <= 2 [ (1_{a=a'} + 1_{b=b'}) mu sqrt(r)/n + mu^2 r / n^2 ]
    # for c = <Q_T(e_{a'b'}), e_{ab}>
    T = _random_t(16, 2, 110)
    inc = incoherence(T)
    mu = max(inc.mu1, inc.mu2)
    n, r = 16, 2
    gen = np.random.default_rng(5)
    for _ in range(500):
        a, b, a2, b2 = gen.integers(0, n, size=4)
        c = T.apply_qt(_unit(n, a2, b2))[a, b]
        cap = 2 * (((a == a2) + (b == b2)) * mu * np.sqrt(r) / n
                   + mu * mu * r / n / n)
        assert abs(c) <= cap + 1e-12


# ----------------------------------------------------------- incoherence

def test_incoherence_flat_rank_one():
    n = 16
    u = np.full((n, 1), 1 / np.sqrt(n))
    inc = incoherence(tangent_space(u, u))
    np.testing.assert_allclose(inc.mu0, 1.0, rtol=1e-12)
    np.testing.assert_allclose(inc.mu2, 1.0, rtol=1e-12)
    np.testing.assert_allclose(inc.mu_b, 1.0, rtol=1e-12)


def test_incoherence_delta_vector_is_maximal():
    n = 12
    u = np.zeros((n, 1))
    u[0, 0] = 1.0
    inc = incoherence(tangent_space(u, u))
    np.testing.assert_allclose(inc.mu0, n, rtol=1e-12)
    assert inc.witnesses["mu0"][1] == 0


def test_incoherence_transfer_bounds_and_witnesses():
    for seed in range(6):
        T = _random_t(18, 3, 200 + seed)
        inc = incoherence(T)
        r = 3
        assert inc.mu0 >= 1 - 1e-12
        assert inc.mu2 >= 1 - 1e-9
        assert inc.mu1 <= inc.mu0 * np.sqrt(r) + 1e-9
        assert inc.mu2 <= inc.mu0 * np.sqrt(r) + 1e-9
        assert inc.mu0 <= 1 + inc.mu1 / np.sqrt(r) + 1e-9
        side, i, j = inc.witnesses["mu1"]
        q = T.qu if side == "left" else T.qv
        np.testing.assert_allclose((18 / np.sqrt(3)) * abs(q[i, j]), inc.mu1,
                                   rtol=1e-12)
        i, j = inc.witnesses["mu2"]
        np.testing.assert_allclose((18 / np.sqrt(3)) * abs(T.e[i, j]), inc.mu2,
                                   rtol=1e-12)


# ---------------------------------------------------------- cancellation

def test_cancellation_full_rank_degenerates_cleanly():
    rep = check_cancellation(tangent_space(np.eye(7), np.eye(7)))
    assert rep.ok and rep.max_violation <= 1e-10


def test_cancellation_random_instance():
    rep = check_cancellation(_random_t(16, 3, 300))
    assert rep.ok
    assert rep.max_violation <= 1e-10
    assert rep.max_violation == max(rep.proj_square, rep.sign_transfer, rep.gram)


def test_cancellation_detects_broken_orthonormality():
    # the identities are sensitive at first order: a 1e-3 defect in U must
    # show up well above the exact-math noise floor
    T = _random_t(16, 3, 301)
    U = T.U.copy()
    U[:, 0] = U[:, 0] + 1e-3 * U[:, 1]
    T.__dict__["U"] = U
    T.__dict__["pu"] = U @ U.T
    T.__dict__["qu"] = T.pu - T.rho * np.eye(16)
    T.__dict__["e"] = U @ T.V.T
    rep = check_cancellation(T)
    assert rep.max_violation > 1e-4


def test_dense_projectors_are_formed_on_first_read():
    T = _random_t(9, 2, 302)
    assert not {"pu", "pv", "qu", "qv"} & set(vars(T))
    T.apply_qt(T.e)
    T.coords(T.e)
    assert not {"pu", "pv", "qu", "qv"} & set(vars(T))
    np.testing.assert_array_equal(T.qu, T.U @ T.U.T - T.rho * np.eye(9))
    np.testing.assert_array_equal(T.qv, T.V @ T.V.T - T.rho * np.eye(9))
    assert T.pu is T.pu and T.qv is T.qv
