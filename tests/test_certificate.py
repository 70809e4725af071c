"""Dual-certificate machinery: deviation statistic, the two builders and
their agreement, verification, operator-word coefficients, chain norms,
and trace moments."""

import math

import numpy as np
import pytest

from mclab.certificate import (
    TANGENT_TRANSFER_SIGMA0,
    build_certificate_cg,
    build_certificate_neumann,
    check_pt_expansion,
    deviation_stat,
    estimate_trace_moment,
    neumann_coeffs,
    neumann_term_norms,
    try_build_certificate,
    verify_certificate,
)
from mclab.errors import DivergenceError, InjectivityError, InvalidParameterError
from mclab.linalg import Rng
from mclab.models import gen_random_orthogonal
from mclab.sampling import SampleSet, project_omega, q_omega, sample_bernoulli


def _instance(n, r, p, seed):
    gt = gen_random_orthogonal(n, r, Rng(seed, 0))
    S = sample_bernoulli(n, p, Rng(seed, 1))
    return gt.tangent_space(), S


def _full(n):
    rows, cols = np.nonzero(np.ones((n, n), dtype=bool))
    return SampleSet(n1=n, n2=n, rows=rows, cols=cols, model="bernoulli",
                     p=1.0, m_nominal=n * n)


# -------------------------------------------------------- deviation stat

def test_deviation_vanishes_at_full_sampling():
    T, _ = _instance(10, 2, 0.5, 1)
    assert deviation_stat(T, _full(10)) <= 1e-7


def test_deviation_and_ritz_floor_match_dense_oracle():
    # frozen oracle: eigendecomposition of P_T P_Om P_T restricted to an
    # explicit orthonormal basis of T (n=14, r=2, p=0.6, seeds 2024/0..1)
    # gives lam_min = 0.044932137385515, lam_max = 0.999879535412251,
    # hence a = max(|lam - p|)/p = 0.925113104357476, attained at the
    # bottom edge so that lam_min = p (1 - a) exactly.
    gt = gen_random_orthogonal(14, 2, Rng(2024, 0))
    S = sample_bernoulli(14, 0.6, Rng(2024, 1))
    T = gt.tangent_space()
    a = deviation_stat(T, S)
    assert abs(a - 0.925113104357476) <= 1e-10
    rep = build_certificate_cg(T, S)
    assert abs(rep.lam_min - 0.044932137385515) <= 1e-9
    assert rep.lam_min >= S.p * (1 - rep.a_stat) / 2
    assert rep.injective


def test_deviation_and_floor_match_dense_operator_at_top_edge():
    # dense n^2 x n^2 matrices of P_T Q_Om P_T and P_T P_Om P_T at n=6; this
    # draw attains a at the top edge lam_max / p - 1, while the n=14 oracle
    # above attains it at the bottom edge
    n = 6
    T, S = _instance(n, 1, 0.5, 1)
    pt_cols, dev_cols, gram_cols = [], [], []
    for k in range(n * n):
        X = np.zeros(n * n)
        X[k] = 1.0
        Y = T.apply_pt(X.reshape(n, n))
        pt_cols.append(Y.ravel())
        dev_cols.append(T.apply_pt(q_omega(Y, S)).ravel())
        gram_cols.append(T.apply_pt(project_omega(Y, S)).ravel())
    w, B = np.linalg.eigh(np.column_stack(pt_cols))
    basis = B[:, w > 0.5]
    assert basis.shape[1] == T.dim
    lam = np.linalg.eigvalsh(basis.T @ np.column_stack(gram_cols) @ basis)
    assert lam[-1] / S.p - 1 > 1 - lam[0] / S.p + 0.1
    a = deviation_stat(T, S)
    assert abs(a - np.linalg.norm(np.column_stack(dev_cols), 2)) <= 1e-10
    assert abs(a - (lam[-1] / S.p - 1)) <= 1e-10
    rep = build_certificate_cg(T, S)
    assert abs(rep.a_stat - a) <= 1e-12
    assert abs(rep.lam_min - lam[0]) <= 1e-10


def test_deviation_at_least_one_when_omega_cannot_span():
    # |Omega| < dim T leaves a null direction inside T
    T, _ = _instance(12, 2, 0.5, 3)
    small = sample_bernoulli(12, 0.15, Rng(3, 2))
    assert small.size < T.dim
    assert deviation_stat(T, small) >= 1.0 - 1e-9


# ------------------------------------------------------------- builders

def test_full_sampling_reproduces_sign_pattern_both_routes():
    T, _ = _instance(9, 2, 0.5, 4)
    S = _full(9)
    for rep in (build_certificate_neumann(T, S), build_certificate_cg(T, S)):
        np.testing.assert_allclose(rep.Y, T.e, atol=1e-9)
        assert rep.ptperp_norm <= 1e-8
        assert rep.supp_ok
        assert verify_certificate(T, S, rep)


def test_routes_agree_on_moderate_instance():
    T, S = _instance(20, 2, 0.7, 5)
    rn = build_certificate_neumann(T, S)
    rc = build_certificate_cg(T, S)
    assert np.linalg.norm(rn.Y - rc.Y) <= 1e-6
    assert rn.resid_t <= 1e-6 and rc.resid_t <= 1e-6
    assert rn.supp_ok and rc.supp_ok


def test_neumann_terms_decay_geometrically_at_rate_a():
    hits = 0
    for t in range(10):
        gt = gen_random_orthogonal(40, 2, Rng(51, 2 * t))
        S = sample_bernoulli(40, 0.7, Rng(51, 2 * t + 1))
        rep = build_certificate_neumann(gt.tangent_space(), S)
        tn = rep.term_norms
        assert not rep.truncated
        if np.all(tn[2:] <= 1.1 * rep.a_stat * tn[1:-1]):
            hits += 1
    assert hits >= 9


def test_neumann_truncation_flagged():
    T, S = _instance(16, 2, 0.6, 6)
    rep = build_certificate_neumann(T, S, k_max=3)
    assert rep.truncated
    assert rep.resid_t > 1e-10  # partial sum cannot have finished


def test_neumann_refuses_divergent_series():
    T, _ = _instance(12, 2, 0.5, 7)
    starved = sample_bernoulli(12, 0.1, Rng(7, 2))
    with pytest.raises(DivergenceError):
        build_certificate_neumann(T, starved)


def test_cg_refuses_singular_operator():
    T, _ = _instance(12, 2, 0.5, 8)
    starved = sample_bernoulli(12, 0.1, Rng(8, 2))
    with pytest.raises(InjectivityError):
        build_certificate_cg(T, starved)


def test_cg_reports_residual_on_stall():
    from mclab.errors import ConvergenceError
    T, S = _instance(16, 2, 0.7, 9)
    with pytest.raises(ConvergenceError) as err:
        build_certificate_cg(T, S, max_iter=2)
    assert err.value.residual > 0


def test_try_build_degrades_to_failure_report():
    T, _ = _instance(12, 2, 0.5, 10)
    starved = sample_bernoulli(12, 0.1, Rng(10, 2))
    rep = try_build_certificate(T, starved, method="neumann")
    assert rep.failure is not None
    assert not rep.injective
    assert not verify_certificate(T, starved, rep)


def test_pythagoras_splits_certificate_energy():
    # ||Y||_F^2 = r + ||P_Tperp Y||_F^2 whenever P_T(Y) = E
    T, S = _instance(18, 2, 0.7, 11)
    rep = build_certificate_cg(T, S)
    lhs = np.linalg.norm(rep.Y) ** 2
    rhs = 2 + np.linalg.norm(T.apply_ptperp(rep.Y)) ** 2
    assert abs(lhs - rhs) <= 1e-8


def test_certificate_is_min_norm_feasible_point():
    # among matrices supported on Omega with P_T(Z) = E, the built Y
    # minimizes the Frobenius norm; perturbations along the Omega-supported
    # null space of P_T can only grow it
    n, r = 10, 1
    T, S = _instance(n, r, 0.7, 12)
    rep = build_certificate_cg(T, S)
    # dense map from Omega coefficients to vec(P_T(.))
    cols = np.zeros((n * n, S.size))
    for idx in range(S.size):
        N = np.zeros((n, n))
        N[S.rows[idx], S.cols[idx]] = 1.0
        cols[:, idx] = T.apply_pt(N).ravel()
    _, s, Vt = np.linalg.svd(cols)
    null = Vt[(s > 1e-10).sum():]
    assert null.shape[0] == S.size - T.dim
    gen = np.random.default_rng(0)
    ynorm = np.linalg.norm(rep.Y)
    for _ in range(50):
        combo = null.T @ gen.standard_normal(null.shape[0])
        N = np.zeros((n, n))
        N[S.rows, S.cols] = combo
        np.testing.assert_allclose(T.apply_pt(N), 0.0, atol=1e-9)
        z = np.linalg.norm(rep.Y + N)
        assert z >= ynorm - 1e-12
        assert abs(z**2 - (ynorm**2 + np.linalg.norm(N) ** 2)) <= 1e-7


def test_verify_rejects_undersampled_even_with_good_numbers():
    T, _ = _instance(12, 2, 0.5, 13)
    small = sample_bernoulli(12, 0.2, Rng(13, 2))
    assert small.size < T.dim
    rep = try_build_certificate(T, small, method="cg")
    assert not verify_certificate(T, small, rep)


def test_superset_never_decertifies():
    # observed-property regression: enlarging Omega on 20 pinned seeds
    # keeps every certified instance certified
    for t in range(20):
        gt = gen_random_orthogonal(24, 1, Rng(52, 3 * t))
        S1 = sample_bernoulli(24, 0.70, Rng(52, 3 * t + 1))
        extra = sample_bernoulli(24, 0.25, Rng(52, 3 * t + 2))
        S2 = SampleSet(
            n1=24, n2=24,
            rows=np.concatenate([S1.rows, extra.rows]),
            cols=np.concatenate([S1.cols, extra.cols]),
            model="bernoulli", p=1 - 0.30 * 0.75,
            m_nominal=S1.size + extra.size,
        )
        T = gt.tangent_space()
        v1 = verify_certificate(
            T, S1, try_build_certificate(T, S1, method="cg"))
        v2 = verify_certificate(
            T, S2, try_build_certificate(T, S2, method="cg"))
        assert not (v1 and not v2)


# ------------------------------------------------------------ chain norms

def test_chain_norms_share_level_zero_and_vanish_at_p1():
    T, S = _instance(12, 2, 0.6, 14)
    ch = neumann_term_norms(T, S, k_max=3)
    assert ch.pt[0] == ch.qt[0]
    full = neumann_term_norms(T, _full(12), k_max=3)
    np.testing.assert_allclose(full.pt, 0.0, atol=1e-12)
    np.testing.assert_allclose(full.qt, 0.0, atol=1e-12)
    with pytest.raises(InvalidParameterError):
        neumann_term_norms(T, S, k_max=9)


def test_chain_transfer_lemma_with_fitted_sigma():
    # premise: qt[k] <= sigma^{(k+1)/2} for a fitted sigma in (0,1) with
    # 8nr/m < sigma^{3/2}; conclusion: pt[k] <= (1+4^{k+1}) sigma^{(k+1)/2}.
    # The canonical sigma_0 needs m > 110592 nr, far beyond desk scale, so
    # the check instantiates the lemma at the smallest admissible sigma.
    assert TANGENT_TRANSFER_SIGMA0 == 1.0 / 576.0
    s0 = math.sqrt(TANGENT_TRANSFER_SIGMA0)
    assert 5 * s0 / (1 - 4 * s0) <= 0.25 + 1e-12
    checked = 0
    for seed in range(4):
        T, S = _instance(32, 1, 0.55, 100 + seed)
        ch = neumann_term_norms(T, S, k_max=4)
        sigma_fit = max(ch.qt[k] ** (2.0 / (k + 1)) for k in range(len(ch.qt)))
        floor = (8.0 * 32 * 1 / S.size) ** (2.0 / 3.0)
        sigma = max(sigma_fit, floor * (1 + 1e-9))
        if not (sigma < 1.0):
            continue  # lemma hypotheses unsatisfiable for this draw
        assert 8.0 * 32 * 1 / S.size < sigma ** 1.5
        for k in range(len(ch.pt)):
            assert ch.qt[k] <= sigma ** ((k + 1) / 2.0) + 1e-12
            assert ch.pt[k] <= (1 + 4 ** (k + 1)) * sigma ** ((k + 1) / 2.0)
        checked += 1
    assert checked >= 3


# ------------------------------------------------- coefficient recurrence

def test_coeffs_base_and_first_level():
    co = neumann_coeffs(0, 0.3, 0.5)
    np.testing.assert_array_equal(co.alpha, [1.0])
    assert co.beta.size == 0 and co.gamma.size == 0 and co.delta.size == 0
    rho_p, p = 0.3, 0.4
    co1 = neumann_coeffs(1, rho_p, p)
    # beta_0^{(1)} = rho'(1-p)/p, the constant-term leak of one substitution
    np.testing.assert_allclose(co1.beta[0], rho_p * (1 - p) / p, rtol=1e-14)
    np.testing.assert_allclose(co1.alpha[1], 1.0, rtol=1e-14)


def test_coeffs_known_top_entries():
    # leading entries are forced by the word algebra: the longest word is
    # never rewritten, each shortening step pays a factor rho'(1-p)/p
    rho_p, p = 0.22, 0.35
    c2 = rho_p * (1 - p) / p
    for k in (2, 3, 4, 5):
        co = neumann_coeffs(k, rho_p, p)
        np.testing.assert_allclose(co.alpha[k], 1.0, rtol=1e-13)
        np.testing.assert_allclose(co.beta[k - 1], c2, rtol=1e-13)
        if co.gamma.size:
            np.testing.assert_allclose(co.gamma[k - 2], c2, rtol=1e-13)
        if co.delta.size:
            np.testing.assert_allclose(co.delta[k - 3], c2 * c2, rtol=1e-13)


def test_coeffs_magnitude_bound_on_grid():
    # |coef| <= lambda^{ceil((k-j)/2)} 4^k with lambda = rho'/p
    for rho_p in (0.05, 0.15, 0.3, 0.5, 0.8):
        for p in (0.2, 0.35, 0.5, 0.75, 0.95):
            lam = rho_p / p
            for k in range(7):
                co = neumann_coeffs(k, rho_p, p)
                for arr in (co.alpha, co.beta, co.gamma, co.delta):
                    for j, c in enumerate(arr):
                        cap = lam ** math.ceil((k - j) / 2.0) * 4.0 ** k
                        assert abs(c) <= cap * (1 + 1e-12)


def test_expansion_identity_small_instance():
    T, S = _instance(12, 2, 0.45, 15)
    assert check_pt_expansion(T, S, 0, rng=Rng(15, 3)) == 0.0
    for k in (1, 2, 3):
        assert check_pt_expansion(T, S, k, rng=Rng(15, 3 + k)) <= 1e-10
    # p = 1 sends Q_Omega to the zero operator: both sides vanish
    assert check_pt_expansion(T, _full(12), 2, rng=Rng(15, 9)) == 0.0


# ------------------------------------------------------------ moments

def test_moment_vanishes_at_full_sampling():
    est = estimate_trace_moment(
        lambda n, r, rng: gen_random_orthogonal(n, r, rng),
        16, 2, 1.0, 1, 1, trials=3, rng=Rng(16, 0))
    assert est.mean == 0.0


def test_moment_closed_form_any_p():
    # k=0, j=1: tr(A^T A) = ||Q_Om E||_F^2 has mean (1-p) r / p
    for p in (0.25, 0.5, 0.8):
        est = estimate_trace_moment(
            lambda n, r, rng: gen_random_orthogonal(n, r, rng),
            24, 2, p, 1, 0, trials=200, rng=Rng(17, int(p * 100)))
        cf = (1 - p) * 2 / p
        assert est.closed_form == cf
        assert abs(est.mean - cf) <= 3 * max(est.stderr, 1e-12) + 1e-9


def test_moment_guards():
    gen = lambda n, r, rng: gen_random_orthogonal(n, r, rng)
    with pytest.raises(InvalidParameterError):
        estimate_trace_moment(gen, 8, 1, 0.5, 0, 0, trials=5)
    with pytest.raises(InvalidParameterError):
        estimate_trace_moment(gen, 8, 1, 0.5, 1, 0, trials=1)
