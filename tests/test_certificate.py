"""Dual-certificate machinery: the tangent Gram matrix and coordinate maps
against the dense feature matrix, deviation statistic, the two builders
against the n x n loops they replaced and against each other,
verification, the exact decision, operator-word coefficients, chain
norms, and trace moments."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mclab import certificate
from mclab.certificate import (
    _NULL_TOL,
    _REFUTE_MARGIN,
    TANGENT_TRANSFER_SIGMA0,
    CertificateReport,
    _moment_bounds,
    _trace_gram_power,
    build_certificate_cg,
    build_certificate_neumann,
    check_pt_expansion,
    decide,
    deviation_stat,
    estimate_trace_moment,
    neumann_coeffs,
    neumann_term_norms,
    try_build_certificate,
    verify_certificate,
)
from mclab.errors import (
    ConvergenceError,
    DivergenceError,
    InjectivityError,
    InvalidParameterError,
)
from mclab.experiments import _SLOT_OMEGA2, ExperimentConfig, _draw, _stream
from mclab.geometry import TangentSpace
from mclab.linalg import Rng, haar_orthogonal, spectral_norm
from mclab.models import gen_random_orthogonal
from mclab.sampling import (
    _CHUNK_BYTES,
    SampleSet,
    _chunks,
    project_omega,
    q_omega,
    sample_bernoulli,
    sample_uniform,
)


def _instance(n, r, p, seed):
    gt = gen_random_orthogonal(n, r, Rng(seed, 0))
    S = sample_bernoulli(n, p, Rng(seed, 1))
    return gt.tangent_space(), S


def _full(n):
    rows, cols = np.nonzero(np.ones((n, n), dtype=bool))
    return SampleSet(n1=n, n2=n, rows=rows, cols=cols, model="bernoulli",
                     p=1.0, m_nominal=n * n)


def _empty(n):
    return SampleSet(n1=n, n2=n, rows=np.zeros(0, int), cols=np.zeros(0, int),
                     model="bernoulli", p=0.5, m_nominal=0)


# ---------------------------------------------------------------- oracles
# The dense routes the engine replaced: the feature matrix phi, whose
# rows are the tangent coordinates of the entry matrices e_i e_j^T, and
# the n x n Neumann and conjugate-gradient loops.

def _features(T, rows, cols):
    """phi over the pairs (rows, cols), entry by entry: U_i in the block
    of column j, then W_i (x) V_j, with W = T.u_perp."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    n, r, m = T.n, T.r, rows.shape[0]
    phi = np.zeros((m, T.dim))
    phi[np.arange(m)[:, None], cols[:, None] * r + np.arange(r)] = T.U[rows]
    phi[:, n * r:] = (T.u_perp[rows][:, :, None]
                      * T.V[cols][:, None, :]).reshape(m, T.dim - n * r)
    return phi


def _dense_a(T, S):
    phi = _features(T, S.rows, S.cols)
    lam = np.linalg.eigvalsh(phi.T @ phi)
    return float(np.max(np.abs(lam / S.p - 1.0))), float(lam[0])


def _dense_neumann(T, S, k_max=100, tol=1e-12):
    """(Y, term norms, truncated) of the series summed as n x n matrices."""
    term = T.e.copy()
    total = term.copy()
    norms = [float(np.linalg.norm(term))]
    truncated = True
    for _ in range(k_max):
        term = -T.apply_pt(q_omega(term, S))
        norms.append(float(np.linalg.norm(term)))
        total += term
        if norms[-1] <= tol * norms[0]:
            truncated = False
            break
    return project_omega(total, S) / S.p, np.array(norms), truncated


def _dense_cg(T, S, tol=1e-10, max_iter=1000):
    """(W, iterations, final residual) of CG on P_T P_Omega W = E in n x n."""
    W = np.zeros_like(T.e)
    R = T.e.copy()
    D = R.copy()
    rs = float(np.sum(R * R))
    for it in range(1, max_iter + 1):
        AD = T.apply_pt(project_omega(D, S))
        step = rs / float(np.sum(D * AD))
        W += step * D
        R -= step * AD
        rs_new = float(np.sum(R * R))
        if np.sqrt(rs_new) <= tol:
            break
        D = R + (rs_new / rs) * D
        rs = rs_new
    return W, it, float(np.sqrt(rs_new))


def _dense_decide(T, S):
    """decide() as (verdict, reason, upper, lower, lam_min) through phi."""
    n, r = T.n, T.r
    phi = _features(T, S.rows, S.cols)
    lam, Q = np.linalg.eigh(phi.T @ phi)
    e_t = np.zeros(T.dim)
    e_t[:n * r] = T.V.ravel()
    null = lam <= _NULL_TOL
    if null.any():
        h = Q[:, null] @ (Q[:, null].T @ e_t)
        hh, ph = float(h @ h), float(np.linalg.norm(phi @ h))
        noise = T.dim * np.finfo(float).eps
        if hh <= noise * r:
            lower = 0.0
        elif ph * ph <= noise * hh:
            lower = np.inf
        else:
            lower = float(np.sqrt(max(hh * hh / (ph * ph) - r, 0.0) / max(n - r, 1)))
        verdict = "refuted" if lower > 1.0 + _REFUTE_MARGIN else "undecided"
        return verdict, "null", np.inf, lower, lam[0]

    def solve(x):
        return Q @ ((Q.T @ x) / lam)

    R = -T.e
    R[S.rows, S.cols] += phi @ solve(e_t)
    u, s, vt = np.linalg.svd(R)
    if s[0] < 1.0:
        return "certified", "min_norm", s[0], 0.0, lam[0]
    Z = np.outer(u[:, 0], vt[0])
    w = solve(phi.T @ Z[S.rows, S.cols])
    Z[S.rows, S.cols] = phi @ w
    lower = (w @ e_t - np.sum(Z * T.e)) / np.linalg.norm(Z, "nuc")
    verdict = "refuted" if lower > 1.0 + _REFUTE_MARGIN else "undecided"
    return verdict, "witness", s[0], lower, lam[0]


# ------------------------------------------------------ tangent coordinates

def _coordinate_cases():
    # (T, S): n = 1, r = n, r = n - 1, both samplers, an empty and a full mask
    out = []
    for n, r, p, seed in ((1, 1, 1.0, 1), (5, 5, 0.6, 2), (6, 5, 0.6, 3),
                          (14, 3, 0.5, 4), (20, 2, 0.3, 5)):
        out.append(_instance(n, r, p, seed))
    T = gen_random_orthogonal(16, 2, Rng(6, 0)).tangent_space()
    out += [(T, sample_uniform(16, 90, Rng(6, 1))), (T, _empty(16)), (T, _full(16))]
    return out


def test_gram_matches_feature_oracle():
    cases = _coordinate_cases()
    for T, S in cases:
        phi = _features(T, S.rows, S.cols)
        G = T.gram(S.mask)
        assert G.shape == (T.dim, T.dim)
        assert np.max(np.abs(G - phi.T @ phi), initial=0.0) <= 1e-13, (T.n, T.r)
    T, S = cases[-1]  # the full mask
    np.testing.assert_allclose(T.gram(S.mask), np.eye(T.dim), rtol=0, atol=1e-13)


def test_coordinate_maps_invert_and_match_phi():
    gen = np.random.default_rng(7)
    for T, S in _coordinate_cases():
        phi = _features(T, S.rows, S.cols)
        c = gen.standard_normal(T.dim)
        X = gen.standard_normal((T.n, T.n))
        H = T.embed(c)
        np.testing.assert_allclose(T.coords(H), c, rtol=0, atol=1e-13)
        np.testing.assert_allclose(T.apply_pt(H), H, rtol=0, atol=1e-13)
        assert np.linalg.norm(H) == pytest.approx(np.linalg.norm(c), rel=1e-13)
        np.testing.assert_allclose(H[S.mask], phi @ c, rtol=0, atol=1e-13)
        np.testing.assert_allclose(T.coords(np.where(S.mask, X, 0.0)),
                                   phi.T @ X[S.mask], rtol=0, atol=1e-13)
    W = T.u_perp
    np.testing.assert_allclose(W.T @ W, np.eye(T.n - T.r), atol=1e-13)
    np.testing.assert_allclose(T.U.T @ W, 0.0, atol=1e-13)
    # E has coordinates [V; 0]
    e_t = T.coords(T.e)
    np.testing.assert_allclose(e_t[:T.n * T.r], T.V.ravel(), atol=1e-13)
    np.testing.assert_allclose(e_t[T.n * T.r:], 0.0, atol=1e-13)


def _engine_cases():
    out = [_instance(n, r, p, seed) for n, r, p, seed in
           ((12, 1, 0.7, 31), (20, 2, 0.7, 32), (24, 3, 0.8, 33))]
    for seed in range(3):
        gt = gen_random_orthogonal(48, 2, Rng(34, seed))
        out.append((gt.tangent_space(), sample_uniform(48, 1614, Rng(35, seed))))
    return out


def test_neumann_matches_the_dense_loop():
    for T, S in _engine_cases():
        for k_max in (100, 3):
            rep = build_certificate_neumann(T, S, k_max=k_max)
            Y, norms, truncated = _dense_neumann(T, S, k_max=k_max)
            a, lam_min = _dense_a(T, S)
            assert (rep.iters, rep.truncated) == (len(norms) - 1, truncated)
            np.testing.assert_allclose(rep.term_norms, norms, rtol=0, atol=1e-12)
            assert abs(rep.a_stat - a) <= 1e-12
            assert abs(rep.lam_min - lam_min) <= 1e-12
            assert abs(rep.ptperp_norm - spectral_norm(T.apply_ptperp(Y))) <= 1e-12
            np.testing.assert_allclose(rep.Y, Y, rtol=0, atol=1e-11)


def test_cg_matches_the_dense_loop():
    for T, S in _engine_cases():
        rep = build_certificate_cg(T, S)
        W, iters, _ = _dense_cg(T, S)
        Y = project_omega(W, S)
        assert rep.iters == iters
        assert abs(rep.a_stat - _dense_a(T, S)[0]) <= 1e-12
        assert abs(rep.ptperp_norm - spectral_norm(T.apply_ptperp(Y))) <= 1e-12
        np.testing.assert_allclose(rep.Y, Y, rtol=0, atol=1e-11)
        # a stalled solve carries the n x n iterate and its residual
        with pytest.raises(ConvergenceError) as err:
            build_certificate_cg(T, S, max_iter=2)
        W, _, resid = _dense_cg(T, S, max_iter=2)
        assert err.value.estimate.shape == (T.n, T.n)
        np.testing.assert_allclose(err.value.estimate, W, rtol=0, atol=1e-12)
        assert err.value.residual == pytest.approx(resid, rel=1e-10)


def test_refused_build_computes_the_spectrum_once(monkeypatch):
    calls = []
    gram = TangentSpace.gram

    def counted(self, mask):
        calls.append(1)
        return gram(self, mask)

    monkeypatch.setattr(TangentSpace, "gram", counted)
    # divergent series, singular operator, stalled conjugate gradients
    T1, _ = _instance(12, 2, 0.5, 10)
    starved = sample_bernoulli(12, 0.1, Rng(10, 2))
    T2, S2 = _instance(16, 2, 0.7, 9)
    for T, S, method, kw in ((T1, starved, "neumann", {}), (T1, starved, "cg", {}),
                             (T2, S2, "cg", {"max_iter": 2})):
        calls.clear()
        rep = try_build_certificate(T, S, method=method, **kw)
        assert rep.failure is not None and len(calls) == 1
        # no certificate was built, so none of its measurements is made up
        assert rep.Y is None and rep.resid_t is None and rep.ptperp_norm is None
        assert rep.supp_ok is False and rep.injective is False
        assert rep.a_stat == deviation_stat(T, S)
        assert abs(rep.lam_min - _dense_a(T, S)[1]) <= 1e-12


def _check_07_sides(trials):
    # acceptance check 07's cell, both sides of each trial as equiv draws them
    cfg = ExperimentConfig(kind="equiv", n_grid=(32,), r_grid=(1,), m_grid=(194,),
                           model="random_orth", trials=400, seed=41, equiv_p="2m")
    for t in trials:
        gt, s_unif = _draw(cfg, 0, t, 32, 1, 194, "uniform")
        s_ber = sample_bernoulli(32, 2 * 194 / 32 ** 2,
                                 Rng(cfg.seed, _stream(0, t, _SLOT_OMEGA2)))
        T = gt.tangent_space()
        yield T, s_unif
        yield T, s_ber


def _replay_decide(trials):
    reasons = set()
    for T, S in _check_07_sides(trials):
        d = decide(T, S)
        verdict, reason, upper, lower, lam_min = _dense_decide(T, S)
        assert (d.verdict, d.reason) == (verdict, reason)
        assert abs(d.lam_min - lam_min) <= 1e-12
        assert d.upper == pytest.approx(upper, rel=1e-8, abs=0.0)
        assert d.lower == pytest.approx(lower, rel=1e-8, abs=0.0)
        reasons.add(reason)
    return reasons


def test_decide_matches_dense_oracle_on_check_07_trials():
    assert _replay_decide(range(20)) >= {"min_norm", "witness"}


@pytest.mark.slow
def test_decide_matches_dense_oracle_on_all_check_07_trials():
    assert _replay_decide(range(400)) == {"null", "min_norm", "witness"}


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
    # a report that passes every other condition
    good = CertificateReport(Y=np.zeros((12, 12)), resid_t=0.0, supp_ok=True,
                             ptperp_norm=0.5, a_stat=0.5, injective=True, lam_min=0.5)
    assert verify_certificate(T, _full(12), good)
    assert not verify_certificate(T, small, good)


@pytest.mark.parametrize("call", [
    lambda T, S: deviation_stat(T, sample_bernoulli(10, 0.5, Rng(0))),
    lambda T, S: decide(T, sample_bernoulli(12, 0.5, Rng(0), n2=10)),
    lambda T, S: build_certificate_neumann(T, _empty(12)),
    lambda T, S: build_certificate_cg(T, S, max_iter=0),
    lambda T, S: try_build_certificate(T, S, method="qr"),
    lambda T, S: neumann_coeffs(-1, 0.3, 0.5),
    lambda T, S: neumann_coeffs(1, 0.3, 0.0),
    lambda T, S: neumann_coeffs(1, 0.3, 1.5),
    lambda T, S: neumann_coeffs(1, -0.1, 0.5),
    lambda T, S: neumann_coeffs(1, 1.1, 0.5),
    lambda T, S: check_pt_expansion(T, S, -1),
    lambda T, S: check_pt_expansion(T, S, 9),
], ids=["grid", "grid_n2", "empty", "cg_max_iter", "method", "coeffs_k", "coeffs_p0",
        "coeffs_p_gt_1", "coeffs_rho_neg", "coeffs_rho_gt_1", "expansion_k_neg",
        "expansion_k_gt_8"])
def test_bad_arguments_are_invalid_parameter(call):
    T, S = _instance(12, 2, 0.5, 19)
    with pytest.raises(InvalidParameterError):
        call(T, S)


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


# ---------------------------------------------------------------- decision

def test_decide_certifies_whenever_verify_passes():
    passed = 0
    for seed in range(10):
        for n, r, p in ((12, 1, 0.5), (14, 2, 0.6), (16, 2, 0.75)):
            T, S = _instance(n, r, p, seed)
            d = decide(T, S)
            for method in ("neumann", "cg"):
                rep = try_build_certificate(T, S, method=method)
                if verify_certificate(T, S, rep):
                    passed += 1
                    assert (d.verdict, d.reason) == ("certified", "min_norm")
                    assert d.lam_min == pytest.approx(rep.lam_min, abs=1e-12)
                    if method == "cg":
                        # the CG certificate is the minimum-norm one
                        assert abs(d.upper - rep.ptperp_norm) <= 1e-8
    assert passed >= 10


def test_decide_refutes_an_empty_row_with_a_cheaper_feasible_point():
    n, r = 10, 2
    gt = gen_random_orthogonal(n, r, Rng(3, 0))
    T = gt.tangent_space()
    full = _full(n)
    keep = full.rows != 0
    S = SampleSet(n1=n, n2=n, rows=full.rows[keep], cols=full.cols[keep],
                  model="bernoulli", p=0.9, m_nominal=int(keep.sum()))
    d = decide(T, S)
    assert (d.verdict, d.reason) == ("refuted", "null")
    assert d.upper == math.inf and d.lower > 1.0 and d.lam_min <= 1e-12
    # H = e_0 (V b)^T with b = U[0] lies in T, vanishes on Omega and has
    # <E, H> = |U[0]|^2 > 0, so M - tH agrees with M on Omega and has a
    # smaller nuclear norm
    H = np.zeros((n, n))
    H[0] = T.V @ T.U[0]
    np.testing.assert_allclose(T.apply_pt(H), H, atol=1e-12)
    assert np.sum(T.e * H) == pytest.approx(T.U[0] @ T.U[0])
    X = gt.M - 1e-2 * H
    assert np.array_equal(project_omega(X, S), project_omega(gt.M, S))
    assert np.linalg.norm(X, "nuc") < np.linalg.norm(gt.M, "nuc") - 1e-4
    # with nothing observed the zero matrix is feasible
    d = decide(T, _empty(n))
    assert (d.verdict, d.reason, d.lower) == ("refuted", "null", math.inf)


def test_decide_witness_is_orthogonal_to_every_free_direction():
    n = 12
    T, S = _instance(n, 1, 0.3, 1)
    d = decide(T, S)
    assert (d.verdict, d.reason) == ("refuted", "witness")
    assert d.lower > 1.0
    # reference route by least squares: E's coordinates from the features
    # of every entry, the minimum-norm certificate, and the witness Z with
    # its Omega entries projected onto the range of phi
    everything = _full(n)
    e_t = _features(T, everything.rows, everything.cols).T @ T.e.ravel()
    phi = _features(T, S.rows, S.cols)
    Y0 = np.zeros((n, n))
    Y0[S.rows, S.cols] = np.linalg.lstsq(phi.T, e_t, rcond=None)[0]
    R = Y0 - T.e
    u, s, vt = np.linalg.svd(R)
    assert abs(d.upper - s[0]) <= 1e-10
    Z = np.outer(u[:, 0], vt[0])
    z = Z[S.rows, S.cols]
    Z[S.rows, S.cols] = phi @ np.linalg.lstsq(phi, z, rcond=None)[0]
    lower = np.sum(Z * R) / np.linalg.norm(Z, "nuc")
    assert abs(d.lower - lower) <= 1e-10
    gen = np.random.default_rng(4)
    for _ in range(20):
        g = gen.standard_normal(S.size)
        D = np.zeros((n, n))
        D[S.rows, S.cols] = g - phi @ np.linalg.lstsq(phi, g, rcond=None)[0]
        np.testing.assert_allclose(T.apply_pt(D), 0.0, atol=1e-12)
        assert abs(np.sum(Z * D)) <= 1e-10 * np.linalg.norm(D)
        # every certificate Y0 + tD stays at least lower away from E
        for t in (0.1, 1.0, 10.0):
            assert np.linalg.norm(R + t * D, 2) >= d.lower - 1e-10


def _same_pattern(mask, S):
    rows, cols = np.nonzero(mask)
    return SampleSet(n1=mask.shape[0], n2=mask.shape[1], rows=rows, cols=cols,
                     model=S.model, p=S.p, m_nominal=S.m_nominal)


def test_decide_is_invariant_under_the_problem_symmetries():
    # transposing M and Omega, permuting the rows and the columns of both
    # jointly, and rotating U and V by one r x r orthogonal matrix all map
    # the program to an equivalent one
    # the 40 instances, and seed 17 at n=12, r=1, whose Omega has an empty
    # column, for the null exit
    cases = [(n, r, seed)
             for n in (12, 16, 24, 32) for r in (1, 2) for seed in range(5)]
    reasons = set()
    for n, r, seed in cases + [(12, 1, 17)]:
        T = gen_random_orthogonal(n, r, Rng(seed, 0)).tangent_space()
        S = sample_uniform(n, round(2.3 * n * r * math.log(n)), Rng(seed, 1))
        d = decide(T, S)
        reasons.add((d.verdict, d.reason))
        gen = np.random.default_rng(seed)
        pr, pc = gen.permutation(n), gen.permutation(n)
        R = np.linalg.qr(gen.standard_normal((r, r)))[0]
        for T2, S2 in ((TangentSpace(T.V, T.U), _same_pattern(S.mask.T, S)),
                       (TangentSpace(T.U[pr], T.V[pc]),
                        _same_pattern(S.mask[np.ix_(pr, pc)], S)),
                       (TangentSpace(T.U @ R, T.V @ R), S)):
            d2 = decide(T2, S2)
            assert (d2.verdict, d2.reason) == (d.verdict, d.reason)
            # G^{-1} scales rounding error by up to 1 / lam_min
            rel = 1e-12 / min(1.0, d.lam_min) if d.reason != "null" else 1e-12
            assert d2.upper == pytest.approx(d.upper, rel=rel, abs=0.0)
            assert d2.lower == pytest.approx(d.lower, rel=rel, abs=0.0)
    assert {v for v, _ in reasons} == {"certified", "undecided", "refuted"}
    assert ("refuted", "null") in reasons


def test_decide_null_exit_is_inf_when_phi_h_is_rounding_noise():
    # an empty column makes G singular along h, so no certificate exists and
    # |phi h| is rounding noise; dividing by it would give lower 3.7e14 here
    # and 1.44e14 on the transposed problem
    T = gen_random_orthogonal(12, 1, Rng(17)).tangent_space()
    S = sample_uniform(12, 69, Rng(17, 1))
    assert not S.mask.any(axis=0).all()
    for T2, S2 in ((T, S), (TangentSpace(T.V, T.U), _same_pattern(S.mask.T, S))):
        d = decide(T2, S2)
        assert (d.verdict, d.reason, d.upper, d.lower) == ("refuted", "null",
                                                           math.inf, math.inf)


@pytest.mark.parametrize("r", [1, 2])
def test_decide_null_exit_refutes_nothing_when_h_is_rounding_noise(r):
    # U's last row is 1e-13 of the rest and Omega's last row is empty, so
    # e_T's part in the null space is rounding noise; a quotient of noise
    # would refute these instances with lower 20 to 140
    n = 8
    for seed in range(3):
        U = haar_orthogonal(n, Rng(seed, 0))[:, :r]
        U[n - 1] *= 1e-13
        V = haar_orthogonal(n, Rng(seed, 1))[:, :r]
        mask = np.random.default_rng(seed).random((n, n)) < 0.8
        mask[n - 1] = False
        S = SampleSet._of_mask(mask, "bernoulli", 0.8, 51)
        d = decide(TangentSpace(np.linalg.qr(U)[0], V), S)
        assert (d.verdict, d.reason, d.upper, d.lower) == ("undecided", "null",
                                                           math.inf, 0.0)


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


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_moment_trace_matches_singular_value_sum(j, k):
    # oracle: replay the same draws and take sum s^(2j) from a full SVD
    gen = lambda n, r, rng: gen_random_orthogonal(n, r, rng)
    n, r, p, trials = 12, 2, 0.4, 4
    rng = Rng(18, j * 10 + k)
    est = estimate_trace_moment(gen, n, r, p, j, k, trials=trials, rng=rng)
    T = gen(n, r, rng.substream(0)).tangent_space()
    vals = []
    for t in range(trials):
        S = sample_bernoulli(n, p, rng.substream(t + 1))
        A = q_omega(T.e, S)
        for _ in range(k):
            A = q_omega(T.apply_qt(A), S)
        vals.append(np.sum(np.linalg.svd(A, compute_uv=False) ** (2 * j)))
    assert est.mean == pytest.approx(float(np.mean(vals)), rel=1e-12, abs=0.0)
    assert est.stderr == pytest.approx(
        float(np.std(vals, ddof=1) / np.sqrt(trials)), rel=1e-9, abs=0.0)


def _trace_one(A, j):
    """tr((A^T A)^j) of one matrix as the estimator took it before it ran on
    stacks: the same products, then np.vdot."""
    C = A
    if j > 1:
        B = A.T @ A
        C = A if j % 2 else B
        for _ in range((j - 1) // 2):
            C = C @ B
    return float(np.vdot(C, C))


@pytest.mark.parametrize("n", [1, 13, 16, 17, 33])
def test_stacked_trace_has_the_bits_of_each_matrix_alone(n):
    gen = np.random.default_rng(n)
    A = gen.standard_normal((7, n, n)) / math.sqrt(n)
    for j in range(1, 6):
        for stack in (A, A[:1], A[2:5]):
            want = [_trace_one(a, j) for a in stack]
            np.testing.assert_array_equal(_trace_gram_power(stack, j), want)


def test_moments_build_one_coefficient_stack_per_chunk(monkeypatch):
    built, q_coef = [], certificate._q_coef

    def counted(mask, p):
        built.append(mask.shape)
        return q_coef(mask, p)

    monkeypatch.setattr(certificate, "_q_coef", counted)
    gen = lambda n, r, rng: gen_random_orthogonal(n, r, rng)
    n, trials = 32, 40
    chunks = _chunks(trials, 8 * n * n)
    assert len(chunks) > 1
    estimate_trace_moment(gen, n, 1, 0.4, 2, 3, trials=trials, rng=Rng(21, 0))
    assert built == [(len(c), n, n) for c in chunks]


def _moments_trial_by_trial(gen, n, r, p, j, k, trials, rng):
    """The estimator's (mean, stderr) as it ran before chunking: one draw,
    one chain and one trace per trial."""
    T = gen(n, r, rng.substream(0)).tangent_space()
    vals = np.empty(trials)
    for t in range(trials):
        S = sample_bernoulli(n, p, rng.substream(t + 1))
        A = q_omega(T.e, S)
        for _ in range(k):
            A = q_omega(T.apply_qt(A), S)
        vals[t] = _trace_one(A, j)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(trials))


@pytest.mark.parametrize("n,r", [(32, 1), (29, 2), (37, 3)])
def test_chunked_moments_equal_the_trial_by_trial_loop(n, r):
    gen = lambda n, r, rng: gen_random_orthogonal(n, r, rng)
    chunk = len(_chunks(1 << 19, 8 * n * n)[0])
    assert 2 < chunk < 60  # so the trial counts below straddle a chunk
    for trials in (2, chunk - 1, chunk, chunk + 1, 60):
        for j, k in ((1, 0), (2, 1), (3, 2)):
            rng = Rng(19, trials * 100 + j * 10 + k)
            est = estimate_trace_moment(gen, n, r, 0.4, j, k, trials=trials, rng=rng)
            assert (est.mean, est.stderr) == _moments_trial_by_trial(
                gen, n, r, 0.4, j, k, trials, rng), (trials, j, k)


def test_moments_refuse_a_substream_index_past_2_20(monkeypatch):
    # a chunk reaching trial 2**20 - 1 derives substream(2**20), which would
    # alias substream(0); the batch of the chunk's streams still refuses it
    monkeypatch.setattr(certificate, "_chunks", lambda trials, trial_bytes:
                        [range(2**20 - 3, 2**20)])
    gen = lambda n, r, rng: gen_random_orthogonal(n, r, rng)
    with pytest.raises(InvalidParameterError, match="substream"):
        estimate_trace_moment(gen, 8, 1, 0.5, 1, 0, trials=3, rng=Rng(2, 5))


@pytest.mark.parametrize("trial_bytes", [8, 1352, 8192, 1600, 320_000])
def test_chunks_cover_the_trials_in_bounded_memory(trial_bytes):
    for trials in (1, 2, 59, 60, 10_000):
        chunks = _chunks(trials, trial_bytes)
        assert [t for c in chunks for t in c] == list(range(trials))
        # a chunk's stacked arrays fit the bound, whatever trials is
        assert all(len(c) == 1 or len(c) * trial_bytes <= _CHUNK_BYTES
                   for c in chunks)


def test_moment_bounds_past_the_float_range_are_inf():
    # the exact values where they fit, and the expression the rows held
    jk, n, r_mu, m = 6, 16, 2.5, 128.0
    assert _moment_bounds(jk, n, r_mu, m) == (
        (jk ** (2 * jk)) * n * (n * r_mu ** 2 / m) ** jk,
        ((jk ** 6) * n * r_mu / m) ** jk)
    # j = 10, k = 8: jk^(2jk) alone is past the float range
    assert _moment_bounds(90, 16, 2.5, 128.0) == (math.inf, math.inf)
    # jk^(2jk) n past the range, times a small enough power to land inside
    # it: uniform_bounded at n = 64, r = 1 has r_mu = 1, so j = 41, k = 1 at
    # p = 1 asks for exactly this bound
    power, poly = _moment_bounds(82, 64, 1.0, 4096.0)
    assert poly == math.inf
    want = float(Fraction(82 ** 164 * 64) * Fraction(64 * 1.0 / 4096.0) ** 82)
    assert math.isfinite(power) and power == pytest.approx(want, rel=1e-15)


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
    for p in (0.0, 1.5):
        with pytest.raises(InvalidParameterError):
            estimate_trace_moment(gen, 8, 1, p, 1, 0, trials=5)
