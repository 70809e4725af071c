"""Acceptance gate: ten checks, one printed pass/fail line each.

Each check pins its tolerances and instance parameters; together they
cover the exact operator algebra, the certificate machinery's two routes,
recovery at the theorem scaling and at the information floor, the block
coverage law, sampling-model equivalence, incoherence statistics, trace
moments, and byte-level determinism of the experiment harness.
"""

import math
import os
import time

import numpy as np

from mclab.certificate import (
    build_certificate_cg,
    build_certificate_neumann,
    check_pt_expansion,
    estimate_trace_moment,
    neumann_coeffs,
)
from mclab.experiments import (
    ExperimentConfig,
    rows_to_csv,
    run,
)
from mclab.geometry import check_cancellation, incoherence
from mclab.linalg import Rng
from mclab.models import gen_random_orthogonal, gen_uniformly_bounded, hadamard_family
from mclab.sampling import sample_bernoulli, q_omega

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "phase_2x2.csv")


def _report(num: int, ok: bool, detail: str):
    print("ACCEPTANCE %02d: %s  [%s]" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_acceptance_01_identity_suite():
    t0 = time.perf_counter()
    tol = 1e-10
    worst = 0.0
    rng_sizes = Rng(1001, 0).gen
    for t in range(50):
        n = int(rng_sizes.integers(8, 33))
        r = int(rng_sizes.integers(1, min(4, n // 2) + 1))
        gt = gen_random_orthogonal(n, r, Rng(1002, 2 * t))
        T = gt.tangent_space()
        X = Rng(1003, t).gen.standard_normal((n, n))
        X /= np.linalg.norm(X)

        ptx = T.apply_pt(X)
        worst = max(worst, np.linalg.norm(T.apply_pt(ptx) - ptx))          # idempotence
        worst = max(worst, np.linalg.norm(ptx + T.apply_ptperp(X) - X))    # resolution of I
        worst = max(worst, np.linalg.norm(T.pu @ T.e - T.e))               # P_U E = E
        worst = max(worst, np.linalg.norm(T.e @ T.pv - T.e))               # E P_V = E
        worst = max(worst, np.linalg.norm(T.e.T @ T.e - T.pv))             # E^T E = P_V
        worst = max(worst, np.linalg.norm(T.e @ T.e.T - T.pu))             # E E^T = P_U
        worst = max(worst, abs(np.linalg.norm(T.e) ** 2 - r))              # ||E||_F^2 = r
        worst = max(worst, check_cancellation(T, tol=tol).max_violation)

        p = float(Rng(1004, t).gen.uniform(0.3, 0.9))
        S = sample_bernoulli(n, p, Rng(1005, t))
        qx = q_omega(X, S)
        lhs = q_omega(qx, S)
        rhs = ((1 - 2 * p) * qx + (1 - p) * X) / p
        worst = max(worst, np.linalg.norm(lhs - rhs))                      # Q_Om^2

        rho_p = 2 * T.rho - T.rho ** 2
        qtx = T.apply_qt(X)
        lhs = T.apply_qt(qtx)
        rhs = (1 - 2 * rho_p) * qtx + rho_p * (1 - rho_p) * X
        worst = max(worst, np.linalg.norm(lhs - rhs))                      # Q_T^2
    dt = time.perf_counter() - t0
    _report(1, worst <= tol and dt < 10.0,
            "identity suite, 50 spaces, worst %.2e <= 1e-10, %.1fs < 10s" % (worst, dt))


def test_acceptance_02_expansion_and_coefficient_bounds():
    t0 = time.perf_counter()
    worst_disc = 0.0
    for t in range(20):
        gt = gen_random_orthogonal(24, 2, Rng(1010, 2 * t))
        T = gt.tangent_space()
        p = float(Rng(1011, t).gen.uniform(0.35, 0.85))
        S = sample_bernoulli(24, p, Rng(1010, 2 * t + 1))
        for k in (1, 2, 3):
            worst_disc = max(worst_disc, check_pt_expansion(T, S, k, rng=Rng(1012, 3 * t + k)))
    worst_ratio = 0.0
    for rho_p in (0.05, 0.15, 0.3, 0.5, 0.8):
        for p in (0.2, 0.35, 0.5, 0.75, 0.95):
            lam = rho_p / p
            for k in range(7):
                co = neumann_coeffs(k, rho_p, p)
                for arr, off in ((co.alpha, 0), (co.beta, 0), (co.gamma, 0), (co.delta, 0)):
                    for j, c in enumerate(arr):
                        cap = lam ** math.ceil((k - j) / 2.0) * 4.0 ** k
                        worst_ratio = max(worst_ratio, abs(c) / cap)
    dt = time.perf_counter() - t0
    ok = worst_disc <= 1e-8 and worst_ratio <= 1.0 + 1e-12 and dt < 60.0
    _report(2, ok, "expansion disc %.2e <= 1e-8, coeff/bound %.3f <= 1, %.1fs < 60s"
            % (worst_disc, worst_ratio, dt))


def test_acceptance_03_certificate_cross_method():
    # the check conditions on a_stat < 1/2, so draws above it are skipped
    # until 20 eligible instances have been compared
    t0 = time.perf_counter()
    worst = 0.0
    kept = 0
    for t in range(60):
        if kept == 20:
            break
        gt = gen_random_orthogonal(64, 2, Rng(1020, 2 * t))
        T = gt.tangent_space()
        S = sample_bernoulli(64, 0.85, Rng(1020, 2 * t + 1))
        rc = build_certificate_cg(T, S)
        if rc.a_stat >= 0.5:
            continue
        rn = build_certificate_neumann(T, S)
        worst = max(worst, float(np.linalg.norm(rn.Y - rc.Y)))
        kept += 1
    dt = time.perf_counter() - t0
    ok = kept == 20 and worst <= 1e-6 and dt < 60.0
    _report(3, ok, "%d/20 eligible instances, ||Y_neu - Y_cg|| %.2e <= 1e-6, %.1fs < 60s"
            % (kept, worst, dt))


def test_acceptance_04_recovery_at_theorem_scaling():
    t0 = time.perf_counter()
    n, r = 48, 2
    m = math.ceil(10 * n * r * math.log10(n))
    base = dict(n_grid=(n,), r_grid=(r,), m_grid=(m,), model="random_orth",
                trials=50, seed=7)
    ph = run(ExperimentConfig(kind="phase", **base))[0]
    ce = run(ExperimentConfig(kind="cert", **base))[0]
    # shared streams make the runs paired; a certified trial that failed
    # recovery would force the counts apart by more than the 2% slack
    implied = (ce.successes - (ph.trials - ph.successes)) / max(ce.successes, 1)
    dt = time.perf_counter() - t0
    ok = (ph.success_rate >= 0.90 and ce.success_rate >= 0.90
          and implied >= 0.98 and dt < 600.0)
    _report(4, ok, "m=%d: recovery %.2f >= 0.90, certificates %.2f >= 0.90, "
            "certified->recovered >= %.2f, %.0fs < 600s"
            % (m, ph.success_rate, ce.success_rate, implied, dt))


def test_acceptance_05_information_floor():
    t0 = time.perf_counter()
    n, r = 48, 2
    m = 2 * n * r - r * r - 5
    cfg = ExperimentConfig(kind="phase", n_grid=(n,), r_grid=(r,), m_grid=(m,),
                           model="random_orth", trials=50, seed=7)
    row = run(cfg)[0]
    dt = time.perf_counter() - t0
    ok = row.success_rate <= 0.05 and dt < 300.0
    _report(5, ok, "m=%d below dim T: recovery %.2f <= 0.05, %.0fs < 300s"
            % (m, row.success_rate, dt))


def test_acceptance_06_block_coverage_law():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="lower", n_grid=(40,), r_grid=(2,),
                           mu0_grid=(2.0,), p_grid=(0.2,), trials=10_000,
                           seed=31, model="block")
    row = run(cfg)[0]
    diff = abs(row.prob_empirical - row.prob_closed)
    dt = time.perf_counter() - t0
    ok = diff <= 0.03 and dt < 30.0
    _report(6, ok, "empirical %.4f vs closed %.4f, |diff| %.4f <= 0.03, %.1fs < 30s"
            % (row.prob_empirical, row.prob_closed, diff, dt))


def test_acceptance_07_model_equivalence():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="equiv", n_grid=(32,), r_grid=(1,),
                           m_grid=(194,), model="random_orth", trials=400,
                           seed=41, equiv_p="2m")
    row = run(cfg)[0]
    rhs = 2.0 * row.fail_ber + 3.0 * row.se_pooled
    dt = time.perf_counter() - t0
    ok = row.fail_unif <= rhs and dt < 600.0
    _report(7, ok, "fail_unif %.3f <= 2*%.3f + 3*%.3f = %.3f, %.0fs < 600s"
            % (row.fail_unif, row.fail_ber, row.se_pooled, rhs, dt))


def test_acceptance_08_incoherence_statistics():
    t0 = time.perf_counter()
    n, r = 128, 4
    cap = 3.0 * math.log(n)
    hits = 0
    for t in range(200):
        inc = incoherence(gen_random_orthogonal(n, r, Rng(1080, t)).tangent_space())
        if max(inc.mu1, inc.mu2) <= cap:
            hits += 1
    fam = hadamard_family(n)
    mu2_off = incoherence(
        gen_uniformly_bounded(fam, r, Rng(1081, 0), coupled=True,
                              random_signs=False).tangent_space()).mu2
    mu2_on = [incoherence(
        gen_uniformly_bounded(fam, r, Rng(1081, 1 + t), coupled=True,
                              random_signs=True).tangent_space()).mu2
        for t in range(20)]
    med_on = float(np.median(mu2_on))
    sign_cap = 4.0 * math.sqrt(math.log(n))
    dt = time.perf_counter() - t0
    ok = (hits >= 198 and mu2_off >= math.sqrt(r) * (1 - 1e-9)
          and med_on <= sign_cap and dt < 120.0)
    _report(8, ok, "mu <= 3 ln n in %d/200 (>=198), sign flips: %.2f -> median %.2f <= %.2f, %.0fs < 120s"
            % (hits, mu2_off, med_on, sign_cap, dt))


def test_acceptance_09_trace_moments():
    t0 = time.perf_counter()

    def gen(n, r, rng):
        return gen_random_orthogonal(n, r, rng)

    # closed-form cell pinned away from p=1/2, where (b/p - 1)^2 collapses
    # to a constant and the Monte-Carlo spread degenerates
    est = estimate_trace_moment(gen, 24, 2, 0.25, 1, 0, trials=200, rng=Rng(1090, 0))
    cf = (1 - 0.25) * 2 / 0.25
    closed_ok = abs(est.mean - cf) <= 3 * est.stderr

    worst = 0.0
    for n in (16, 32):
        for j in (1, 2):
            for k in (0, 1, 2):
                e = estimate_trace_moment(gen, n, 1, 0.5, j, k, trials=60,
                                          rng=Rng(1091, n * 100 + j * 10 + k))
                worst = max(worst, e.mean / e.bound_poly)
    dt = time.perf_counter() - t0
    ok = closed_ok and worst <= 10.0 and dt < 300.0
    _report(9, ok, "closed form |%.3f - %.3f| <= 3se, grid max mean/bound %.2e <= 10, %.0fs < 300s"
            % (est.mean, cf, worst, dt))


def test_acceptance_10_golden_csv():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="phase", n_grid=(12, 16), r_grid=(1,),
                           m_grid=(80, 140), model="random_orth", trials=5,
                           seed=101)
    text = rows_to_csv(run(cfg))
    with open(GOLDEN) as fh:
        golden = fh.read()
    dt = time.perf_counter() - t0
    ok = text == golden
    _report(10, ok, "2x2 phase sweep reproduces committed golden CSV byte for byte, %.1fs" % dt)
