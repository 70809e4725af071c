"""Singular-value shrinkage and the completion loop."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from mclab import linalg, solver
from mclab.errors import InvalidParameterError
from mclab.linalg import Rng
from mclab.models import block_model_spec, gen_lower_bound_block, gen_random_orthogonal
from mclab.sampling import SampleSet, project_omega, sample_bernoulli, sample_uniform
from mclab.solver import SolveResult, SolverParams, _threshold, complete, recovered, shrink


def _svd_shrink(X, tau, rank_cap=None):
    # the definition: U max(s - tau, 0) V^T from a dense SVD
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    if rank_cap is not None:
        s[rank_cap:] = 0.0
    return (U * s) @ Vt


def _with_spectrum(n1, n2, s, seed):
    # Q1 diag(s) Q2^T with Haar factors: prescribed (possibly repeated or
    # zero) singular values
    gen = np.random.default_rng(seed)
    Q1, _ = np.linalg.qr(gen.standard_normal((n1, len(s))))
    Q2, _ = np.linalg.qr(gen.standard_normal((n2, len(s))))
    return (Q1 * np.asarray(s, dtype=float)) @ Q2.T


_KERNEL_INPUTS = {
    "tall": np.random.default_rng(10).standard_normal((12, 7)),
    "wide": np.random.default_rng(11).standard_normal((7, 12)),
    "rank_deficient": _with_spectrum(10, 10, [4.0, 2.5, 1.5], 12),
    "repeated": _with_spectrum(9, 8, [3.0, 3.0, 3.0, 1.0, 1.0, 0.5], 13),
}


def _eigh_threshold(Y, tau, rank_cap):
    # the threshold step through scipy's eigh wrapper, the route the
    # direct dsyevr call replaces
    lam, V = scipy.linalg.eigh(Y.T @ Y, subset_by_value=(tau * tau, np.inf),
                               driver="evr")
    lam, V = lam[::-1], V[:, ::-1]
    if rank_cap is not None:
        lam, V = lam[:rank_cap], V[:, :rank_cap]
    sigma = np.sqrt(lam)
    s = np.maximum(sigma - tau, 0.0)
    return ((Y @ V) * (s / sigma)) @ V.T, s


def _reference_complete(S, observed, params):
    # the completion loop as it was before the in-place residual: eigh
    # threshold, project_omega on every iteration, fresh copies of the
    # best dual iterate
    m_obs = project_omega(observed, S)
    obs_scale = float(np.linalg.norm(m_obs))
    n = max(S.n1, S.n2)
    tau = 5.0 * n * float(np.mean(np.abs(m_obs[S.mask])))
    delta = params.step / S.p
    top = float(np.linalg.svd(m_obs, compute_uv=False)[0])
    Y = int(np.ceil(tau / (delta * top))) * delta * m_obs
    nuc_prev, converged = None, False
    best_feas, best_Y, stall, halvings = np.inf, Y.copy(), 0, 0
    for iters in range(1, params.max_iter + 1):
        X, s = _eigh_threshold(Y, tau, params.rank_cap)
        nuc = float(np.sum(s))
        resid = project_omega(X, S) - m_obs
        feas = float(np.linalg.norm(resid))
        exploded = not np.isfinite(feas) or feas > 1e12 * (obs_scale + 1.0)
        if feas < best_feas * (1.0 - 1e-3):
            best_feas, best_Y, stall = feas, Y.copy(), 0
        else:
            stall += 1
        if exploded or stall >= 100:
            if halvings >= 6:
                break
            delta *= 0.5
            halvings += 1
            stall = 0
            nuc_prev = None
            Y = best_Y.copy()
            continue
        obj_ok = nuc_prev is not None and abs(nuc - nuc_prev) <= params.tol_obj * max(1.0, nuc)
        if feas <= params.tol_feas * obs_scale and obj_ok:
            converged = True
            break
        nuc_prev = nuc
        Y -= delta * resid
    return SolveResult(Xhat=X, iters=iters, feas_resid=feas, nuclear_value=nuc,
                       converged=converged, halvings=halvings)


def _full(n):
    rows, cols = np.nonzero(np.ones((n, n), dtype=bool))
    return SampleSet(n1=n, n2=n, rows=rows, cols=cols, model="bernoulli",
                     p=1.0, m_nominal=n * n)


# --------------------------------------------------------------- shrink

def test_shrink_zero_threshold_is_identity():
    X = np.random.default_rng(0).standard_normal((9, 7))
    np.testing.assert_allclose(shrink(X, 0.0), X, atol=1e-10)


def test_shrink_kills_everything_past_top_singular_value():
    X = np.random.default_rng(1).standard_normal((8, 8))
    top = np.linalg.svd(X, compute_uv=False)[0]
    np.testing.assert_allclose(shrink(X, top * 1.0001), 0.0, atol=1e-12)


def test_shrink_rejects_negative_threshold():
    with pytest.raises(InvalidParameterError):
        shrink(np.eye(3), -0.1)


def test_shrink_soft_thresholds_spectrum():
    gen = np.random.default_rng(2)
    X = gen.standard_normal((10, 6))
    s = np.linalg.svd(X, compute_uv=False)
    tau = float(s[2])  # lands inside the spectrum
    out = np.linalg.svd(shrink(X, tau), compute_uv=False)
    np.testing.assert_allclose(out, np.maximum(s - tau, 0.0), atol=1e-10)


@pytest.mark.parametrize("name", sorted(_KERNEL_INPUTS))
def test_shrink_matches_svd_definition(name):
    X = _KERNEL_INPUTS[name]
    s = np.linalg.svd(X, compute_uv=False)
    # tau = 0, then tau inside the spectrum, between the top two distinct
    # singular values (for "repeated", tau = 2 keeps the triple value 3)
    s_distinct = np.unique(np.round(s, 12))[::-1]
    for tau in (0.0, 0.5 * (s_distinct[0] + s_distinct[1])):
        np.testing.assert_allclose(shrink(X, tau), _svd_shrink(X, tau), atol=1e-10)


@pytest.mark.parametrize("name", sorted(_KERNEL_INPUTS))
def test_shrink_past_top_singular_value_is_exactly_zero(name):
    X = _KERNEL_INPUTS[name]
    top = np.linalg.svd(X, compute_uv=False)[0]
    for tau in (top * (1 + 1e-9), 2.0 * top):
        out = shrink(X, tau)
        assert out.shape == X.shape
        np.testing.assert_array_equal(out, 0.0)


def test_shrink_refuses_non_finite_input():
    for bad in (np.nan, np.inf):
        X = np.ones((5, 4))
        X[2, 1] = bad
        with pytest.raises(ValueError):
            shrink(X, 0.5)
    for tau in (np.nan, np.inf):
        with pytest.raises(InvalidParameterError):
            shrink(np.ones((5, 4)), tau)


@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
def test_shrink_of_an_empty_matrix_is_empty(shape):
    # dsyevr refuses order 0, so zero columns never reach it
    for tau in (0.0, 1.0):
        out = shrink(np.zeros(shape), tau)
        assert out.shape == shape
    out, kept = _threshold(np.zeros(shape), 1.0, None)
    assert out.shape == shape and kept.shape == (0,)


@pytest.mark.parametrize("name", sorted(_KERNEL_INPUTS))
def test_threshold_is_bit_identical_to_eigh_route(name):
    X = _KERNEL_INPUTS[name]
    s = np.linalg.svd(X, compute_uv=False)
    for tau in (0.0, float(s[1]) * 0.99, float(s[0]) * 2.0):
        for cap in (None, 1):
            out, kept = _threshold(X, tau, cap)
            ref, ref_kept = _eigh_threshold(X, tau, cap)
            np.testing.assert_array_equal(out, ref)
            np.testing.assert_array_equal(kept, ref_kept)


def test_threshold_reuses_the_dsyevr_of_a_loaded_scipy_linalg():
    # this module imports scipy.linalg before any solve runs
    assert linalg._flapack().dsyevr is scipy.linalg.get_lapack_funcs(("syevr",))[0]


_SOLVE_THEN_IMPORT_PROBE = """
import sys
import numpy as np
from mclab.linalg import _flapack
from mclab.solver import _threshold
Y = np.random.default_rng(10).standard_normal((12, 7))
tau = 0.99 * float(np.linalg.svd(Y, compute_uv=False)[1])
out, kept = _threshold(Y, tau, None)
assert "scipy.linalg" not in sys.modules, "the threshold step loaded it"
import scipy.linalg
assert _flapack().dsyevr is scipy.linalg.get_lapack_funcs(("syevr",))[0]
lam, V = scipy.linalg.eigh(Y.T @ Y, subset_by_value=(tau * tau, np.inf), driver="evr")
lam, V = lam[::-1], V[:, ::-1]
sigma = np.sqrt(lam)
s = np.maximum(sigma - tau, 0.0)
np.testing.assert_array_equal(out, ((Y @ V) * (s / sigma)) @ V.T)
np.testing.assert_array_equal(kept, s)
"""


def test_scipy_linalg_imported_after_a_solve_adopts_its_dsyevr():
    src = str(Path(solver.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _SOLVE_THEN_IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_missing_lapack_extension_names_its_path(tmp_path, monkeypatch):
    fake = types.ModuleType("scipy")
    fake.__path__ = [str(tmp_path)]
    monkeypatch.setitem(sys.modules, "scipy", fake)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg" / "_flapack"))):
        linalg._flapack()


def test_threshold_applies_rank_cap_and_returns_kept_values():
    X = np.random.default_rng(14).standard_normal((10, 8))
    s = np.linalg.svd(X, compute_uv=False)
    tau = float(s[5])  # five singular values above tau
    out, kept = _threshold(X, tau, 2)
    np.testing.assert_allclose(out, _svd_shrink(X, tau, rank_cap=2), atol=1e-10)
    np.testing.assert_allclose(kept, s[:2] - tau, atol=1e-10)
    # a cap above the count of sigma > tau changes nothing
    out, kept = _threshold(X, tau, 7)
    np.testing.assert_allclose(out, _svd_shrink(X, tau), atol=1e-10)
    np.testing.assert_allclose(kept, s[:5] - tau, atol=1e-10)


def test_shrink_is_the_nuclear_prox():
    # shrink(X, tau) minimizes 0.5 ||Z - X||_F^2 + tau ||Z||_*; random
    # perturbations of the output can only raise the objective
    gen = np.random.default_rng(3)
    X = gen.standard_normal((7, 7))
    tau = 0.8
    Z0 = shrink(X, tau)
    f0 = 0.5 * np.linalg.norm(Z0 - X) ** 2 + tau * np.linalg.svd(Z0, compute_uv=False).sum()
    for _ in range(100):
        Z = Z0 + 0.3 * gen.standard_normal((7, 7))
        f = 0.5 * np.linalg.norm(Z - X) ** 2 + tau * np.linalg.svd(Z, compute_uv=False).sum()
        assert f >= f0 - 1e-10


# -------------------------------------------------------------- complete

def test_complete_full_observation_is_exact():
    gt = gen_random_orthogonal(12, 2, Rng(20, 0))
    res = complete(_full(12), gt.M)
    assert res.converged
    ok, relerr = recovered(gt.M, res.Xhat)
    assert ok and relerr <= 1e-5


def test_complete_empty_and_zero_inputs_short_circuit():
    empty = SampleSet(n1=6, n2=6, rows=np.array([], dtype=int),
                      cols=np.array([], dtype=int), model="bernoulli",
                      p=0.0, m_nominal=0)
    res = complete(empty, np.ones((6, 6)))
    assert res.iters == 0 and res.converged
    np.testing.assert_array_equal(res.Xhat, 0.0)
    S = sample_bernoulli(6, 0.5, Rng(21, 0))
    res = complete(S, np.zeros((6, 6)))
    assert res.iters == 0 and res.nuclear_value == 0.0


@pytest.mark.parametrize("p", [0.0, 2.0, np.nan], ids=repr)
def test_complete_refuses_a_bad_p_on_a_nonempty_set_even_with_zero_data(p):
    # the p check comes before the all-zero short cut; a wrapped mask skips
    # the constructor's own check
    S = sample_bernoulli(6, 0.5, Rng(21, 0))
    bad = SampleSet._of_mask(S.mask, S.model, p, S.m_nominal)
    for observed in (np.zeros((6, 6)), np.ones((6, 6))):
        with pytest.raises(InvalidParameterError, match=r"p must lie in \(0, 1\]"):
            complete(bad, observed)


def test_complete_validates_inputs():
    S = sample_bernoulli(6, 0.5, Rng(22, 0))
    with pytest.raises(InvalidParameterError):
        complete(S, np.ones((5, 6)))
    with pytest.raises(InvalidParameterError):
        complete(S, np.ones((6, 6)), SolverParams(max_iter=0))
    with pytest.raises(InvalidParameterError):
        complete(S, np.ones((6, 6)), SolverParams(step=0.0))


@pytest.mark.parametrize("knobs", [
    dict(tau=-5.0), dict(tau=-1e-300), dict(tau=np.nan), dict(tau=np.inf),
    dict(tau=-np.inf), dict(rank_cap=0), dict(rank_cap=-1),
    dict(step=np.nan), dict(step=np.inf), dict(tol_feas=np.nan),
    dict(tol_feas=-1e-6), dict(tol_feas=np.inf), dict(tol_obj=np.nan),
    dict(tol_obj=-1e-9),
], ids=repr)
def test_complete_rejects_invalid_tau_and_rank_cap(monkeypatch, knobs):
    # unchecked, tau < 0 and rank_cap = 0 give Xhat = 0 without an error,
    # rank_cap = -1 drops the smallest kept component (lam[:-1]), step = nan
    # raised ValueError and tol_feas = nan ran to max_iter
    def no_step(*args, **kwargs):
        raise AssertionError("an iteration ran before the knobs were refused")

    monkeypatch.setattr("mclab.solver._threshold", no_step)
    gt = gen_random_orthogonal(12, 1, Rng(24, 0))
    S = sample_bernoulli(12, 0.6, Rng(24, 1))
    with pytest.raises(InvalidParameterError):
        complete(S, gt.M, SolverParams(**knobs))


def test_complete_ignores_entries_off_the_sample_set():
    gt = gen_random_orthogonal(10, 1, Rng(23, 0))
    S = sample_bernoulli(10, 0.8, Rng(23, 1))
    noisy = gt.M.copy()
    noisy[~S.mask] = 1e6  # must not leak into the solve
    res = complete(S, noisy)
    ok, _ = recovered(gt.M, res.Xhat, tol=1e-3)
    assert ok


def test_complete_rejects_non_finite_observed_entries():
    gt = gen_random_orthogonal(10, 1, Rng(25, 0))
    S = sample_bernoulli(10, 0.6, Rng(25, 1))
    i, j = S.rows[0], S.cols[0]
    for bad in (np.nan, np.inf, -np.inf):
        obs = gt.M.copy()
        obs[i, j] = bad
        with pytest.raises(InvalidParameterError):
            complete(S, obs)
    # off the sample set a NaN is ignored like any other value
    obs = gt.M.copy()
    obs[~S.mask] = np.nan
    assert np.all(np.isfinite(complete(S, obs, SolverParams(max_iter=5)).Xhat))


def test_complete_hits_iteration_cap_without_raising():
    gt = gen_random_orthogonal(12, 2, Rng(24, 0))
    S = sample_bernoulli(12, 0.6, Rng(24, 1))
    res = complete(S, gt.M, SolverParams(max_iter=3))
    assert res.iters == 3 and not res.converged
    assert np.all(np.isfinite(res.Xhat))


def test_complete_matches_long_run_reference():
    # default-parameter solve against a much longer, tighter run of the
    # same iteration; the draw is pinned to one where the dual certificate
    # verifies, so the planted matrix is the unique optimum and both runs
    # must land on it
    n, r = 16, 1
    gt = gen_random_orthogonal(n, r, Rng(40, 0))
    m = int(0.6 * n * n)
    S = sample_uniform(n, m, Rng(40, 1))
    quick = complete(S, gt.M)
    assert quick.converged
    ref = complete(S, gt.M, SolverParams(tol_feas=1e-10, tol_obj=1e-13,
                                         max_iter=100_000))
    _, relerr = recovered(ref.Xhat, quick.Xhat)
    assert relerr <= 1e-4
    ok, relerr_m = recovered(gt.M, quick.Xhat)
    assert ok, relerr_m


def test_complete_recovers_generic_instance_with_certified_rate():
    gt = gen_random_orthogonal(20, 2, Rng(26, 0))
    S = sample_bernoulli(20, 0.75, Rng(26, 1))
    res = complete(S, gt.M)
    ok, relerr = recovered(gt.M, res.Xhat)
    assert ok, relerr
    # a converging solve never halves its step, and nuclear_value is the
    # nuclear norm of the returned iterate
    assert res.converged and res.halvings == 0
    nuc = np.linalg.svd(res.Xhat, compute_uv=False).sum()
    assert abs(res.nuclear_value - nuc) <= 1e-9 * nuc


def test_complete_counts_halvings_on_a_stalled_solve():
    # the model-equivalence cell (n=32, r=1, m=194): the ascent cycles and
    # the stall guard halves the step before the iteration cap
    gt = gen_random_orthogonal(32, 1, Rng(41, 0))
    S = sample_uniform(32, 194, Rng(41, 1))
    res = complete(S, gt.M)
    assert not res.converged and res.halvings > 0
    nuc = np.linalg.svd(res.Xhat, compute_uv=False).sum()
    assert abs(res.nuclear_value - nuc) <= 1e-9 * nuc


def test_complete_nuclear_value_never_beats_the_planted_matrix():
    # the planted matrix is feasible, so the minimizer's nuclear norm
    # cannot exceed it; on recovered instances they coincide
    gt = gen_random_orthogonal(20, 2, Rng(27, 0))
    S = sample_bernoulli(20, 0.75, Rng(27, 1))
    res = complete(S, gt.M, SolverParams(tol_feas=1e-8))
    nuc_m = np.linalg.svd(gt.M, compute_uv=False).sum()
    assert res.nuclear_value <= nuc_m * (1 + 1e-6)


def test_complete_fails_on_starved_block():
    # leave an entire block-row unobserved: nothing ties those rows to the
    # data, the minimizer zeroes them out
    bspec = block_model_spec(20, 2, 2.0)
    gt = gen_lower_bound_block(bspec, Rng(28, 0))
    lo, hi = bspec.blocks[0]
    row_lo, row_hi = lo * bspec.ell, hi * bspec.ell
    mask = np.random.default_rng(4).random((20, 20)) < 0.9
    mask[row_lo:row_hi, :] = False
    rows, cols = np.nonzero(mask)
    S = SampleSet(n1=20, n2=20, rows=rows, cols=cols, model="bernoulli",
                  p=0.9, m_nominal=rows.size)
    res = complete(S, gt.M)
    _, relerr = recovered(gt.M, res.Xhat)
    assert relerr >= 1e-2
    np.testing.assert_allclose(res.Xhat[row_lo:row_hi, :], 0.0, atol=1e-4)


@pytest.mark.parametrize("rank_cap", [None, 3], ids=["uncapped", "capped"])
@pytest.mark.parametrize("n,r,m,seed,converges", [
    (48, 2, 1614, 7, True),   # check-04 cell: the ascent converges
    (32, 1, 194, 41, False),  # check-07 cell: it stalls at the cap
], ids=["check04", "check07"])
def test_complete_is_bit_identical_to_eigh_route(n, r, m, seed, converges, rank_cap):
    gt = gen_random_orthogonal(n, r, Rng(seed, 0))
    S = sample_uniform(n, m, Rng(seed, 1))
    params = SolverParams(rank_cap=rank_cap)
    res = complete(S, gt.M, params)
    ref = _reference_complete(S, gt.M, params)
    assert res.converged == ref.converged == converges
    np.testing.assert_array_equal(res.Xhat, ref.Xhat)
    assert (res.iters, res.feas_resid, res.nuclear_value, res.halvings) == \
        (ref.iters, ref.feas_resid, ref.nuclear_value, ref.halvings)


def test_rank_cap_and_tau_override_apply():
    gt = gen_random_orthogonal(14, 2, Rng(29, 0))
    S = sample_bernoulli(14, 0.8, Rng(29, 1))
    res = complete(S, gt.M, SolverParams(rank_cap=1, max_iter=200))
    assert np.linalg.matrix_rank(res.Xhat, tol=1e-8) <= 1
    # tau=0 turns shrink into the identity; the ascent then converges to
    # the zero-filled projection of the data, which proves the override
    # reaches the iteration
    res2 = complete(S, gt.M, SolverParams(tau=0.0))
    assert res2.converged
    np.testing.assert_allclose(res2.Xhat, project_omega(gt.M, S), atol=1e-5)


# ------------------------------------------------------------- recovered

def test_recovered_thresholds():
    M = np.ones((4, 4))
    ok, err = recovered(M, M)
    assert ok and err == 0.0
    ok, err = recovered(M, np.zeros((4, 4)))
    assert not ok and err == 1.0
    ok, err = recovered(np.zeros((4, 4)), np.zeros((4, 4)))
    assert ok and err == 0.0
    with pytest.raises(InvalidParameterError):
        recovered(np.ones((3, 3)), np.ones((4, 4)))
