"""Nuclear-norm completion by singular-value thresholding.

``complete`` runs the dual-ascent iteration

    X_k = shrink(Y_{k-1}, tau)
    Y_k = Y_{k-1} + delta * (P_Omega(M) - P_Omega(X_k))

with the classic working parameters tau = 5 * n * mean|observed| and
delta = step / p.  The 1/p scaling is tuned to sparse sampling; near the
stability edge the ascent can cycle instead of converging, so the loop
watches the feasibility residual and halves delta (restarting from the
best dual iterate seen) whenever progress stalls.  On instances where
the certificate machinery succeeds
the iterates converge to the planted matrix; on under- or adversarially
sampled instances they settle on (or wander around) some other matrix of
small nuclear norm, which is exactly what the phase experiments measure.

The threshold step never forms a full SVD: only the singular triplets
above tau survive it, so it takes one eigendecomposition of the Gram
matrix Y^T Y restricted to eigenvalues above tau^2 (sigma > tau) and
rebuilds the shrunk iterate from those right singular vectors.  The
eigendecomposition is a direct LAPACK ``dsyevr`` call, its workspace
queried once per size; the loop forms the residual in one preallocated
buffer, so an iteration costs little more than that call.  scipy, which
supplies that call, is reached by the first threshold step, so runs that
never solve do not load it; and that step loads only scipy's LAPACK
extension module, not the much larger ``scipy.linalg`` package.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericFailureError
from .sampling import SampleSet, project_omega


@dataclass
class SolverParams:
    """Knobs for ``complete``.

    step (finite, > 0) is the dual step scale (the realized step starts at
    step / p and halves automatically when the residual stalls); tolerances
    (finite, >= 0) are relative (feasibility against ||P_Omega M||_F,
    objective against the current nuclear value).  rank_cap (>= 1, or None for no cap) truncates
    every shrink to that many components; tau (finite, >= 0) overrides the
    automatic threshold.  The solver never raises on hitting max_iter; it
    reports converged=False instead.
    """

    step: float = 1.2
    tol_feas: float = 1e-6
    tol_obj: float = 1e-9
    max_iter: int = 3000
    rank_cap: int | None = None
    tau: float | None = None


@dataclass
class SolveResult:
    """Outcome of ``complete``; halvings counts how often the stall guard
    halved the dual step."""

    Xhat: np.ndarray
    iters: int
    feas_resid: float
    nuclear_value: float
    converged: bool
    halvings: int


def _flapack():
    """scipy's LAPACK extension module ``scipy.linalg._flapack``.

    The module already loaded is reused.  Otherwise only the top-level
    scipy package is imported (its init readies the bundled OpenBLAS) and
    the extension is loaded from its file under its own name, so a later
    ``import scipy.linalg`` adopts this very module.  Importing
    scipy.linalg itself would also load scipy's array-API layer with
    numpy.f2py, numpy.testing and numpy.ma, which the solver never uses:
    about half of a solving process's start-up.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    import scipy

    stem = os.path.join(scipy.__path__[0], "linalg", "_flapack")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((path for path in paths if os.path.exists(path)), None)
    if path is None:
        raise ImportError("scipy's LAPACK extension is missing: %s" % paths[0],
                          name=name, path=paths[0])
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


@functools.cache
def _syevr_workspace(n: int):
    """LAPACK ``dsyevr`` with its optimal (lwork, liwork) at order n, lower
    triangle.

    The routine is the very object scipy's ``get_lapack_funcs`` returns for
    float64, taken from ``_flapack()``; the sizes are the ones scipy's
    ``eigh`` wrapper asks for.  The workspace size picks the blocked or
    unblocked tridiagonal reduction, so other sizes would change the bits
    of the result.
    """
    lapack = _flapack()
    work, iwork, info = lapack.dsyevr_lwork(n, lower=1)
    if info != 0:
        raise NumericFailureError("dsyevr workspace query failed (info=%d)" % info)
    return lapack.dsyevr, int(work), int(iwork)


def _threshold(Y, tau: float, rank_cap: int | None):
    """Soft-threshold the singular values of Y by tau, keeping at most
    rank_cap of them; returns the result and the shrunk singular values
    of the kept components, largest first.

    The kernel is one eigendecomposition of the Gram matrix Y^T Y
    restricted to eigenvalues above tau^2, i.e. to sigma > tau: with V the
    right singular vectors of the kept sigma, the result is
    (Y V) diag((sigma - tau) / sigma) V^T = U diag(sigma - tau) V^T.
    It is a direct ``dsyevr`` call (workspace queried once per size) with
    the arguments scipy's ``eigh(G, subset_by_value=(tau^2, inf),
    driver="evr")`` passes, so the output is bit-for-bit that route's.
    """
    n = Y.shape[1]
    if n == 0:  # dsyevr refuses order 0
        return np.zeros(Y.shape), np.zeros(0)
    vl = tau * tau
    if not vl < np.inf:
        raise InvalidParameterError("tau must be finite, got %r" % tau)
    G = Y.T @ Y
    if not np.isfinite(G).all():
        raise InvalidParameterError("cannot threshold a matrix with non-finite entries")
    syevr, lwork, liwork = _syevr_workspace(n)
    w, V, k, _, info = syevr(G, compute_v=1, range="V", lower=1, vl=vl, vu=np.inf,
                             lwork=lwork, liwork=liwork)
    if info != 0:
        raise NumericFailureError("dsyevr failed (info=%d)" % info)
    lam, V = w[:k][::-1], V[:, :k][:, ::-1]
    if rank_cap is not None:
        lam, V = lam[:rank_cap], V[:, :rank_cap]
    sigma = np.sqrt(lam)
    s = np.maximum(sigma - tau, 0.0)  # sqrt may round to just below tau
    return ((Y @ V) * (s / sigma)) @ V.T, s


def shrink(X, tau: float) -> np.ndarray:
    """Soft-threshold the singular values of X by tau (the proximal map of
    tau * nuclear norm)."""
    if tau < 0:
        raise InvalidParameterError("tau must be >= 0")
    return _threshold(np.asarray(X, dtype=float), tau, None)[0]


def complete(S: SampleSet, observed, params: SolverParams | None = None) -> SolveResult:
    """Minimize the nuclear norm subject to agreeing with ``observed`` on
    the sample set.  Entries of ``observed`` off the sample set are ignored;
    a non-finite entry on it raises ``InvalidParameterError``.
    """
    if params is None:
        params = SolverParams()
    if params.max_iter < 1:
        raise InvalidParameterError("max_iter must be >= 1")
    if not 0.0 < params.step < np.inf:  # NaN fails it too
        raise InvalidParameterError("step must be finite and > 0, got %r"
                                    % (params.step,))
    for name in ("tol_feas", "tol_obj"):
        if not 0.0 <= getattr(params, name) < np.inf:
            raise InvalidParameterError("%s must be finite and >= 0, got %r"
                                        % (name, getattr(params, name)))
    if params.tau is not None and not (0.0 <= params.tau < np.inf):
        raise InvalidParameterError("tau must be finite and >= 0, got %r" % (params.tau,))
    if params.rank_cap is not None and params.rank_cap < 1:
        raise InvalidParameterError("rank_cap must be >= 1, got %r" % (params.rank_cap,))
    observed = np.asarray(observed, dtype=float)
    if observed.shape != (S.n1, S.n2):
        raise InvalidParameterError(
            "observed shape %r does not match grid (%d, %d)"
            % (observed.shape, S.n1, S.n2)
        )

    if S.size == 0:
        # unconstrained: the zero matrix is the exact minimizer
        return SolveResult(Xhat=np.zeros((S.n1, S.n2)), iters=0, feas_resid=0.0,
                           nuclear_value=0.0, converged=True, halvings=0)
    if not (0.0 < S.p <= 1.0):
        # the dual step is step / p
        raise InvalidParameterError("p must lie in (0, 1], got %r" % (S.p,))

    m_obs = project_omega(observed, S)
    if not np.isfinite(m_obs).all():
        raise InvalidParameterError("observed entries on the sample set must be finite")
    obs_scale = float(np.linalg.norm(m_obs))
    if obs_scale == 0.0:
        return SolveResult(Xhat=np.zeros((S.n1, S.n2)), iters=0, feas_resid=0.0,
                           nuclear_value=0.0, converged=True, halvings=0)

    n = max(S.n1, S.n2)
    tau = params.tau
    if tau is None:
        tau = 5.0 * n * float(np.mean(np.abs(m_obs[S.mask])))
    delta = params.step / S.p

    # skip the flat ramp-up phase: the first shrink is a no-op until
    # ||Y||_2 exceeds tau
    top = float(np.linalg.svd(m_obs, compute_uv=False)[0])
    k0 = int(np.ceil(tau / (delta * top))) if top > 0 else 1
    Y = k0 * delta * m_obs

    X = np.zeros((S.n1, S.n2))
    resid = np.empty_like(m_obs)
    nuc_prev = None
    nuc = 0.0
    feas = np.inf
    converged = False
    iters = 0
    best_feas = np.inf
    best_Y = Y.copy()
    stall = 0
    halvings = 0
    for iters in range(1, params.max_iter + 1):
        X, s = _threshold(Y, tau, params.rank_cap)
        nuc = float(np.sum(s))
        # P_Omega(X) - m_obs, in place: m_obs is zero off Omega
        np.subtract(X, m_obs, out=resid)
        resid *= S.mask
        feas = float(np.linalg.norm(resid))
        exploded = not np.isfinite(feas) or feas > 1e12 * (obs_scale + 1.0)
        if feas < best_feas * (1.0 - 1e-3):
            best_feas = feas
            np.copyto(best_Y, Y)
            stall = 0
        else:
            stall += 1
        if exploded or stall >= 100:
            if halvings >= 6:
                break  # step exhausted; report the best-effort iterate
            delta *= 0.5
            halvings += 1
            stall = 0
            nuc_prev = None
            np.copyto(Y, best_Y)
            continue
        obj_ok = nuc_prev is not None and abs(nuc - nuc_prev) <= params.tol_obj * max(1.0, nuc)
        if feas <= params.tol_feas * obs_scale and obj_ok:
            converged = True
            break
        nuc_prev = nuc
        resid *= delta
        Y -= resid
    return SolveResult(Xhat=X, iters=iters, feas_resid=feas,
                       nuclear_value=nuc, converged=converged, halvings=halvings)


def recovered(M, Xhat, tol: float = 1e-4) -> tuple[bool, float]:
    """Relative Frobenius error test: (relerr <= tol, relerr)."""
    M = np.asarray(M, dtype=float)
    Xhat = np.asarray(Xhat, dtype=float)
    if M.shape != Xhat.shape:
        raise InvalidParameterError("shape mismatch %r vs %r" % (M.shape, Xhat.shape))
    scale = float(np.linalg.norm(M))
    relerr = float(np.linalg.norm(Xhat - M)) / (scale if scale > 0 else 1.0)
    return relerr <= tol, relerr
