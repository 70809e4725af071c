"""Dual certificates for nuclear-norm completion, and the operator
expansions used to analyze them.

A certificate for a tangent space T and observed set Omega is a matrix Y
supported on Omega with P_T(Y) equal to the sign pattern E and
||P_Tperp(Y)|| < 1; together with injectivity of the sampling operator on
T these conditions force the planted matrix to be the unique minimizer of
the nuclear norm over its observed entries.

The central scalar is the deviation statistic

    a = (1/p) ||P_T P_Omega P_T - p P_T|| = ||P_T Q_Omega P_T||,

which is automatically >= 1 whenever |Omega| < dim T.  When a < 1 the
normal operator is invertible on T and the canonical candidate

    Y = P_Omega P_T (P_T P_Omega P_T)^{-1} E

can be built either through its Neumann series
Y = (1/p) P_Omega( sum_k (-1)^k (P_T Q_Omega P_T)^k E ) or by conjugate
gradients on T.  Among all Omega-supported Z with P_T P_Omega(Z) = E this
Y has the smallest Frobenius norm, and ||Y||_F^2 = r + ||P_Tperp Y||_F^2.

The engine works in the orthonormal coordinates of T (``TangentSpace.coords``
and its inverse ``TangentSpace.embed``, dimension 2nr - r^2).  There
P_T P_Omega P_T is the tangent Gram matrix G = ``TangentSpace.gram``, built
from its block structure, and E has coordinates [V; 0].  The two ends of
G's spectrum give the exact deviation statistic a = max |lam / p - 1|
and injectivity floor lam_min = min lam: one tridiagonal reduction of G
and a bisection for each end (``linalg.extreme_eigenvalues``), since
|lam / p - 1| is largest at one of them.  The Neumann
series iterates G / p - I and conjugate gradients solve G w = [V; 0], both
on vectors of length dim T.  Each finished certificate is then checked as
an n x n matrix, apart from the coordinates that built it.

decide() answers the question the certificate stands for -- is the
planted matrix the unique nuclear-norm minimizer? -- from one
eigendecomposition of the same matrix, with no a < 1 gate: it certifies
with the minimum-norm certificate and refutes with a null direction of
the sampling operator or a dual witness, and says "undecided" when none
of these settles it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DivergenceError,
    InjectivityError,
    InvalidParameterError,
)
from .geometry import TangentSpace, incoherence
from .linalg import Rng, extreme_eigenvalues, spectral_norm
from .sampling import (
    SampleSet,
    _bernoulli_masks,
    _chunks,
    _q_coef,
    project_omega,
    q_omega,
    sample_bernoulli,  # uncalled; kept for the tracer in perfbench/spans.py
)

# Summability threshold for transferring tangent-chain norm control to
# projection chains: if ||(Q_Om Q_T)^k Q_Om(E)|| <= sigma^((k+1)/2) with
# sigma below this value (and 8nr/m < sigma^(3/2)), then the projection
# chains obey ||(Q_Om P_T)^k Q_Om(E)|| <= (1 + 4^(k+1)) sigma^((k+1)/2).
TANGENT_TRANSFER_SIGMA0 = 1.0 / 576.0

_MAX_CHAIN_LEN = 8


def _check_grid(T: TangentSpace, S: SampleSet):
    if S.n1 != T.n or S.n2 != T.n:
        raise InvalidParameterError(
            "sample grid (%d, %d) does not match tangent space n=%d"
            % (S.n1, S.n2, T.n)
        )


def _check_pair(T: TangentSpace, S: SampleSet):
    _check_grid(T, S)
    if S.size == 0:
        raise InvalidParameterError("sample set is empty")
    if not 0.0 < S.p <= 1.0:  # NaN fails it too; a and the chains divide by p
        raise InvalidParameterError("p must lie in (0, 1], got %r" % (S.p,))


def _spectrum_edges(T: TangentSpace, S: SampleSet) -> tuple[np.ndarray, float, float]:
    """The tangent Gram matrix G, with (a, lam_min) from the two ends of its
    spectrum: |lam / p - 1| is convex in lam, so its maximum over the
    spectrum is taken at lam_min or lam_max."""
    _check_pair(T, S)
    G = T.gram(S.mask)
    lam_min, lam_max = extreme_eigenvalues(G)
    a = max(abs(lam_min / S.p - 1.0), abs(lam_max / S.p - 1.0))
    return G, a, lam_min


def _sign_coords(T: TangentSpace) -> np.ndarray:
    """Coordinates of E = U V^T: [V; 0], exactly."""
    e_t = np.zeros(T.dim)
    e_t[:T.n * T.r] = T.V.ravel()
    return e_t


def _refusal(cls, message: str, a: float, lam_min: float, **kw):
    """A builder's refusal, carrying the spectrum edges it computed as
    ``a_stat`` and ``lam_min`` so that no caller computes them again."""
    exc = cls(message, **kw)
    exc.a_stat, exc.lam_min = a, lam_min
    return exc


def _gate(T: TangentSpace, S: SampleSet, cls, what: str):
    """The builders' entry check: the tangent Gram matrix G with
    (a, lam_min), or the refusal cls when a >= 1."""
    G, a, lam_min = _spectrum_edges(T, S)
    if a >= 1.0:
        raise _refusal(cls, "deviation %.4f >= 1: %s" % (a, what), a, lam_min)
    return G, a, lam_min


def deviation_stat(T: TangentSpace, S: SampleSet) -> float:
    """The deviation a = ||P_T Q_Omega P_T||, computed exactly.

    a < 1 certifies that the sampling operator is injective on T with
    spectrum of (1/p) P_T P_Omega P_T inside [1 - a, 1 + a].  Whenever
    |Omega| < dim T the operator has a zero eigenvalue, so a >= 1 up to
    rounding: that eigenvalue computes as a tiny number of either sign.
    """
    return _spectrum_edges(T, S)[1]


@dataclass
class CertificateReport:
    """Everything verify_certificate needs, plus build diagnostics.

    term_norms holds the Frobenius norms of the Neumann series terms when
    the series builder produced the report; iters counts conjugate-gradient
    steps for the solve builder.  failure is None for a completed build.
    A refused build (failure set) has no certificate to measure: its Y,
    resid_t and ptperp_norm are None and supp_ok is False.
    """

    Y: np.ndarray | None
    resid_t: float | None
    supp_ok: bool
    ptperp_norm: float | None
    a_stat: float
    injective: bool
    lam_min: float
    term_norms: np.ndarray | None = None
    truncated: bool = False
    iters: int = 0
    failure: str | None = None


def _finish_report(T, S, Y, a, lam_min, term_norms=None, truncated=False,
                   iters=0) -> CertificateReport:
    off = np.max(np.abs(Y - project_omega(Y, S)))
    PY = T.apply_pt(Y)
    resid = float(np.linalg.norm(PY - T.e))
    ptperp = spectral_norm(Y - PY)
    injective = bool(a < 1.0 and lam_min >= S.p * (1.0 - a) / 2.0)
    return CertificateReport(
        Y=Y, resid_t=resid, supp_ok=bool(off == 0.0), ptperp_norm=float(ptperp),
        a_stat=float(a), injective=injective, lam_min=float(lam_min),
        term_norms=term_norms, truncated=truncated, iters=iters,
    )


def build_certificate_neumann(T: TangentSpace, S: SampleSet, k_max: int = 100,
                              tol: float = 1e-12) -> CertificateReport:
    """Certificate via the alternating series in powers of P_T Q_Omega P_T.

    Raises DivergenceError when the deviation is >= 1.  If k_max terms do
    not reach the tail tolerance the report is flagged truncated (the
    series still sums; the residual field shows what was achieved).
    """
    G, a, lam_min = _gate(T, S, DivergenceError, "series cannot converge")
    # P_T Q_Omega P_T in tangent coordinates
    step = G / S.p
    step[np.diag_indices_from(step)] -= 1.0
    term = _sign_coords(T)
    total = term.copy()
    norms = [float(np.linalg.norm(term))]
    tol_abs = tol * norms[0]
    truncated = True
    for _ in range(k_max):
        term = -(step @ term)
        nrm = float(np.linalg.norm(term))
        total += term
        norms.append(nrm)
        if nrm <= tol_abs:
            truncated = False
            break
    Y = project_omega(T.embed(total), S) / S.p
    return _finish_report(
        T, S, Y, a, lam_min, term_norms=np.array(norms), truncated=truncated,
        iters=len(norms) - 1,
    )


def build_certificate_cg(T: TangentSpace, S: SampleSet, tol: float = 1e-10,
                         max_iter: int = 1000) -> CertificateReport:
    """Certificate via conjugate gradients on the normal equations in T.

    Solves P_T P_Omega (W) = E over W in T, as G w = [V; 0] in tangent
    coordinates, and returns Y = P_Omega(W).  Raises InjectivityError when
    the operator is not positive definite and ConvergenceError (with the
    residual, and the n x n iterate as its estimate) when max_iter is
    exhausted.
    """
    if max_iter < 1:
        raise InvalidParameterError("max_iter must be >= 1")
    G, a, lam_min = _gate(T, S, InjectivityError, "normal operator is singular on T")
    R = _sign_coords(T)
    w = np.zeros_like(R)
    D = R.copy()
    rs = float(R @ R)
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        GD = G @ D
        dad = float(D @ GD)
        if dad <= 0.0:
            raise _refusal(InjectivityError,
                           "normal operator not positive definite (d^T A d = %.3e)"
                           % dad, a, lam_min)
        step = rs / dad
        w += step * D
        R -= step * GD
        rs_new = float(R @ R)
        if np.sqrt(rs_new) <= tol:
            converged = True
            break
        D = R + (rs_new / rs) * D
        rs = rs_new
    if not converged:
        raise _refusal(ConvergenceError,
                       "conjugate gradients stalled at residual %.3e" % np.sqrt(rs_new),
                       a, lam_min, residual=float(np.sqrt(rs_new)),
                       estimate=T.embed(w))
    Y = project_omega(T.embed(w), S)
    return _finish_report(T, S, Y, a, lam_min, iters=iters)


# the builders by name, for try_build_certificate and the cert_method key
CERT_METHODS = {"neumann": build_certificate_neumann, "cg": build_certificate_cg}


def try_build_certificate(T: TangentSpace, S: SampleSet, method: str = "neumann",
                          **kw) -> CertificateReport:
    """Build a certificate, degrading gracefully on divergence.

    When the strict builders refuse (deviation >= 1, singular operator, or
    stalled solve) this returns an uncertifiable report with no certificate
    instead of raising, which is what the experiment drivers want.  Its
    a_stat and lam_min are the ones the refused build computed.
    """
    if method not in CERT_METHODS:
        raise InvalidParameterError("unknown certificate method %r" % method)
    try:
        return CERT_METHODS[method](T, S, **kw)
    except (DivergenceError, InjectivityError, ConvergenceError) as exc:
        return CertificateReport(
            Y=None, resid_t=None, supp_ok=False, ptperp_norm=None,
            a_stat=exc.a_stat, injective=False, lam_min=exc.lam_min,
            failure=str(exc),
        )


def verify_certificate(T: TangentSpace, S: SampleSet,
                       rep: CertificateReport | None,
                       tol: float = 1e-6) -> bool:
    """All four certificate conditions at once.

    Support on Omega, tangent residual within tol, strict spectral-norm
    contraction off T, and injectivity on T.  A report from a failed build
    (or None) verifies false, as does any sample set too small to span T.
    """
    if rep is None or rep.failure is not None:
        return False
    if S.size < T.dim:
        return False
    return bool(
        rep.supp_ok
        and rep.resid_t <= tol
        and rep.ptperp_norm < 1.0
        and rep.a_stat < 1.0
        and rep.injective
    )


# Tangent Gram eigenvalues at or below _NULL_TOL count as zero.  G has
# norm at most 1, so eigh's absolute error is about dim * eps, under 1e-12
# for every dim T up to a few thousand; above the floor, G^{-1} maps a
# vector of the range of phi^T to one at most 1 / sqrt(_NULL_TOL) = 1e4
# times longer.
_NULL_TOL = 1e-8
# A lower bound refutes only when it exceeds 1 by _REFUTE_MARGIN.  Each
# bound is a closed form in inner products and one SVD of quantities at
# most 1e4 in size (see _NULL_TOL), so its rounding error is about
# dim * eps * 1e4, below 1e-8 at the same dims.
_REFUTE_MARGIN = 1e-6


@dataclass
class Decision:
    """Whether the planted matrix is the unique nuclear-norm minimizer.

    verdict is "certified" (it is), "refuted" (it is not even a
    minimizer) or "undecided"; reason names the step that settled it:
    "null", "min_norm" or "witness".  upper and lower bracket the least
    ||P_Tperp Y|| over all certificates Y (Omega-supported, P_T Y = E):
    upper is the minimum-norm certificate's (inf when P_Omega is not
    injective on T), lower is proved by the null direction or the dual
    witness (0 when no step needed one).  lam_min is the smallest
    eigenvalue of the tangent Gram matrix.
    """

    verdict: str
    reason: str
    upper: float
    lower: float
    lam_min: float


def decide(T: TangentSpace, S: SampleSet) -> Decision:
    """Decide whether M is the unique minimizer of the nuclear norm over
    the matrices that agree with it on Omega, by three cheap exits that
    share one eigendecomposition of the tangent Gram matrix G.

    In the tangent coordinates of ``TangentSpace.coords`` let phi be the
    |Omega| x dim T matrix whose rows are coords(e_i e_j^T) over Omega, so
    that G = phi^T phi.  phi is never formed: phi c is embed(c) read on
    Omega, and phi^T y is coords of the Omega-supported matrix with
    entries y.

    M is a minimizer iff some Omega-supported Y has P_T Y = E and
    ||P_Tperp Y|| <= 1, and the unique one if some such Y has norm < 1 and
    G is nonsingular.  In tangent coordinates E is e_T = [V; 0].

    1. Null direction: some eigenvalues of G are <= _NULL_TOL (always so
       when |Omega| < dim T).  With h the part of e_T in their span, the
       H in T with coordinates h has <E, H> = |h|^2 and P_Omega H = phi h,
       which vanishes when G is singular: M - tH is then feasible with a
       smaller nuclear norm for small t > 0.  Quantitatively, every
       certificate has |Y|_F >= <Y, H> / |P_Omega H|_F = |h|^2 / |phi h|
       and |Y|_F^2 = r + |P_Tperp Y|_F^2 <= r + (n - r) ||P_Tperp Y||^2,
       which bounds ||P_Tperp Y|| from below.  Refuted when that bound
       clears 1, undecided otherwise.  When |phi h| is rounding noise
       against |h| the exact bound is inf (G is singular along h); when h
       is rounding noise against e_T the exit refutes nothing and lower is
       0.
    2. Minimum-norm certificate: Y0 = phi G^{-1} e_T on Omega has
       P_T Y0 = E, so upper = ||Y0 - E||; certified when upper < 1.
    3. Dual witness: Z = u1 v1^T of Y0 - E with its Omega entries replaced
       by their projection phi w onto range(phi), so that <Z, D> = 0 for
       every Omega-supported D with P_T D = 0.  Every certificate then has
       <Z, Y - E> = w . e_T - <Z, E>, and lower is that over ||Z||_*.
       Refuted when lower clears 1, undecided otherwise.

    Unlike the certificate builders this accepts an empty Omega (refuted:
    the zero matrix is feasible).
    """
    _check_grid(T, S)
    n, r = T.n, T.r
    lam, Q = np.linalg.eigh(T.gram(S.mask))
    lam_min = float(lam[0])
    e_t = _sign_coords(T)

    null = lam <= _NULL_TOL
    if null.any():
        h = Q[:, null] @ (Q[:, null].T @ e_t)
        hh = float(h @ h)
        ph = float(np.linalg.norm(T.embed(h)[S.mask]))
        # eigh resolves G's Rayleigh quotients only to about dim * eps (see
        # _NULL_TOL), so a squared length within that of its reference's is
        # rounding noise; |e_T|^2 = r
        noise = T.dim * np.finfo(float).eps
        if hh <= noise * r:
            lower = 0.0
        elif ph * ph <= noise * hh:
            lower = np.inf
        else:
            lower = float(np.sqrt(max(hh * hh / (ph * ph) - r, 0.0) / max(n - r, 1)))
        verdict = "refuted" if lower > 1.0 + _REFUTE_MARGIN else "undecided"
        return Decision(verdict, "null", np.inf, lower, lam_min)

    def solve(x):
        return Q @ ((Q.T @ x) / lam)

    R = np.where(S.mask, T.embed(solve(e_t)), 0.0) - T.e
    u, s, vt = np.linalg.svd(R)
    upper = float(s[0])
    if upper < 1.0:
        return Decision("certified", "min_norm", upper, 0.0, lam_min)

    Z = np.outer(u[:, 0], vt[0])
    w = solve(T.coords(np.where(S.mask, Z, 0.0)))
    Z = np.where(S.mask, T.embed(w), Z)
    lower = (float(w @ e_t) - float(np.sum(Z * T.e))) / float(np.linalg.norm(Z, "nuc"))
    verdict = "refuted" if lower > 1.0 + _REFUTE_MARGIN else "undecided"
    return Decision(verdict, "witness", upper, lower, lam_min)


@dataclass
class ChainNorms:
    """Spectral norms of the two alternating operator chains applied to E:

    pt[k] = ||(Q_Om P_T)^k Q_Om(E)||,  qt[k] = ||(Q_Om Q_T)^k Q_Om(E)||.
    """

    pt: np.ndarray
    qt: np.ndarray


def _chain(X: np.ndarray, coef: np.ndarray, step, k: int) -> list[np.ndarray]:
    """[X, Q_Om step(X), ..., (Q_Om step)^k X] for step = T.apply_pt or
    T.apply_qt, with Q_Om the multiply by coef = ``sampling._q_coef`` of
    Omega.  X and coef may be stacks (..., n, n) of one shape, one matrix and
    one coefficient array per trial."""
    out = [X]
    for _ in range(k):
        Y = step(out[-1])
        Y *= coef
        out.append(Y)
    return out


def neumann_term_norms(T: TangentSpace, S: SampleSet, k_max: int) -> ChainNorms:
    """Spectral norms of the projection and tangent chains up to k_max <= 8."""
    _check_pair(T, S)
    if not (0 <= k_max <= _MAX_CHAIN_LEN):
        raise InvalidParameterError("k_max must lie in [0, %d]" % _MAX_CHAIN_LEN)
    QE = q_omega(T.e, S)
    coef = _q_coef(S.mask, S.p)
    pt = [spectral_norm(X) for X in _chain(QE, coef, T.apply_pt, k_max)]
    qt = pt[:1] + [spectral_norm(X) for X in _chain(QE, coef, T.apply_qt, k_max)[1:]]
    return ChainNorms(pt=np.array(pt), qt=np.array(qt))


@dataclass
class NeumannCoeffs:
    """Coefficients expressing (Q_Om P_T)^k Q_Om over the four word families

        A_j = (Q_Om Q_T)^j Q_Om      (coefficients alpha, j = 0..k)
        B_j = (Q_Om Q_T)^j           (coefficients beta,  j = 0..k-1)
        C_j = Q_T (Q_Om Q_T)^j Q_Om  (coefficients gamma, j = 0..k-2)
        D_j = Q_T (Q_Om Q_T)^j       (coefficients delta, j = 0..k-3)

    as exact polynomials in rho' and 1/p.
    """

    k: int
    rho_prime: float
    p: float
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray


def neumann_coeffs(k: int, rho_prime: float, p: float) -> NeumannCoeffs:
    """Coefficient arrays by the exact level-(k) recurrence.

    The recurrence drops out of two substitution rules:
    Q_Om^2 = (1/p)((1-2p) Q_Om + (1-p) I) and
    Q_T^2 = (1-2 rho') Q_T + rho'(1-rho') I.
    """
    if k < 0:
        raise InvalidParameterError("k must be >= 0")
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError("p must lie in (0, 1]")
    if not (0.0 <= rho_prime <= 1.0):
        raise InvalidParameterError("rho_prime must lie in [0, 1]")
    c1 = rho_prime * (1.0 - 2.0 * p) / p
    c2 = rho_prime * (1.0 - p) / p

    alpha = np.array([1.0])
    beta = np.zeros(0)
    gamma = np.zeros(0)
    delta = np.zeros(0)

    def at(arr, j):
        return arr[j] if 0 <= j < arr.shape[0] else 0.0

    for level in range(k):
        # helper combinations appearing in every rule
        g = lambda j: at(alpha, j) + (1.0 - rho_prime) * at(gamma, j)
        h = lambda j: at(beta, j) + (1.0 - rho_prime) * at(delta, j)
        na = np.zeros(level + 2)
        nb = np.zeros(level + 1)
        ng = np.zeros(max(level, 0))
        nd = np.zeros(max(level - 1, 0))
        for j in range(level + 2):
            na[j] = g(j - 1) + c1 * g(j)
            if j == 0:
                na[j] += rho_prime * h(0)
        for j in range(level + 1):
            nb[j] = h(j - 1)
            if j > 0:
                nb[j] += c1 * h(j)
            else:
                nb[j] += c2 * g(0)
        for j in range(ng.shape[0]):
            ng[j] = c2 * g(j + 1)
        for j in range(nd.shape[0]):
            nd[j] = c2 * h(j + 1)
        alpha, beta, gamma, delta = na, nb, ng, nd

    return NeumannCoeffs(k=k, rho_prime=rho_prime, p=p,
                         alpha=alpha, beta=beta, gamma=gamma, delta=delta)


def check_pt_expansion(T: TangentSpace, S: SampleSet, k: int, trials: int = 3,
                       rng: Rng | None = None) -> float:
    """Numerically confirm the word expansion of (Q_Om P_T)^k Q_Om.

    Applies both sides to random matrices and returns the largest relative
    Frobenius discrepancy.  Exact algebra: anything much above roundoff
    indicates a wrong coefficient.
    """
    _check_pair(T, S)
    if not (0 <= k <= _MAX_CHAIN_LEN):
        raise InvalidParameterError("k must lie in [0, %d]" % _MAX_CHAIN_LEN)
    if rng is None:
        rng = Rng(0)
    co = neumann_coeffs(k, T.rho_prime, S.p)
    coef = _q_coef(S.mask, S.p)
    worst = 0.0
    for t in range(trials):
        X = rng.substream(t).gen.standard_normal((T.n, T.n))
        QX = q_omega(X, S)
        lhs = _chain(QX, coef, T.apply_pt, k)[-1]
        a_chain = _chain(QX, coef, T.apply_qt, k)
        b_chain = _chain(X, coef, T.apply_qt, k)
        rhs = np.zeros_like(X)
        for j, c in enumerate(co.alpha):
            rhs += c * a_chain[j]
        for j, c in enumerate(co.beta):
            rhs += c * b_chain[j]
        for j, c in enumerate(co.gamma):
            rhs += c * T.apply_qt(a_chain[j])
        for j, c in enumerate(co.delta):
            rhs += c * T.apply_qt(b_chain[j])
        disc = np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs))
        worst = max(worst, float(disc))
    return worst


@dataclass
class MomentEstimate:
    """Monte-Carlo estimate of E tr((A^T A)^j) for the tangent chain
    A = (Q_Om Q_T)^k Q_Om (E), with the closed-form first moment when one
    exists and the two a-priori bound expressions evaluated at measured
    incoherence."""

    j: int
    k: int
    n: int
    r: int
    p: float
    trials: int
    mean: float
    stderr: float
    mu: float
    r_mu: float
    bound_power: float
    bound_poly: float
    closed_form: float | None


def _trace_gram_power(A: np.ndarray, j: int) -> np.ndarray:
    """tr((A^T A)^j) for each matrix A of a stack (N, n, n), each as one sum
    of squares, so nothing cancels.

    With B = A^T A and h = j // 2 it is ||B^h||_F^2 for even j and
    ||A B^h||_F^2 for odd j.  The products are stacked matmuls, which run
    each matrix's product as its own BLAS call, and each sum of squares is a
    batched (1 x n^2)(n^2 x 1) matmul, which numpy hands to the BLAS ddot
    that np.vdot calls: every trace has the bits of its matrix taken alone.
    """
    C = A
    if j > 1:
        B = np.swapaxes(A, -1, -2) @ A
        C = A if j % 2 else B
        for _ in range((j - 1) // 2):
            C = C @ B
    c = C.reshape(len(C), 1, -1)
    return (c @ np.swapaxes(c, -1, -2)).ravel()


def _moment_bounds(jk: int, n: int, r_mu: float, m: float) -> tuple[float, float]:
    """The a-priori bounds jk^(2jk) n (n r_mu^2 / m)^jk and
    (jk^6 n r_mu / m)^jk, each inf past the float range.

    Python floats raise OverflowError there rather than warn.  Where only the
    exact integer jk^(2jk) n is past the range, the product is formed exactly
    and rounded once, so a bound that fits a float is not reported as inf.
    """
    try:
        bound_poly = ((jk ** 6) * n * r_mu / m) ** jk
    except OverflowError:
        bound_poly = math.inf
    try:
        scale = (n * r_mu ** 2 / m) ** jk
        try:
            bound_power = (jk ** (2 * jk)) * n * scale
        except OverflowError:  # jk^(2jk) n alone does not convert to a float
            num, den = scale.as_integer_ratio()  # exact; int / int rounds once
            bound_power = (jk ** (2 * jk)) * n * num / den
    except OverflowError:
        bound_power = math.inf
    return bound_power, bound_poly


def _std(vals: np.ndarray) -> float:
    """np.std(vals, ddof=1), which squares the deviations.  When a square
    could overflow, the values are scaled by a power of two first and the
    result scaled back, which is exact unless a value falls below the
    normal range."""
    big = float(np.max(np.abs(vals)))
    if not 4.0 * len(vals) * big * big > sys.float_info.max:
        return float(np.std(vals, ddof=1))
    e = math.frexp(big)[1]  # 0 for inf, which np.std then reports as before
    return math.ldexp(float(np.std(np.ldexp(vals, -e), ddof=1)), e)


def estimate_trace_moment(gen_model, n: int, r: int, p: float, j: int, k: int,
                          trials: int, rng: Rng | None = None) -> MomentEstimate:
    """Sample tr((A^T A)^j) over fresh Bernoulli(p) observation draws.

    gen_model(n, r, rng) must return a GroundTruth; the instance is drawn
    once and the tangent space held fixed while Omega varies.  Trials run in
    chunks: a chunk's generators are seeded in one pass, its masks drawn into
    one stack and made into one stack of Q_Om coefficients, and the chain
    and the traces run once on the stack, each product per matrix, so every
    trial's A and trace are bit-identical to a chain run on its own.
    Each trace is taken through powers of the Gram matrix A^T A, with no
    singular values.  For j=1, k=0 the exact mean is (1-p) r / p, which the
    tests pin down.  A bound past the float range is inf.
    """
    if j < 1 or k < 0:
        raise InvalidParameterError("need j >= 1 and k >= 0")
    if trials < 2:
        raise InvalidParameterError("need at least 2 trials for a stderr")
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError("p must lie in (0, 1]")
    if rng is None:
        rng = Rng(0)
    gt = gen_model(n, r, rng.substream(0))
    T = gt.tangent_space()
    inc = incoherence(T)
    mu = max(inc.mu1, inc.mu2)
    r_mu = mu * mu * r
    m = p * n * n

    vals = np.empty(trials)
    for chunk in _chunks(trials, T.e.nbytes):  # one n x n float array a trial
        subs = Rng.batch(rng.seed, [rng.substream(t + 1).stream for t in chunk])
        mask = _bernoulli_masks(subs, p, (n, n))
        coef = _q_coef(mask, p)
        A = _chain(coef * T.e, coef, T.apply_qt, k)[-1]
        vals[chunk.start:chunk.stop] = _trace_gram_power(A, j)

    mean = float(np.mean(vals))
    stderr = float(_std(vals) / np.sqrt(trials))
    bound_power, bound_poly = _moment_bounds(j * (k + 1), n, r_mu, m)
    closed = (1.0 - p) * r / p if (j == 1 and k == 0) else None
    return MomentEstimate(
        j=j, k=k, n=n, r=r, p=p, trials=trials, mean=mean, stderr=stderr,
        mu=float(mu), r_mu=float(r_mu), bound_power=float(bound_power),
        bound_poly=float(bound_poly), closed_form=closed,
    )
