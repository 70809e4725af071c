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

The exact deviation statistic and injectivity floor come from the tangent
Gram matrix: in the orthonormal coordinates of ``TangentSpace.features``,
G = sum over Omega of phi phi^T is P_T P_Omega P_T on T, so one symmetric
eigendecomposition of this (2nr - r^2)-square matrix gives
a = max |lam / p - 1| and lam_min = min lam.

decide() answers the question the certificate stands for -- is the
planted matrix the unique nuclear-norm minimizer? -- from one
eigendecomposition of the same matrix, with no a < 1 gate: it certifies
with the minimum-norm certificate and refutes with a null direction of
the sampling operator or a dual witness, and says "undecided" when none
of these settles it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DivergenceError,
    InjectivityError,
    InvalidParameterError,
)
from .geometry import TangentSpace, incoherence
from .linalg import Rng, spectral_norm
from .sampling import SampleSet, project_omega, q_omega, sample_bernoulli

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


def _spectrum_edges(T: TangentSpace, S: SampleSet) -> tuple[float, float]:
    """(a, lam_min) from one eigendecomposition of the tangent Gram matrix."""
    phi = T.features(S.rows, S.cols)
    lam = np.linalg.eigvalsh(phi.T @ phi)
    return float(np.max(np.abs(lam / S.p - 1.0))), float(lam[0])


def deviation_stat(T: TangentSpace, S: SampleSet) -> float:
    """The deviation a = ||P_T Q_Omega P_T||, computed exactly.

    a < 1 certifies that the sampling operator is injective on T with
    spectrum of (1/p) P_T P_Omega P_T inside [1 - a, 1 + a]; a >= 1 is
    guaranteed whenever |Omega| < dim T.
    """
    _check_pair(T, S)
    return _spectrum_edges(T, S)[0]


@dataclass
class CertificateReport:
    """Everything verify_certificate needs, plus build diagnostics.

    term_norms holds the Frobenius norms of the Neumann series terms when
    the series builder produced the report; iters counts conjugate-gradient
    steps for the solve builder.  failure is None for a completed build.
    """

    Y: np.ndarray
    resid_t: float
    supp_ok: bool
    ptperp_norm: float
    a_stat: float
    injective: bool
    lam_min: float
    method: str
    term_norms: np.ndarray | None = None
    truncated: bool = False
    iters: int = 0
    failure: str | None = None


def _finish_report(T, S, Y, a, lam_min, method, term_norms=None,
                   truncated=False, iters=0) -> CertificateReport:
    off = np.max(np.abs(Y - project_omega(Y, S))) if Y.size else 0.0
    resid = float(np.linalg.norm(T.apply_pt(Y) - T.e))
    ptperp = spectral_norm(T.apply_ptperp(Y))
    injective = bool(a < 1.0 and lam_min >= S.p * (1.0 - a) / 2.0)
    return CertificateReport(
        Y=Y, resid_t=resid, supp_ok=bool(off == 0.0), ptperp_norm=float(ptperp),
        a_stat=float(a), injective=injective, lam_min=float(lam_min),
        method=method, term_norms=term_norms, truncated=truncated, iters=iters,
    )


def build_certificate_neumann(T: TangentSpace, S: SampleSet, k_max: int = 100,
                              tol: float = 1e-12) -> CertificateReport:
    """Certificate via the alternating series in powers of P_T Q_Omega P_T.

    Raises DivergenceError when the deviation is >= 1.  If k_max terms do
    not reach the tail tolerance the report is flagged truncated (the
    series still sums; the residual field shows what was achieved).
    """
    _check_pair(T, S)
    a, lam_min = _spectrum_edges(T, S)
    if a >= 1.0:
        raise DivergenceError(
            "deviation %.4f >= 1: series cannot converge" % a
        )
    term = T.e.copy()
    total = term.copy()
    norms = [float(np.linalg.norm(term))]
    tol_abs = tol * norms[0]
    truncated = True
    for _ in range(k_max):
        term = -T.apply_pt(q_omega(term, S))
        nrm = float(np.linalg.norm(term))
        total += term
        norms.append(nrm)
        if nrm <= tol_abs:
            truncated = False
            break
    Y = project_omega(total, S) / S.p
    return _finish_report(
        T, S, Y, a, lam_min, method="neumann(k_max=%d)" % k_max,
        term_norms=np.array(norms), truncated=truncated,
        iters=len(norms) - 1,
    )


def build_certificate_cg(T: TangentSpace, S: SampleSet, tol: float = 1e-10,
                         max_iter: int = 1000) -> CertificateReport:
    """Certificate via conjugate gradients on the normal equations in T.

    Solves P_T P_Omega (W) = E over W in T and returns Y = P_Omega(W).
    Raises InjectivityError when the operator is not positive definite and
    ConvergenceError (with the residual) when max_iter is exhausted.
    """
    _check_pair(T, S)
    if max_iter < 1:
        raise InvalidParameterError("max_iter must be >= 1")
    a, lam_min = _spectrum_edges(T, S)
    if a >= 1.0:
        raise InjectivityError(
            "deviation %.4f >= 1: normal operator is singular on T" % a
        )
    b = T.e
    W = np.zeros_like(b)
    R = b.copy()
    D = R.copy()
    rs = float(np.sum(R * R))
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        AD = T.apply_pt(project_omega(D, S))
        dad = float(np.sum(D * AD))
        if dad <= 0.0:
            raise InjectivityError(
                "normal operator not positive definite (d^T A d = %.3e)" % dad
            )
        step = rs / dad
        W += step * D
        R -= step * AD
        rs_new = float(np.sum(R * R))
        if np.sqrt(rs_new) <= tol:
            converged = True
            break
        D = R + (rs_new / rs) * D
        rs = rs_new
    if not converged:
        raise ConvergenceError(
            "conjugate gradients stalled at residual %.3e" % np.sqrt(rs_new),
            residual=float(np.sqrt(rs_new)), estimate=W,
        )
    Y = project_omega(W, S)
    return _finish_report(
        T, S, Y, a, lam_min, method="cg(tol=%g)" % tol, iters=iters,
    )


def try_build_certificate(T: TangentSpace, S: SampleSet, method: str = "neumann",
                          **kw) -> CertificateReport:
    """Build a certificate, degrading gracefully on divergence.

    When the strict builders refuse (deviation >= 1, singular operator, or
    stalled solve) this returns an uncertifiable report around the zero
    matrix instead of raising, which is what the experiment drivers want.
    """
    builder = {"neumann": build_certificate_neumann, "cg": build_certificate_cg}
    if method not in builder:
        raise InvalidParameterError("unknown certificate method %r" % method)
    try:
        return builder[method](T, S, **kw)
    except (DivergenceError, InjectivityError, ConvergenceError) as exc:
        return CertificateReport(
            Y=np.zeros((T.n, T.n)), resid_t=float(np.linalg.norm(T.e)),
            supp_ok=True, ptperp_norm=0.0, a_stat=deviation_stat(T, S),
            injective=False, lam_min=0.0, method=method, failure=str(exc),
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
# vector of the range of phi to one at most 1 / sqrt(_NULL_TOL) = 1e4
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
    share one eigendecomposition of G = phi^T phi, phi = T.features(Omega).

    M is a minimizer iff some Omega-supported Y has P_T Y = E and
    ||P_Tperp Y|| <= 1, and the unique one if some such Y has norm < 1 and
    G is nonsingular.  In feature coordinates E is e_T = [V.ravel(); 0].

    1. Null direction: some eigenvalues of G are <= _NULL_TOL (always so
       when |Omega| < dim T).  With h the part of e_T in their span, the
       H in T with coordinates h has <E, H> = |h|^2 and P_Omega H = phi h,
       which vanishes when G is singular: M - tH is then feasible with a
       smaller nuclear norm for small t > 0.  Quantitatively, every
       certificate has |Y|_F >= <Y, H> / |P_Omega H|_F = |h|^2 / |phi h|
       and |Y|_F^2 = r + |P_Tperp Y|_F^2 <= r + (n - r) ||P_Tperp Y||^2,
       which bounds ||P_Tperp Y|| from below.  Refuted when that bound
       clears 1, undecided otherwise.
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
    phi = T.features(S.rows, S.cols)
    lam, Q = np.linalg.eigh(phi.T @ phi)
    lam_min = float(lam[0])
    e_t = np.zeros(T.dim)
    e_t[:n * r] = T.V.ravel()

    null = lam <= _NULL_TOL
    if null.any():
        h = Q[:, null] @ (Q[:, null].T @ e_t)
        hh = float(h @ h)
        ph = float(np.linalg.norm(phi @ h))
        bound_sq = hh * hh / (ph * ph) if ph > 0.0 else (np.inf if hh > 0.0 else 0.0)
        lower = float(np.sqrt(max(bound_sq - r, 0.0) / max(n - r, 1)))
        verdict = "refuted" if lower > 1.0 + _REFUTE_MARGIN else "undecided"
        return Decision(verdict, "null", np.inf, lower, lam_min)

    def solve(x):
        return Q @ ((Q.T @ x) / lam)

    R = -T.e
    R[S.rows, S.cols] += phi @ solve(e_t)
    u, s, vt = np.linalg.svd(R)
    upper = float(s[0])
    if upper < 1.0:
        return Decision("certified", "min_norm", upper, 0.0, lam_min)

    Z = np.outer(u[:, 0], vt[0])
    w = solve(phi.T @ Z[S.rows, S.cols])
    Z[S.rows, S.cols] = phi @ w
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


def neumann_term_norms(T: TangentSpace, S: SampleSet, k_max: int) -> ChainNorms:
    """Spectral norms of the projection and tangent chains up to k_max <= 8."""
    _check_pair(T, S)
    if not (0 <= k_max <= _MAX_CHAIN_LEN):
        raise InvalidParameterError("k_max must lie in [0, %d]" % _MAX_CHAIN_LEN)
    Xp = q_omega(T.e, S)
    Xq = Xp.copy()
    pt = [spectral_norm(Xp)]
    qt = [pt[0]]
    for k in range(1, k_max + 1):
        Xp = q_omega(T.apply_pt(Xp), S)
        Xq = q_omega(T.apply_qt(Xq), S)
        pt.append(spectral_norm(Xp))
        qt.append(spectral_norm(Xq))
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
    worst = 0.0
    for t in range(trials):
        X = rng.substream(t).gen.standard_normal((T.n, T.n))
        lhs = q_omega(X, S)
        for _ in range(k):
            lhs = q_omega(T.apply_pt(lhs), S)
        a_chain = [q_omega(X, S)]
        b_chain = [X]
        for _ in range(k):
            a_chain.append(q_omega(T.apply_qt(a_chain[-1]), S))
            b_chain.append(q_omega(T.apply_qt(b_chain[-1]), S))
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


def _trace_gram_power(A: np.ndarray, j: int) -> float:
    """tr((A^T A)^j) as one sum of squares, so nothing cancels.

    With B = A^T A and h = j // 2 it is ||B^h||_F^2 for even j and
    ||A B^h||_F^2 for odd j.
    """
    C = A
    if j > 1:
        B = A.T @ A
        C = A if j % 2 else B
        for _ in range((j - 1) // 2):
            C = C @ B
    return float(np.vdot(C, C))


def estimate_trace_moment(gen_model, n: int, r: int, p: float, j: int, k: int,
                          trials: int, rng: Rng | None = None) -> MomentEstimate:
    """Sample tr((A^T A)^j) over fresh Bernoulli(p) observation draws.

    gen_model(n, r, rng) must return a GroundTruth; the instance is drawn
    once and the tangent space held fixed while Omega varies.  Each trial's
    trace is taken through powers of the Gram matrix A^T A, with no
    singular values.  For j=1, k=0 the exact mean is (1-p) r / p, which the
    tests pin down.
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
    for t in range(trials):
        S = sample_bernoulli(n, p, rng.substream(t + 1))
        A = q_omega(T.e, S)
        for _ in range(k):
            A = q_omega(T.apply_qt(A), S)
        vals[t] = _trace_gram_power(A, j)

    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(trials))
    jk = j * (k + 1)
    bound_power = (jk ** (2 * jk)) * n * (n * r_mu ** 2 / m) ** jk
    bound_poly = ((jk ** 6) * n * r_mu / m) ** jk
    closed = (1.0 - p) * r / p if (j == 1 and k == 0) else None
    return MomentEstimate(
        j=j, k=k, n=n, r=r, p=p, trials=trials, mean=mean, stderr=stderr,
        mu=float(mu), r_mu=float(r_mu), bound_power=float(bound_power),
        bound_poly=float(bound_poly), closed_form=closed,
    )
