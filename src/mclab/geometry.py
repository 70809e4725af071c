"""Tangent-space geometry of a fixed rank-r factorization.

For column-orthonormal factors U, V (n x r, same n on both sides) the
tangent space T is spanned by matrices of the form U A* + B V*.  The
projections used everywhere downstream are

    P_T(X)     = P_U X + X P_V - P_U X P_V
    P_Tperp(X) = (I - P_U) X (I - P_V)
    Q_T        = P_T - rho' I,   rho' = 2 rho - rho^2,  rho = r / n

Q_T is the zero-mean version of P_T under a uniformly random coordinate
pair, and factors exactly as
(1 - rho) Q_U X + (1 - rho) X Q_V - Q_U X Q_V with Q_U = P_U - rho I.
All apply paths cost O(n^2 r); the dense n x n projectors are kept only
for entrywise diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

_ORTHO_TOL = 1e-8


def _check_factor(U, name: str) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[1] < 1:
        raise InvalidParameterError("%s must be n x r with r >= 1" % name)
    if U.shape[1] > U.shape[0]:
        raise InvalidParameterError("%s has more columns than rows" % name)
    gram = U.T @ U
    dev = np.max(np.abs(gram - np.eye(U.shape[1])))
    if dev > _ORTHO_TOL:
        raise InvalidParameterError(
            "%s is not column-orthonormal (deviation %.3e)" % (name, dev)
        )
    return U


class TangentSpace:
    """Geometry attached to the paired factors (U, V).

    The pairing matters: ``e`` is the sign pattern sum_k u_k v_k^T, which
    depends on how columns of U and V are matched, not just on the spans.
    """

    def __init__(self, U, V):
        U = _check_factor(U, "U")
        V = _check_factor(V, "V")
        if U.shape != V.shape:
            raise InvalidParameterError(
                "U and V must share a shape; got %r vs %r" % (U.shape, V.shape)
            )
        self.U = U
        self.V = V
        self.n, self.r = U.shape
        self.rho = self.r / self.n
        self.rho_prime = 2.0 * self.rho - self.rho ** 2
        self.pu = U @ U.T
        self.pv = V @ V.T
        self.e = U @ V.T
        self.qu = self.pu - self.rho * np.eye(self.n)
        self.qv = self.pv - self.rho * np.eye(self.n)

    @property
    def dim(self) -> int:
        """Dimension of T as a linear space: 2nr - r^2."""
        return 2 * self.n * self.r - self.r * self.r

    def features(self, rows, cols) -> np.ndarray:
        """Coordinates of the entry matrices e_i e_j^T, projected onto T, in
        an orthonormal basis of T: one row per (i, j) pair, dim columns.

        The basis is u_k e_j^T (column block j * r + k) followed by
        w_l v_k^T (block n * r + l * r + k), where the w_l complete U to an
        orthonormal basis of R^n.  For a sample set, phi^T phi is the
        matrix of P_T P_Omega P_T on T.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        n, r, m = self.n, self.r, rows.shape[0]
        u_perp = np.linalg.qr(self.U, mode="complete")[0][:, r:]
        phi = np.zeros((m, self.dim))
        phi[np.arange(m)[:, None], cols[:, None] * r + np.arange(r)] = self.U[rows]
        phi[:, n * r:] = (u_perp[rows][:, :, None]
                          * self.V[cols][:, None, :]).reshape(m, self.dim - n * r)
        return phi

    def apply_pt(self, X) -> np.ndarray:
        """Project onto T."""
        X = np.asarray(X, dtype=float)
        utx = self.U.T @ X
        xv = X @ self.V
        return self.U @ utx + xv @ self.V.T - self.U @ (utx @ self.V) @ self.V.T

    def apply_ptperp(self, X) -> np.ndarray:
        """Project onto the orthogonal complement of T."""
        X = np.asarray(X, dtype=float)
        return X - self.apply_pt(X)

    def apply_qt(self, X, form: str = "centered") -> np.ndarray:
        """Apply Q_T = P_T - rho' I.

        form="centered" uses the factored product formula in Q_U, Q_V;
        form="projection" subtracts rho' X from the projection.  The two
        agree to roundoff and are cross-checked in the test suite.
        """
        X = np.asarray(X, dtype=float)
        if form == "projection":
            return self.apply_pt(X) - self.rho_prime * X
        if form != "centered":
            raise InvalidParameterError("unknown form %r" % form)
        rho = self.rho
        qu_x = self.U @ (self.U.T @ X) - rho * X
        x_qv = (X @ self.V) @ self.V.T - rho * X
        qu_x_qv = (qu_x @ self.V) @ self.V.T - rho * qu_x
        return (1.0 - rho) * (qu_x + x_qv) - qu_x_qv

    def qt_entry(self, a: int, b: int, a2: int, b2: int) -> float:
        """Matrix element <Q_T(e_{a2 b2}), e_{a b}> in closed form:

        (1-rho) [b==b2] Q_U[a,a2] + (1-rho) [a==a2] Q_V[b,b2]
            - Q_U[a,a2] Q_V[b,b2]
        """
        for idx in (a, b, a2, b2):
            if not (0 <= idx < self.n):
                raise InvalidParameterError("index %d out of range [0, %d)"
                                            % (idx, self.n))
        qu = self.qu[a, a2]
        qv = self.qv[b, b2]
        out = -qu * qv
        if b == b2:
            out += (1.0 - self.rho) * qu
        if a == a2:
            out += (1.0 - self.rho) * qv
        return float(out)


def tangent_space(U, V) -> TangentSpace:
    """Build the TangentSpace for paired column-orthonormal factors."""
    return TangentSpace(U, V)


@dataclass
class IncoherenceReport:
    """Coherence statistics of a tangent space, with maximizing witnesses.

    mu0: (n/r) * max leverage score over rows of U and V
    mu1: (n/sqrt(r)) * max abs entry of P_U - (r/n) I and P_V - (r/n) I
    mu2: (n/sqrt(r)) * max abs entry of the sign pattern
    mu_b: n * max squared factor entry (flatness of the singular vectors)
    """

    mu0: float
    mu1: float
    mu2: float
    mu_b: float
    witnesses: dict


def incoherence(T: TangentSpace) -> IncoherenceReport:
    n, r = T.n, T.r
    sq = np.sqrt(r)
    witnesses = {}

    lev_u = np.sum(T.U ** 2, axis=1)
    lev_v = np.sum(T.V ** 2, axis=1)
    if lev_u.max() >= lev_v.max():
        mu0 = (n / r) * lev_u.max()
        witnesses["mu0"] = ("left", int(np.argmax(lev_u)))
    else:
        mu0 = (n / r) * lev_v.max()
        witnesses["mu0"] = ("right", int(np.argmax(lev_v)))

    du = np.abs(T.qu)
    dv = np.abs(T.qv)
    if du.max() >= dv.max():
        idx = np.unravel_index(int(np.argmax(du)), du.shape)
        mu1 = (n / sq) * du.max()
        witnesses["mu1"] = ("left", int(idx[0]), int(idx[1]))
    else:
        idx = np.unravel_index(int(np.argmax(dv)), dv.shape)
        mu1 = (n / sq) * dv.max()
        witnesses["mu1"] = ("right", int(idx[0]), int(idx[1]))

    ae = np.abs(T.e)
    idx = np.unravel_index(int(np.argmax(ae)), ae.shape)
    mu2 = (n / sq) * ae.max()
    witnesses["mu2"] = (int(idx[0]), int(idx[1]))

    u2 = T.U ** 2
    v2 = T.V ** 2
    if u2.max() >= v2.max():
        idx = np.unravel_index(int(np.argmax(u2)), u2.shape)
        mu_b = n * u2.max()
        witnesses["mu_b"] = ("left", int(idx[0]), int(idx[1]))
    else:
        idx = np.unravel_index(int(np.argmax(v2)), v2.shape)
        mu_b = n * v2.max()
        witnesses["mu_b"] = ("right", int(idx[0]), int(idx[1]))

    return IncoherenceReport(
        mu0=float(mu0), mu1=float(mu1), mu2=float(mu2), mu_b=float(mu_b),
        witnesses=witnesses,
    )


@dataclass
class CancellationReport:
    """Max-abs violations of the exact centered-projector algebra.

    proj_square:   Q_U^2 = (1-2rho) Q_U + rho (1-rho) I   (and the V side)
    sign_transfer: Q_U E = (1-rho) E = E Q_V
    gram:          E E^T = Q_U + rho I,  E^T E = Q_V + rho I
    """

    proj_square: float
    sign_transfer: float
    gram: float
    max_violation: float
    ok: bool


def check_cancellation(T: TangentSpace, tol: float = 1e-10) -> CancellationReport:
    rho = T.rho
    eye = np.eye(T.n)

    v1 = max(
        np.max(np.abs(T.qu @ T.qu - ((1 - 2 * rho) * T.qu + rho * (1 - rho) * eye))),
        np.max(np.abs(T.qv @ T.qv - ((1 - 2 * rho) * T.qv + rho * (1 - rho) * eye))),
    )
    v2 = max(
        np.max(np.abs(T.qu @ T.e - (1 - rho) * T.e)),
        np.max(np.abs(T.e @ T.qv - (1 - rho) * T.e)),
    )
    v3 = max(
        np.max(np.abs(T.e @ T.e.T - (T.qu + rho * eye))),
        np.max(np.abs(T.e.T @ T.e - (T.qv + rho * eye))),
    )
    vmax = max(v1, v2, v3)
    return CancellationReport(
        proj_square=float(v1), sign_transfer=float(v2), gram=float(v3),
        max_violation=float(vmax), ok=bool(vmax <= tol),
    )
