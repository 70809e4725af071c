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
All apply paths cost O(n^2 r); the dense n x n projectors P_U, P_V, Q_U
and Q_V serve only entrywise diagnostics and are formed on first read.

T also has orthonormal coordinates of length dim T = 2nr - r^2
(``coords`` and its inverse ``embed``), in which P_T P_Omega P_T is the
tangent Gram matrix ``gram(mask)`` that the certificate engine works with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
        self.e = U @ V.T

    @property
    def dim(self) -> int:
        """Dimension of T as a linear space: 2nr - r^2."""
        return 2 * self.n * self.r - self.r * self.r

    @cached_property
    def pu(self) -> np.ndarray:
        """P_U = U U^T."""
        return self.U @ self.U.T

    @cached_property
    def pv(self) -> np.ndarray:
        """P_V = V V^T."""
        return self.V @ self.V.T

    @cached_property
    def qu(self) -> np.ndarray:
        """Q_U = P_U - rho I."""
        return self.pu - self.rho * np.eye(self.n)

    @cached_property
    def qv(self) -> np.ndarray:
        """Q_V = P_V - rho I."""
        return self.pv - self.rho * np.eye(self.n)

    @cached_property
    def u_perp(self) -> np.ndarray:
        """W, an orthonormal basis of the complement of span(U): the last
        n - r columns of U's complete QR factor, computed on first use."""
        return np.linalg.qr(self.U, mode="complete")[0][:, self.r:]

    def coords(self, X) -> np.ndarray:
        """Coordinates of P_T(X) in an orthonormal basis of T, length dim.

        The basis is u_k e_j^T (coordinate j * r + k) followed by
        w_l v_k^T (coordinate n * r + l * r + k), where w_l are the columns
        of ``u_perp``.  The coordinates are therefore X^T U and W^T X V,
        each flattened row-major.
        """
        X = np.asarray(X, dtype=float)
        return np.concatenate([(X.T @ self.U).ravel(),
                               (self.u_perp.T @ X @ self.V).ravel()])

    def embed(self, c) -> np.ndarray:
        """The matrix U A^T + W B V^T of T with coordinates c = [A; B]; the
        inverse of ``coords`` on T."""
        c = np.asarray(c, dtype=float)
        n, r = self.n, self.r
        A = c[:n * r].reshape(n, r)
        B = c[n * r:].reshape(n - r, r)
        return self.U @ A.T + (self.u_perp @ B) @ self.V.T

    def gram(self, mask) -> np.ndarray:
        """The matrix G of P_T P_Omega P_T on T in the coordinates of
        ``coords``, for the n x n boolean mask of Omega.

        G is the sum over Omega of phi_ij phi_ij^T, where phi_ij =
        coords(e_i e_j^T) holds U_i in the block of column j and W_i (x) V_j
        in the second part.  G is formed block by block, never through phi:

        * UU is block-diagonal: block j is sum_i mask_ij U_i U_i^T;
        * UW row block j is P_j (x) V_j^T, with P = mask^T (U (x) W) row by row;
        * WW is sum_i (W_i W_i^T) (x) C_i, with C_i = sum_j mask_ij V_j V_j^T.

        That costs O(n^2 r (n - r) + n (n - r)^2 r^2), where phi^T phi costs
        O(|Omega| (n r)^2).
        """
        n, r = self.n, self.r
        w, nr = n - r, n * r
        U, V, W = self.U, self.V, self.u_perp
        M = np.asarray(mask, dtype=float)
        G = np.zeros((self.dim, self.dim))
        uu = M.T @ (U[:, :, None] * U[:, None, :]).reshape(n, r * r)
        idx = np.arange(nr).reshape(n, r)
        G[idx[:, :, None], idx[:, None, :]] = uu.reshape(n, r, r)
        uw = (M.T @ (U[:, :, None] * W[:, None, :]).reshape(n, r * w)).reshape(n, r, w)
        G[:nr, nr:] = (uw[:, :, :, None] * V[:, None, None, :]).reshape(nr, w * r)
        G[nr:, :nr] = G[:nr, nr:].T
        C = M @ (V[:, :, None] * V[:, None, :]).reshape(n, r * r)
        ww = W.T @ (W[:, :, None] * C[:, None, :]).reshape(n, w * r * r)
        G[nr:, nr:] = ww.reshape(w, w, r, r).transpose(1, 2, 0, 3).reshape(w * r, w * r)
        return G

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

    def apply_qt(self, X) -> np.ndarray:
        """Apply Q_T = P_T - rho' I by the factored product formula in Q_U, Q_V.

        X is n x n or a stack (..., n, n).  matmul broadcasts each product
        over the stack with the BLAS call a single matrix gets, so every
        matrix of a stack comes out bit-identical to its own call.  (Folding
        the stack into one GEMM through reshapes is not: at n = 13 or 17 its
        rows or columns fall into other kernel blocks and round differently.)
        The elementwise steps are those of
        (1 - rho) (Q_U X + X Q_V) - Q_U X Q_V, in the same order, with rho X
        formed once and the rest done in place.
        """
        X = np.asarray(X, dtype=float)
        rho = self.rho
        rho_x = rho * X
        qu_x = self.U @ (self.U.T @ X)
        qu_x -= rho_x
        x_qv = (X @ self.V) @ self.V.T
        x_qv -= rho_x
        qu_x_qv = (qu_x @ self.V) @ self.V.T
        qu_x_qv -= np.multiply(rho, qu_x, out=rho_x)
        qu_x += x_qv
        qu_x *= 1.0 - rho
        qu_x -= qu_x_qv
        return qu_x


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


def _side_peak(left, right):
    """Largest entry of left and right, ties going left, with its witness:
    the side, then the index of the side's first maximal entry."""
    side, A = ("left", left) if left.max() >= right.max() else ("right", right)
    return float(A.max()), (side, *map(int, np.unravel_index(int(np.argmax(A)), A.shape)))


def incoherence(T: TangentSpace) -> IncoherenceReport:
    n, r = T.n, T.r
    sq = np.sqrt(r)
    lev, w_lev = _side_peak(np.sum(T.U ** 2, axis=1), np.sum(T.V ** 2, axis=1))
    dev, w_dev = _side_peak(np.abs(T.qu), np.abs(T.qv))
    flat, w_flat = _side_peak(T.U ** 2, T.V ** 2)
    ae = np.abs(T.e)
    w_sign = tuple(map(int, np.unravel_index(int(np.argmax(ae)), ae.shape)))
    return IncoherenceReport(
        mu0=(n / r) * lev, mu1=float((n / sq) * dev), mu2=float((n / sq) * ae.max()),
        mu_b=n * flat,
        witnesses={"mu0": w_lev, "mu1": w_dev, "mu2": w_sign, "mu_b": w_flat},
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
