"""Dense linear-algebra primitives used throughout the package.

Everything here is deterministic given its inputs and an explicit Rng, so
experiment rows and serialized artifacts are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidParameterError

_MASK64 = (1 << 64) - 1


@dataclass
class Rng:
    """Reproducible random source: a base ``seed`` plus a ``stream`` index.

    Identical (seed, stream) pairs yield identical draws.  Substreams are
    derived through SeedSequence spawn keys rather than seed arithmetic so
    distinct streams never collide.
    """

    seed: int
    stream: int = 0
    _gen: np.random.Generator | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(
                entropy=self.seed & _MASK64, spawn_key=(self.stream & _MASK64,)
            )
            # what default_rng(ss) builds, without its argument dispatch
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def substream(self, k: int) -> "Rng":
        """Child stream ``k`` (< 2**20) of this stream.

        Callers that need many independent streams should manage stream
        indices directly; this is a convenience for per-trial loops.
        """
        return Rng(self.seed, (self.stream << 20) + (k & 0xFFFFF))


@dataclass
class SvdFactors:
    """Thin SVD ``A ~= U @ diag(S) @ V.T`` with S sorted nonincreasing."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    def assemble(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


def _check_finite(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidParameterError("expected a 2-d array, got shape %r" % (A.shape,))
    if not np.isfinite(A).all():
        raise InvalidParameterError("matrix contains non-finite entries")
    return A


def svd(A) -> SvdFactors:
    """Thin SVD with a deterministic sign convention.

    Each left singular vector is flipped (together with its partner on the
    right) so that its largest-magnitude entry is positive; ties break at
    the lowest index.  This makes factorizations reproducible across runs.
    """
    A = _check_finite(A)
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    V = Vt.T
    for k in range(S.shape[0]):
        j = int(np.argmax(np.abs(U[:, k])))
        if U[j, k] < 0.0:
            U[:, k] = -U[:, k]
            V[:, k] = -V[:, k]
    return SvdFactors(U=U, S=S, V=V)


def spectral_norm(A) -> float:
    """Largest singular value, exactly (LAPACK SVD); 0 for an empty matrix."""
    A = _check_finite(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def haar_orthogonal(n: int, rng: Rng) -> np.ndarray:
    """Orthogonal matrix drawn from the Haar measure on O(n).

    QR of a Gaussian matrix with the R-diagonal sign correction; without the
    correction the distribution of Q is not invariant.
    """
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    G = rng.gen.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R)
    ph = np.where(d != 0.0, np.sign(d), 1.0)
    return Q * ph


def orthonormalize(A) -> np.ndarray:
    """Column-orthonormal basis with the same span as A.

    Raises DegenerateInputError when the columns are numerically dependent
    (smallest singular value below 1e-12 times the largest).
    """
    A = _check_finite(A)
    n, k = A.shape
    if k > n:
        raise DegenerateInputError("more columns than rows: %d > %d" % (k, n))
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= 1e-12 * s[0]:
        raise DegenerateInputError("columns are numerically rank-deficient")
    Q, R = np.linalg.qr(A)
    d = np.diagonal(R)
    ph = np.where(d != 0.0, np.sign(d), 1.0)
    return Q * ph
