"""Dense linear-algebra primitives used throughout the package.

Everything here is deterministic given its inputs and an explicit Rng, so
experiment rows and serialized artifacts are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

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
        """Child stream ``k``, 0 <= k < 2**20, of this stream.

        Callers that need many independent streams should manage stream
        indices directly; this is a convenience for per-trial loops.
        """
        if not 0 <= k < 1 << 20:
            raise InvalidParameterError("substream index must lie in [0, 2**20)")
        return Rng(self.seed, (self.stream << 20) + k)


def _check_finite(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidParameterError("expected a 2-d array, got shape %r" % (A.shape,))
    if not np.isfinite(A).all():
        raise InvalidParameterError("matrix contains non-finite entries")
    return A


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
