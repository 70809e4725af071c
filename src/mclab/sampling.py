"""Random observation patterns and the associated sampling operators.

A SampleSet holds the observed index set Omega of an n1 x n2 grid together
with the sampling model that produced it ("bernoulli" or "uniform") and the
recorded observation fraction p.  Its canonical form comes from the boolean
mask of Omega: the index arrays are read back from the mask, so they are in
row-major order with duplicates dropped, whatever order they arrived in.
Two linear operators act on matrices:

* ``project_omega``   -- keep observed entries, zero elsewhere
* ``q_omega``         -- the rescaled, zero-mean version (1/p) * P_Omega - I,
                         which satisfies the exact algebra
                         Q^2 = (1/p) * ((1 - 2p) * Q + (1 - p) * I)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .linalg import Rng


@dataclass(eq=False)
class SampleSet:
    """Observed index set with its sampling metadata.

    rows/cols are parallel arrays sorted in row-major order with no
    duplicates: the given indices are range-checked, scattered into
    ``mask`` and read back from it with ``np.nonzero``.  ``p`` is the
    Bernoulli rate for the bernoulli model and m / (n1*n2) for the uniform
    model; ``m_nominal`` is the target count (the realized count is
    ``size``).
    """

    n1: int
    n2: int
    rows: np.ndarray
    cols: np.ndarray
    model: str
    p: float
    m_nominal: int
    mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        if self.rows.shape != self.cols.shape or self.rows.ndim != 1:
            raise InvalidParameterError("rows/cols must be parallel 1-d arrays")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= self.n1:
                raise InvalidParameterError("row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= self.n2:
                raise InvalidParameterError("column index out of range")
        # the checks above also keep a negative index from wrapping here
        self.mask = np.zeros((self.n1, self.n2), dtype=bool)
        self.mask[self.rows, self.cols] = True
        # nonzero reads the mask row-major, once per entry: sorted, no duplicates
        self.rows, self.cols = np.nonzero(self.mask)

    @property
    def size(self) -> int:
        """Number of observed entries."""
        return int(self.rows.size)


def sample_bernoulli(n1: int, p: float, rng: Rng, n2: int | None = None) -> SampleSet:
    """Each entry observed independently with probability p in (0, 1]."""
    if n2 is None:
        n2 = n1
    if n1 < 1 or n2 < 1:
        raise InvalidParameterError("grid dimensions must be >= 1")
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError("p must lie in (0, 1], got %r" % (p,))
    mask = rng.gen.random((n1, n2)) < p
    rows, cols = np.nonzero(mask)
    return SampleSet(
        n1=n1, n2=n2, rows=rows, cols=cols, model="bernoulli",
        p=float(p), m_nominal=int(round(p * n1 * n2)),
    )


def sample_uniform(n1: int, m: int, rng: Rng, n2: int | None = None) -> SampleSet:
    """Exactly m entries, uniform over all size-m subsets of the grid."""
    if n2 is None:
        n2 = n1
    if n1 < 1 or n2 < 1:
        raise InvalidParameterError("grid dimensions must be >= 1")
    total = n1 * n2
    if not (0 <= m <= total):
        raise InvalidParameterError("m must lie in [0, %d], got %r" % (total, m))
    lin = rng.gen.choice(total, size=m, replace=False)
    rows = lin // n2
    cols = lin % n2
    return SampleSet(
        n1=n1, n2=n2, rows=rows, cols=cols, model="uniform",
        p=m / total, m_nominal=int(m),
    )


def _check_shape(X, sset: SampleSet) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape != (sset.n1, sset.n2):
        raise InvalidParameterError(
            "matrix shape %r does not match sample grid (%d, %d)"
            % (X.shape, sset.n1, sset.n2)
        )
    return X


def project_omega(X, sset: SampleSet) -> np.ndarray:
    """Zero out every unobserved entry.  Idempotent, never increases norms."""
    X = _check_shape(X, sset)
    return np.where(sset.mask, X, 0.0)


def q_omega(X, sset: SampleSet) -> np.ndarray:
    """Apply (1/p) * P_Omega - I.  Zero mean over the sampling model."""
    X = _check_shape(X, sset)
    if not (sset.p > 0.0):
        raise InvalidParameterError("q_omega needs a recorded p > 0")
    return np.where(sset.mask, (1.0 / sset.p - 1.0) * X, -X)


def to_text(sset: SampleSet) -> str:
    """Serialize as a header line '# n1 n2 model p m' plus one 'i j' line
    per observed entry in row-major order."""
    lines = [
        "# %d %d %s %s %d" % (sset.n1, sset.n2, sset.model, repr(sset.p), sset.m_nominal)
    ]
    for i, j in zip(sset.rows, sset.cols):
        lines.append("%d %d" % (i, j))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> SampleSet:
    """Inverse of to_text."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("#"):
        raise InvalidParameterError("missing '# n1 n2 model p m' header")
    head = lines[0][1:].split()
    if len(head) != 5:
        raise InvalidParameterError("malformed header: %r" % lines[0])
    n1, n2 = int(head[0]), int(head[1])
    model = head[2]
    if model not in ("bernoulli", "uniform"):
        raise InvalidParameterError("unknown sampling model %r" % model)
    p = float(head[3])
    m_nominal = int(head[4])
    rows = []
    cols = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InvalidParameterError("malformed index line: %r" % ln)
        rows.append(int(parts[0]))
        cols.append(int(parts[1]))
    return SampleSet(
        n1=n1, n2=n2, rows=np.array(rows, dtype=np.int64),
        cols=np.array(cols, dtype=np.int64), model=model, p=p, m_nominal=m_nominal,
    )
