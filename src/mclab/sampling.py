"""Random observation patterns and the associated sampling operators.

A SampleSet holds the observed index set Omega of an n1 x n2 grid together
with the sampling model that produced it ("bernoulli" or "uniform") and the
recorded observation fraction p.  Its one canonical form is the boolean
mask of Omega.  The samplers draw the mask directly; the index arrays are
derived from it on first use, so they are in row-major order with
duplicates dropped, whatever order the indices of the index constructor
arrived in.  Two linear operators act on matrices, both through the mask:

* ``project_omega``   -- keep observed entries, zero elsewhere
* ``q_omega``         -- the rescaled, zero-mean version (1/p) * P_Omega - I,
                         which satisfies the exact algebra
                         Q^2 = (1/p) * ((1 - 2p) * Q + (1 - p) * I)
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .linalg import Rng


class SampleSet:
    """Observed index set with its sampling metadata.

    ``SampleSet(n1=, n2=, rows=, cols=, model=, p=, m_nominal=)`` takes
    parallel index arrays: they are range-checked and scattered into
    ``mask``, the canonical form.  ``rows``/``cols`` are read back from the
    mask with one ``np.nonzero`` on first access and cached: int64, sorted
    row-major, no duplicates.  ``size`` counts the mask and does not need
    them.  ``p`` is the Bernoulli rate for the bernoulli model and
    m / (n1*n2) for the uniform model; ``m_nominal`` is the target count
    (the realized count is ``size``).
    """

    __slots__ = ("n1", "n2", "model", "p", "m_nominal", "mask", "_index")

    def __init__(self, n1: int, n2: int, rows, cols, model: str, p: float,
                 m_nominal: int):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if n1 < 0 or n2 < 0:
            raise InvalidParameterError("grid dimensions must be >= 0")
        if rows.shape != cols.shape or rows.ndim != 1:
            raise InvalidParameterError("rows/cols must be parallel 1-d arrays")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n1:
                raise InvalidParameterError("row index out of range")
            if cols.min() < 0 or cols.max() >= n2:
                raise InvalidParameterError("column index out of range")
        # the checks above also keep a negative index from wrapping here
        mask = np.zeros((n1, n2), dtype=bool)
        mask[rows, cols] = True
        self._adopt(mask, model, p, m_nominal)

    @classmethod
    def _of_mask(cls, mask: np.ndarray, model: str, p: float,
                 m_nominal: int) -> "SampleSet":
        """Wrap a boolean mask the caller built, as is: no copy, no checks."""
        S = cls.__new__(cls)
        S._adopt(mask, model, p, m_nominal)
        return S

    def _adopt(self, mask, model, p, m_nominal):
        self.n1, self.n2 = mask.shape
        self.mask = mask
        self.model = model
        self.p = p
        self.m_nominal = m_nominal
        self._index = None

    def _indices(self) -> tuple[np.ndarray, np.ndarray]:
        if self._index is None:
            # nonzero reads the mask row-major, once per entry
            self._index = np.nonzero(self.mask)
        return self._index

    @property
    def rows(self) -> np.ndarray:
        """Row index of each observed entry, row-major order."""
        return self._indices()[0]

    @property
    def cols(self) -> np.ndarray:
        """Column index of each observed entry, parallel to ``rows``."""
        return self._indices()[1]

    @property
    def size(self) -> int:
        """Number of observed entries."""
        return int(np.count_nonzero(self.mask))

    def __repr__(self) -> str:
        return "SampleSet(n1=%d, n2=%d, model=%r, p=%r, m_nominal=%d, size=%d)" % (
            self.n1, self.n2, self.model, self.p, self.m_nominal, self.size)


def sample_bernoulli(n1: int, p: float, rng: Rng, n2: int | None = None) -> SampleSet:
    """Each entry observed independently with probability p in (0, 1]."""
    if n2 is None:
        n2 = n1
    if n1 < 1 or n2 < 1:
        raise InvalidParameterError("grid dimensions must be >= 1")
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError("p must lie in (0, 1], got %r" % (p,))
    mask = rng.gen.random((n1, n2)) < p
    return SampleSet._of_mask(mask, "bernoulli", float(p), int(round(p * n1 * n2)))


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
    mask = np.zeros(total, dtype=bool)
    mask[lin] = True
    return SampleSet._of_mask(mask.reshape(n1, n2), "uniform", m / total, int(m))


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


def _number(kind, text: str, what: str):
    """Parse text with kind; unparsable text raises InvalidParameterError."""
    try:
        return kind(text)
    except ValueError:
        raise InvalidParameterError(
            "%s is not a valid %s: %r" % (what, kind.__name__, text)) from None


def from_text(text: str) -> SampleSet:
    """Inverse of to_text."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("#"):
        raise InvalidParameterError("missing '# n1 n2 model p m' header")
    head = lines[0][1:].split()
    if len(head) != 5:
        raise InvalidParameterError("malformed header: %r" % lines[0])
    n1, n2 = _number(int, head[0], "n1"), _number(int, head[1], "n2")
    model = head[2]
    if model not in ("bernoulli", "uniform"):
        raise InvalidParameterError("unknown sampling model %r" % model)
    p = _number(float, head[3], "p")
    m_nominal = _number(int, head[4], "m")
    rows = []
    cols = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InvalidParameterError("malformed index line: %r" % ln)
        rows.append(_number(int, parts[0], "row index"))
        cols.append(_number(int, parts[1], "column index"))
    return SampleSet(
        n1=n1, n2=n2, rows=np.array(rows, dtype=np.int64),
        cols=np.array(cols, dtype=np.int64), model=model, p=p, m_nominal=m_nominal,
    )
