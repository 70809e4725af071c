"""Random low-rank ground-truth generators.

Four families, spanning the easy-to-complete and impossible-to-complete
extremes:

* uniformly bounded: r columns picked from fixed flat orthobases, with
  i.i.d. sign flips on the singular values.  The flips matter: without
  them self-paired selections pile up a large diagonal in the sign
  pattern (see the regression tests).
* random orthogonal: factors are the leading r columns of independent
  Haar rotations.
* low coherence: random orthogonal, rejection-sampled until the factor
  entries are flat enough (n * max entry^2 <= cap).
* block: the adversarial lower-bound construction, rank-r block-diagonal
  with constant blocks, so any unobserved block row leaves the matrix
  undeterminable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import GenerationFailureError, InvalidParameterError
from .geometry import TangentSpace, _check_factor, tangent_space
from .linalg import Rng, haar_orthogonal


@dataclass(eq=False)
class GroundTruth:
    """A planted matrix M = U diag(signs * sigma) V^T, held as its factors.

    sigma is positive and nonincreasing; signs is +-1 per component.  The
    sign information lives in `signs`, never folded into sigma, so the
    factor columns stay exactly the family columns they were drawn from.
    M is not stored: it is assembled from the factors on first read.
    == is identity: comparing the factor arrays has no single truth value.
    """

    U: np.ndarray
    V: np.ndarray
    sigma: np.ndarray
    signs: np.ndarray
    model: str
    seed: int = 0
    mu_b: float | None = None

    @cached_property
    def M(self) -> np.ndarray:
        return (self.U * (self.signs * self.sigma)) @ self.V.T

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def r(self) -> int:
        return int(self.sigma.shape[0])

    def tangent_space(self) -> TangentSpace:
        """Tangent space at M, with the sign pattern of M itself.

        Signs are absorbed into the right factor so that the paired columns
        are genuine singular-vector pairs of M.
        """
        return tangent_space(self.U, self.V * self.signs)


def default_sigma(r: int) -> np.ndarray:
    """Spectrum 1 + (r-k)/r for k = 1..r: distinct, in (1, 2]."""
    if r < 1:
        raise InvalidParameterError("r must be >= 1")
    return np.array([1.0 + (r - k) / r for k in range(1, r + 1)])


def _check_sigma(sigma, r: int) -> np.ndarray:
    if sigma is None:
        return default_sigma(r)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (r,):
        raise InvalidParameterError("sigma must have length r=%d" % r)
    if not (sigma > 0).all():
        raise InvalidParameterError("sigma must be positive")
    if (np.diff(sigma) > 0).any():
        raise InvalidParameterError("sigma must be nonincreasing")
    return sigma


def _check_family(F) -> np.ndarray:
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise InvalidParameterError("basis family must be a square matrix")
    return _check_factor(F, "basis family")


def _check_hadamard_order(n: int) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise InvalidParameterError("Hadamard family needs n a power of two")


def hadamard_family(n: int) -> np.ndarray:
    """Normalized Hadamard basis (n a power of two): entries +-1/sqrt(n),
    so the flatness statistic n * max entry^2 is exactly 1."""
    _check_hadamard_order(n)
    H = np.ones((1, 1))
    while H.shape[0] < n:  # Sylvester doubling
        H = np.block([[H, H], [H, -H]])
    return H / np.sqrt(n)


def gen_uniformly_bounded(fam, r: int, rng: Rng, sigma=None,
                          coupled: bool = False,
                          random_signs: bool = True) -> GroundTruth:
    """Pick r distinct columns of the family for each factor and attach
    signed singular values.

    coupled=True reuses the left selection on the right (beta = alpha).
    random_signs=False disables the sign flips (only useful to demonstrate
    in tests why they are needed).
    """
    fam = _check_family(fam)
    n = fam.shape[0]
    if not (1 <= r <= n):
        raise InvalidParameterError("need 1 <= r <= n")
    sigma = _check_sigma(sigma, r)

    gen = rng.gen
    alpha = gen.choice(n, size=r, replace=False)
    beta = alpha if coupled else gen.choice(n, size=r, replace=False)
    if random_signs:
        signs = gen.integers(0, 2, size=r) * 2.0 - 1.0
    else:
        signs = np.ones(r)

    return GroundTruth(U=fam[:, alpha], V=fam[:, beta], sigma=sigma,
                       signs=signs, model="uniform_bounded", seed=rng.seed)


def gen_random_orthogonal(n: int, r: int, rng: Rng, sigma=None) -> GroundTruth:
    """Factors are the first r columns of independent Haar rotations."""
    if not (1 <= r <= n):
        raise InvalidParameterError("need 1 <= r <= n")
    sigma = _check_sigma(sigma, r)
    U = haar_orthogonal(n, rng)[:, :r]
    V = haar_orthogonal(n, rng.substream(1))[:, :r]
    return GroundTruth(U=U, V=V, sigma=sigma, signs=np.ones(r),
                       model="random_orth", seed=rng.seed)


def _check_low_coherence(n: int, r: int, mu_b_cap: float) -> None:
    if not (1 <= r <= min(n, 8)):
        raise InvalidParameterError("need 1 <= r <= min(n, 8)")
    if not mu_b_cap >= 1.0:  # NaN fails it too
        raise InvalidParameterError("mu_b_cap must be >= 1, got %r" % (mu_b_cap,))


def gen_low_coherence(n: int, r: int, rng: Rng, mu_b_cap: float, sigma=None,
                      max_attempts: int = 1000) -> GroundTruth:
    """Random orthogonal draws on substreams 0, 1, ... of rng, rejected
    until n * max entry^2 <= cap.

    r is capped at 8 to keep the acceptance region reachable; the flatness
    statistic concentrates near 2 log(2 n r) as the factors widen, so large
    r with a tight cap would reject forever.
    """
    _check_low_coherence(n, r, mu_b_cap)
    for attempt in range(max_attempts):
        gt = gen_random_orthogonal(n, r, rng.substream(attempt), sigma=sigma)
        mu_b = n * max(float(np.max(gt.U ** 2)), float(np.max(gt.V ** 2)))
        if mu_b <= mu_b_cap:
            return replace(gt, model="low_coherence", mu_b=mu_b)
    raise GenerationFailureError(
        "no draw met mu_b <= %g in %d attempts" % (mu_b_cap, max_attempts)
    )


@dataclass
class BlockModelSpec:
    """Geometry of the adversarial block construction.

    ell = floor(n / (mu0 * r)) rows per block; block k covers rows
    [k*ell, (k+1)*ell).  Rows beyond r*ell are identically zero.  The
    realized leverage statistic is n / (r * ell) >= mu0.
    """

    n: int
    r: int
    mu0: float
    ell: int
    blocks: list


def block_model_spec(n: int, r: int, mu0: float) -> BlockModelSpec:
    if not (1 <= r <= n):
        raise InvalidParameterError("need 1 <= r <= n")
    if not mu0 >= 1.0:  # NaN fails it too
        raise InvalidParameterError("mu0 must be >= 1, got %r" % (mu0,))
    ell = int(np.floor(n / (mu0 * r)))
    if ell < 1:
        raise InvalidParameterError(
            "no room for blocks: floor(n / (mu0 r)) = 0 with n=%d r=%d mu0=%g"
            % (n, r, mu0)
        )
    blocks = [(k * ell, (k + 1) * ell) for k in range(r)]
    return BlockModelSpec(n=n, r=r, mu0=mu0, ell=ell, blocks=blocks)


def gen_lower_bound_block(bspec: BlockModelSpec, rng: Rng | None = None,
                          sigma=None) -> GroundTruth:
    """Symmetric block-diagonal ground truth for the sampling lower bound.

    Each factor column is the normalized indicator of its block, so every
    entry of M inside block k equals sigma_k / ell and recovering M needs
    at least one sample in every block row.
    """
    n, r, ell = bspec.n, bspec.r, bspec.ell
    if sigma is None:
        base = default_sigma(r)
        sigma = base / base[0]  # keep values in (0, 1]
    sigma = _check_sigma(sigma, r)
    U = np.zeros((n, r))
    for k, (lo, hi) in enumerate(bspec.blocks):
        U[lo:hi, k] = 1.0 / np.sqrt(ell)
    seed = rng.seed if rng is not None else 0
    return GroundTruth(U=U, V=U.copy(), sigma=sigma, signs=np.ones(r),
                       model="block", seed=seed, mu_b=float(n / ell))


def gt_to_text(gt: GroundTruth) -> str:
    """Serialize header '# n r model seed' then U, sigma, signs, V blocks."""
    lines = ["# %d %d %s %d" % (gt.n, gt.r, gt.model, gt.seed)]
    lines.append("U:")
    for row in gt.U:
        lines.append(" ".join(repr(float(x)) for x in row))
    lines.append("sigma: " + " ".join(repr(float(x)) for x in gt.sigma))
    lines.append("signs: " + " ".join(repr(float(x)) for x in gt.signs))
    lines.append("V:")
    for row in gt.V:
        lines.append(" ".join(repr(float(x)) for x in row))
    if gt.mu_b is not None:
        lines.append("mu_b: " + repr(float(gt.mu_b)))
    return "\n".join(lines) + "\n"


def gt_from_text(text: str) -> GroundTruth:
    """Inverse of gt_to_text."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise InvalidParameterError("missing '# n r model seed' header")
    head = lines[0][1:].split()
    if len(head) != 4:
        raise InvalidParameterError("malformed header: %r" % lines[0])
    # a cut text runs off the end of lines; a bad number or ragged row is a ValueError
    try:
        n, r = int(head[0]), int(head[1])
        model, seed = head[2], int(head[3])

        idx = 1
        if lines[idx] != "U:":
            raise InvalidParameterError("expected 'U:' block")
        U = np.array([[float(x) for x in lines[idx + 1 + i].split()] for i in range(n)])
        idx += 1 + n
        if not lines[idx].startswith("sigma:"):
            raise InvalidParameterError("expected 'sigma:' line")
        sigma = np.array([float(x) for x in lines[idx].split()[1:]])
        idx += 1
        if not lines[idx].startswith("signs:"):
            raise InvalidParameterError("expected 'signs:' line")
        signs = np.array([float(x) for x in lines[idx].split()[1:]])
        idx += 1
        if lines[idx] != "V:":
            raise InvalidParameterError("expected 'V:' block")
        V = np.array([[float(x) for x in lines[idx + 1 + i].split()] for i in range(n)])
        idx += 1 + n
        mu_b = None
        if idx < len(lines) and lines[idx].startswith("mu_b:"):
            mu_b = float(lines[idx].split()[1])
    except (IndexError, ValueError) as exc:
        raise InvalidParameterError("malformed ground truth text: %s" % exc) from exc

    if U.shape != (n, r) or V.shape != (n, r):
        raise InvalidParameterError("factor block shape mismatch")
    if sigma.shape != (r,) or signs.shape != (r,):
        raise InvalidParameterError("sigma/signs length mismatch")
    return GroundTruth(U=U, V=V, sigma=sigma, signs=signs,
                       model=model, seed=seed, mu_b=mu_b)
