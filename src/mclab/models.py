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

from dataclasses import dataclass

import numpy as np

from .errors import GenerationFailureError, InvalidParameterError
from .geometry import TangentSpace, tangent_space
from .linalg import Rng, haar_orthogonal, svd

_ORTHO_TOL = 1e-8


@dataclass
class GroundTruth:
    """A planted matrix M = U diag(signs * sigma) V^T with its factors.

    sigma is positive and nonincreasing; signs is +-1 per component.  The
    sign information lives in `signs`, never folded into sigma, so the
    factor columns stay exactly the family columns they were drawn from.
    """

    U: np.ndarray
    V: np.ndarray
    sigma: np.ndarray
    signs: np.ndarray
    M: np.ndarray
    model: str
    seed: int = 0
    mu_b: float | None = None

    @property
    def n(self) -> int:
        return self.M.shape[0]

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


def _assemble(U, V, sigma, signs) -> np.ndarray:
    return (U * (signs * sigma)) @ V.T


def _check_family(F, n_expected=None) -> np.ndarray:
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise InvalidParameterError("basis family must be a square matrix")
    if n_expected is not None and F.shape[0] != n_expected:
        raise InvalidParameterError("families must share a dimension")
    dev = np.max(np.abs(F.T @ F - np.eye(F.shape[0])))
    if dev > _ORTHO_TOL:
        raise InvalidParameterError(
            "basis family is not orthonormal (deviation %.3e)" % dev
        )
    return F


def hadamard_family(n: int) -> np.ndarray:
    """Normalized Hadamard basis (n a power of two): entries +-1/sqrt(n),
    so the flatness statistic n * max entry^2 is exactly 1."""
    if n < 1 or (n & (n - 1)) != 0:
        raise InvalidParameterError("Hadamard family needs n a power of two")
    H = np.ones((1, 1))
    while H.shape[0] < n:  # Sylvester doubling
        H = np.block([[H, H], [H, -H]])
    return H / np.sqrt(n)


def gen_uniformly_bounded(fam_u, fam_v, r: int, rng: Rng, sigma=None,
                          coupled: bool = False, with_replacement: bool = False,
                          random_signs: bool = True) -> GroundTruth:
    """Pick r columns from each family and attach signed singular values.

    coupled=True reuses the left selection on the right (beta = alpha).
    with_replacement=True allows repeated columns; the assembled sum is
    then re-factored by an SVD, so the returned rank can drop below r.
    random_signs=False disables the sign flips (only useful to demonstrate
    in tests why they are needed).
    """
    fam_u = _check_family(fam_u)
    fam_v = _check_family(fam_v, n_expected=fam_u.shape[0])
    n = fam_u.shape[0]
    if not (1 <= r <= n):
        raise InvalidParameterError("need 1 <= r <= n")
    sigma = _check_sigma(sigma, r)

    gen = rng.gen
    alpha = gen.choice(n, size=r, replace=with_replacement)
    beta = alpha if coupled else gen.choice(n, size=r, replace=with_replacement)
    if random_signs:
        signs = gen.integers(0, 2, size=r) * 2.0 - 1.0
    else:
        signs = np.ones(r)

    U = fam_u[:, alpha]
    V = fam_v[:, beta]
    M = _assemble(U, V, sigma, signs)

    dup = len(set(alpha.tolist())) < r or len(set(np.asarray(beta).tolist())) < r
    if with_replacement and dup:
        # repeated selections break column orthonormality; re-factor the sum
        f = svd(M)
        keep = f.S > 1e-12 * max(float(f.S[0]), 1e-300)
        if not keep.any():
            raise GenerationFailureError("duplicate terms cancelled to zero")
        return GroundTruth(
            U=f.U[:, keep], V=f.V[:, keep], sigma=f.S[keep],
            signs=np.ones(int(keep.sum())), M=M,
            model="uniform_bounded", seed=rng.seed,
        )
    return GroundTruth(U=U, V=V, sigma=sigma, signs=signs, M=M,
                       model="uniform_bounded", seed=rng.seed)


def gen_random_orthogonal(n: int, r: int, rng: Rng, sigma=None) -> GroundTruth:
    """Factors are the first r columns of independent Haar rotations."""
    if not (1 <= r <= n):
        raise InvalidParameterError("need 1 <= r <= n")
    sigma = _check_sigma(sigma, r)
    U = haar_orthogonal(n, rng)[:, :r]
    V = haar_orthogonal(n, rng.substream(1))[:, :r]
    signs = np.ones(r)
    return GroundTruth(U=U, V=V, sigma=sigma, signs=signs,
                       M=_assemble(U, V, sigma, signs),
                       model="random_orth", seed=rng.seed)


def gen_low_coherence(n: int, r: int, rng: Rng, mu_b_cap: float, sigma=None,
                      max_attempts: int = 1000) -> GroundTruth:
    """Random orthogonal factors, rejected until n * max entry^2 <= cap.

    r is capped at 8 to keep the acceptance region reachable; the flatness
    statistic concentrates near 2 log(2 n r) as the factors widen, so large
    r with a tight cap would reject forever.
    """
    if not (1 <= r <= min(n, 8)):
        raise InvalidParameterError("need 1 <= r <= min(n, 8)")
    if mu_b_cap < 1.0:
        raise InvalidParameterError("mu_b_cap below 1 is unsatisfiable")
    sigma = _check_sigma(sigma, r)
    for attempt in range(max_attempts):
        sub = rng.substream(attempt)
        U = haar_orthogonal(n, sub)[:, :r]
        V = haar_orthogonal(n, sub.substream(1))[:, :r]
        mu_b = n * max(float(np.max(U ** 2)), float(np.max(V ** 2)))
        if mu_b <= mu_b_cap:
            signs = np.ones(r)
            return GroundTruth(U=U, V=V, sigma=sigma, signs=signs,
                               M=_assemble(U, V, sigma, signs),
                               model="low_coherence", seed=rng.seed, mu_b=mu_b)
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
    if mu0 < 1.0:
        raise InvalidParameterError("mu0 must be >= 1")
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
    signs = np.ones(r)
    seed = rng.seed if rng is not None else 0
    return GroundTruth(U=U, V=U.copy(), sigma=sigma, signs=signs,
                       M=_assemble(U, U, sigma, signs),
                       model="block", seed=seed,
                       mu_b=float(n / ell))


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
    """Inverse of gt_to_text; M is reassembled from the stored factors."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise InvalidParameterError("missing '# n r model seed' header")
    head = lines[0][1:].split()
    if len(head) != 4:
        raise InvalidParameterError("malformed header: %r" % lines[0])
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

    if U.shape != (n, r) or V.shape != (n, r):
        raise InvalidParameterError("factor block shape mismatch")
    if sigma.shape != (r,) or signs.shape != (r,):
        raise InvalidParameterError("sigma/signs length mismatch")
    return GroundTruth(U=U, V=V, sigma=sigma, signs=signs,
                       M=_assemble(U, V, sigma, signs),
                       model=model, seed=seed, mu_b=mu_b)
