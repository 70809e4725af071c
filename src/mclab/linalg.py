"""Dense linear-algebra primitives used throughout the package.

Everything here is deterministic given its inputs and an explicit Rng, so
experiment rows and serialized artifacts are bit-reproducible.

The LAPACK routines that numpy does not expose come from scipy's LAPACK
extension module, which ``_flapack`` loads on first use without importing
``scipy.linalg``; the solver's threshold step and ``extreme_eigenvalues``
share it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import InvalidParameterError, NumericFailureError

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# SeedSequence's hash constants (numpy's bit_generator.pyx, after O'Neill's
# seed_seq for PCG); none depends on the data hashed.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i < count: the values hash_const takes."""
    return np.array([init * pow(mult, i, 1 << 32) & _MASK32 for i in range(count)],
                    dtype=np.uint32)


# SeedSequence(seed, spawn_key=(key,)) with a 64-bit seed hashes the seed
# into its pool (hash constants 0-15), then mixes each key word into every
# pool word (16-19 and 20-23); the hash steps of generate_state(4, uint64)
# use the B constants.
_CONSTS_A = _powers(_INIT_A, _MULT_A, 25)
_CONSTS_B = _powers(_INIT_B, _MULT_B, 9)


def _mix(x, y):
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> _XSHIFT)


def _hashmix(value, i: int):
    """hashmix of value into each of the four pool words, with the hash
    constants i .. i + 3."""
    out = (value ^ _CONSTS_A[i:i + 4]) * _CONSTS_A[i + 1:i + 5]
    return out ^ (out >> _XSHIFT)


@lru_cache(maxsize=8)
def _seed_pool(seed: int) -> np.ndarray:
    """The pool of SeedSequence(seed) for a 64-bit seed: a keyed
    SeedSequence's pool before it mixes in the key words."""
    pool = np.random.SeedSequence(seed).pool
    pool.flags.writeable = False
    return pool


def _pcg64_words(seed: int, keys: list[int]) -> np.ndarray:
    """Row s holds generate_state(4, uint64) of SeedSequence(seed,
    spawn_key=(keys[s],)), for a seed and keys already masked to 64 bits.

    Only the key differs between rows, so the seed's pool comes from numpy
    once, and the key words and generate_state, which numpy runs for one
    stream at a time, run over all the rows as uint32 array operations.
    """
    key = np.array(keys, dtype=np.uint64)
    lo = (key & _MASK32).astype(np.uint32)[:, None]
    pool = _mix(_seed_pool(seed), _hashmix(lo, 16))
    # a key below 2**32 (0 too) is one word, a larger key two
    two = np.flatnonzero(key >> 32)
    if two.size:
        hi = (key[two] >> 32).astype(np.uint32)[:, None]
        pool[two] = _mix(pool[two], _hashmix(hi, 20))
    state = pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ _CONSTS_B[:8]
    state *= _CONSTS_B[1:]
    state ^= state >> _XSHIFT
    # packed as SeedSequence packs them, whatever the host byte order
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=1)
def _preset_words():
    """A seed sequence type whose state is words already generated; made on
    first use, so that importing mclab does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class PresetWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return PresetWords


@dataclass
class Rng:
    """Reproducible random source: a base ``seed`` plus a ``stream`` index.

    Identical (seed, stream) pairs yield identical draws.  A stream's
    generator is PCG64 seeded by SeedSequence(seed, spawn_key=(stream,)),
    both masked to 64 bits, rather than by seed arithmetic, so distinct
    streams never collide.  ``batch`` seeds many streams' generators in one
    pass, bit for bit the same as that derivation.
    """

    seed: int
    stream: int = 0

    @cached_property
    def gen(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed & _MASK64,
                                    spawn_key=(self.stream & _MASK64,))
        # what default_rng(ss) builds, without its argument dispatch
        return np.random.Generator(np.random.PCG64(ss))

    @classmethod
    def batch(cls, seed: int, streams) -> list["Rng"]:
        """One Rng per stream, generators preset and identical to ``.gen``.

        The SeedSequence hashing runs once over all the streams; ``.gen``
        keeps numpy's own SeedSequence for a stream made on its own.
        """
        rngs = [cls(seed, s) for s in streams]
        words = _pcg64_words(seed & _MASK64, [rng.stream & _MASK64 for rng in rngs])
        preset = _preset_words()
        for rng, w in zip(rngs, words):
            rng.gen = np.random.Generator(np.random.PCG64(preset(w)))
        return rngs

    def substream(self, k: int) -> "Rng":
        """Child stream ``k``, 0 <= k < 2**20, of this stream.

        A convenience for per-trial loops; ``batch`` seeds many streams'
        generators at once, e.g. ``subs = Rng.batch(seed,
        [rng.substream(k).stream for k in ks])``, and
        ``sampling._bernoulli_masks(subs, p, (n, n))`` then draws their
        masks into one stack.
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


def _flapack():
    """scipy's LAPACK extension module ``scipy.linalg._flapack``.

    The module already loaded is reused.  Otherwise only the top-level
    scipy package is imported (its init readies the bundled OpenBLAS) and
    the extension is found in scipy's linalg directory and loaded under
    its own name, so a later ``import scipy.linalg`` adopts this very
    module.  Importing scipy.linalg itself would also load scipy's
    array-API layer with numpy.f2py, numpy.testing and numpy.ma, which
    mclab never uses: about half of a solving process's start-up.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    import scipy

    path = os.path.join(scipy.__path__[0], "linalg", "_flapack")
    spec = importlib.machinery.PathFinder.find_spec(name, [os.path.dirname(path)])
    if spec is None:
        raise ImportError("scipy's LAPACK extension is missing: %s" % path,
                          name=name, path=path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


@cache
def _sytrd_lwork(n: int) -> int:
    """The optimal ``dsytrd`` workspace at order n, lower triangle.

    The workspace size picks the blocked or unblocked Householder
    reduction, so it is queried once per order and every call at that
    order reduces the same way.
    """
    work, info = _flapack().dsytrd_lwork(n, lower=1)
    if info != 0:
        raise NumericFailureError("dsytrd workspace query failed (info=%d)" % info)
    return int(work)


def _bisect(lapack, d, e, k: int) -> float | None:
    """The k-th smallest eigenvalue (1-based) of the symmetric tridiagonal
    matrix with diagonal d and off-diagonal e, by ``dstebz`` bisection; None
    when dstebz reports that it could not fill the index range."""
    # range "I" (3) for index k alone; abstol 0 asks for eps * ||A||
    found, w, _, _, info = lapack.dstebz(d, e, 3, 0.0, 0.0, k, k, 0.0, b"E")
    if info in (2, 3):
        return None
    if info != 0 or found != 1:
        raise NumericFailureError("dstebz failed (info=%d)" % info)
    return float(w[0])


def extreme_eigenvalues(A) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the symmetric matrix A, exactly.

    Only the lower triangle of A is read, as ``np.linalg.eigvalsh`` reads
    it.  One Householder reduction to tridiagonal form (LAPACK ``dsytrd``)
    is followed by one bisection for each end of the spectrum (``dstebz``,
    by index), so the other eigenvalues are never computed.  Each end is
    accurate to a few units of eps * ||A||, as eigvalsh's values are.

    Bisection by index can miss its index when a large cluster of equal
    eigenvalues splits the tridiagonal matrix into many blocks (a Gram
    matrix of a fully sampled tangent space, for one); dstebz reports it,
    and all eigenvalues of the tridiagonal matrix (``dsterf``, eigvalsh's
    own second step) give the ends instead, as LAPACK prescribes.
    """
    A = _check_finite(A)
    n = A.shape[0]
    if n == 0 or A.shape != (n, n):
        raise InvalidParameterError("expected a nonempty square matrix, got shape %r"
                                    % (A.shape,))
    lapack = _flapack()
    _, d, e, _, info = lapack.dsytrd(A, lower=1, lwork=_sytrd_lwork(n))
    if info != 0:
        raise NumericFailureError("dsytrd failed (info=%d)" % info)
    if n > 1:  # scipy's dstebz wrapper refuses an empty off-diagonal
        lo, hi = _bisect(lapack, d, e, 1), _bisect(lapack, d, e, n)
        if lo is not None and hi is not None:
            return lo, hi
        d, info = lapack.dsterf(d, e)  # ascending
        if info != 0:
            raise NumericFailureError("dsterf failed (info=%d)" % info)
    return float(d[0]), float(d[-1])


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
