"""Dense linear-algebra primitives used throughout the package.

Everything here is deterministic given its inputs and an explicit Rng, so
experiment rows and serialized artifacts are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError

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


# SeedSequence(seed, spawn_key=(key,)) with a 64-bit seed hashes four
# zero-padded seed words (hash constants 0-3), mixes them pairwise (4-15),
# then each key word into every pool word (16-19 and 20-23); the hash steps
# of generate_state(4, uint64) use the B constants.
_CONSTS_A = _powers(_INIT_A, _MULT_A, 25)
_CONSTS_B = _powers(_INIT_B, _MULT_B, 9)


def _mix(x, y):
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> _XSHIFT)


def _hashmix(value, i: int, width: int = 1):
    """hashmix of value with the hash constants i .. i + width - 1."""
    out = (value ^ _CONSTS_A[i:i + width]) * _CONSTS_A[i + 1:i + width + 1]
    return out ^ (out >> _XSHIFT)


@lru_cache(maxsize=8)
def _seed_pool(seed: int) -> np.ndarray:
    """SeedSequence's pool after hashing a 64-bit seed, before the key."""
    pool = _hashmix(np.array([seed & _MASK32, seed >> 32, 0, 0], dtype=np.uint32), 0, 4)
    c = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst:dst + 1] = _mix(pool[dst:dst + 1], _hashmix(pool[src:src + 1], c))
                c += 1
    pool.flags.writeable = False
    return pool


def _pcg64_words(seed: int, keys: list[int]) -> np.ndarray:
    """Row s holds generate_state(4, uint64) of SeedSequence(seed,
    spawn_key=(keys[s],)), for a seed and keys already masked to 64 bits.

    Only the key differs between rows, so the seed's pool is hashed once
    and the key words are mixed in as uint32 array operations.
    """
    key = np.array(keys, dtype=np.uint64)
    lo = (key & _MASK32).astype(np.uint32)[:, None]
    pool = _mix(_seed_pool(seed), _hashmix(lo, 16, 4))
    # a key below 2**32 (0 too) is one word, a larger key two
    two = np.flatnonzero(key >> 32)
    if two.size:
        hi = (key[two] >> 32).astype(np.uint32)[:, None]
        pool[two] = _mix(pool[two], _hashmix(hi, 20, 4))
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
            rng._gen = np.random.Generator(np.random.PCG64(preset(w)))
        return rngs

    def substream(self, k: int) -> "Rng":
        """Child stream ``k``, 0 <= k < 2**20, of this stream.

        A convenience for per-trial loops; ``batch`` seeds many streams'
        generators at once, e.g. ``Rng.batch(seed, [rng.substream(k).stream
        for k in ks])``.
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
