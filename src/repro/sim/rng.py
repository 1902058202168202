"""Deterministic random-number streams.

Each subsystem (radio shadowing, fast fading, mobility, stack-bug
losses, ...) draws from its own named :class:`numpy.random.Generator`
stream derived from a single master seed.  This keeps experiments
reproducible while ensuring that, for example, adding one extra radio
sample does not perturb the mobility trajectory.

Where each of many seeds needs only its generator's first draw (the
advertisers' per-slot advDelay), :func:`derive_seeds` derives the seeds
as one array and :func:`first_random` gives those draws for an array
of seeds at once, bitwise, without building a generator per seed.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

__all__ = ["derive_seed", "derive_seeds", "first_random", "RngStreams"]


def _seed_bytes(master_seed: int, name: str) -> bytes:
    """A derived seed's 8 bytes, little-endian: the head of SHA-256 over
    ``"{master_seed}:{name}"`` in UTF-8."""
    return hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()[:8]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a child seed from ``master_seed`` and a stream ``name``.

    Uses SHA-256 over the ``(master_seed, name)`` pair so that streams
    are statistically independent and stable across Python processes
    (unlike ``hash()``, which is salted per process).
    """
    return int.from_bytes(_seed_bytes(master_seed, name), "little")


def derive_seeds(master_seed: int, names: Sequence[str]) -> np.ndarray:
    """:func:`derive_seed` for every name, as a ``uint64`` array.

    The names' seed bytes are joined and read as one little-endian
    array instead of one ``int`` per name.
    """
    heads = b"".join([_seed_bytes(master_seed, name) for name in names])
    return np.frombuffer(heads, dtype="<u8").astype(np.uint64)


# ----------------------------------------------------------------------
# first_random: NumPy's default_rng(seed).random() over an array of seeds
# ----------------------------------------------------------------------
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> list:
    """SeedSequence's running hash multiplier: ``init``, then times ``mult``."""
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & _MASK32)
    return out


def _column(values, dtype) -> np.ndarray:
    return np.array(values, dtype=dtype)[:, None]


# SeedSequence (numpy/random/bit_generator.pyx) with its default pool of
# four uint32 words.  ``hashmix`` call k xors in constant k of the A
# chain and multiplies by constant k + 1; the pool fill makes calls
# 0-3, mixing source word s into the other three makes calls 4 + 3s to
# 6 + 3s, and ``generate_state`` walks the B chain the same way.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_FILL = (_column(_HASH_A[0:4], np.uint32), _column(_HASH_A[1:5], np.uint32))
_MIX_ROUNDS = [
    (
        src,
        np.array([dst for dst in range(4) if dst != src]),
        _column(_HASH_A[4 + 3 * src : 7 + 3 * src], np.uint32),
        _column(_HASH_A[5 + 3 * src : 8 + 3 * src], np.uint32),
    )
    for src in range(4)
]
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
#: ``generate_state(4, np.uint64)``: eight words from the pool, cycled.
_STATE_WORDS = np.array([0, 1, 2, 3, 0, 1, 2, 3])
_STATE = (_column(_HASH_B[0:8], np.uint32), _column(_HASH_B[1:9], np.uint32))
_SHIFT16 = np.uint32(16)

# PCG64 (numpy/random/src/pcg64): seeding sets state = 0 and
# inc = 2 * initseq + 1, steps, adds initstate and steps again; random()
# steps once more and outputs.  With the step s -> s * M + inc, the
# state it outputs is initstate * M**2 + inc * (M**2 + M + 1) mod 2**128.
_PCG_MULT = (0x2360ED051FC65DA4 << 64) | 0x4385DF649FCCF645
_MOD128 = (1 << 128) - 1
_STATE_COEFFS = (
    _PCG_MULT * _PCG_MULT & _MOD128,
    (_PCG_MULT * _PCG_MULT + _PCG_MULT + 1) & _MOD128,
)
#: The two coefficients' halves: low 64 bits, split into 32-bit limbs,
#: and high 64 bits, one row per coefficient.
_COEFF_LO = _column([c & (2**64 - 1) for c in _STATE_COEFFS], np.uint64)
_COEFF_HI = _column([c >> 64 for c in _STATE_COEFFS], np.uint64)
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)
_COEFF_LO0 = _COEFF_LO & _LOW32
_COEFF_LO1 = _COEFF_LO >> _SHIFT32
_ONE = np.uint64(1)


def _mulhi64(a: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """High 64 bits of ``a * b`` for uint64 ``a`` and ``b = b1 * 2**32 + b0``."""
    a0 = a & _LOW32
    a1 = a >> _SHIFT32
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    carry = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (carry >> _SHIFT32)


def first_random(seeds) -> np.ndarray:
    """``np.random.default_rng(s).random()`` for every 64-bit seed ``s``.

    Bitwise the generator's first double, without constructing one
    generator per seed: NumPy's SeedSequence mixing runs on ``uint32``
    arrays (a seed below 2**32 is one entropy word and the pool pads it
    with the hash of 0, which equals a second word of 0, so every seed
    is taken as two words), and PCG64's seeding and first step are one
    128-bit multiply-add in closed form (see ``_STATE_COEFFS``), done
    in 64-bit halves.  ``seeds`` may have any shape; the result has the
    same shape.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    flat = seeds.reshape(-1)
    words = np.zeros((4, flat.size), dtype=np.uint32)
    words[0] = flat & _LOW32
    words[1] = flat >> _SHIFT32
    pool = (words ^ _FILL[0]) * _FILL[1]
    pool ^= pool >> _SHIFT16
    for src, dst, xor, mult in _MIX_ROUNDS:
        hashed = (pool[src] ^ xor) * mult
        hashed ^= hashed >> _SHIFT16
        mixed = _MIX_L * pool[dst] - _MIX_R * hashed
        mixed ^= mixed >> _SHIFT16
        pool[dst] = mixed
    state = (pool[_STATE_WORDS] ^ _STATE[0]) * _STATE[1]
    state ^= state >> _SHIFT16
    wide = state.astype(np.uint64)
    # Little-endian pairs: initstate (high, low), then initseq.
    init_hi, init_lo, seq_hi, seq_lo = wide[0::2] | (wide[1::2] << _SHIFT32)
    # Row 0 is initstate, row 1 inc = 2 * initseq + 1.
    x_hi = np.empty((2, flat.size), dtype=np.uint64)
    x_lo = np.empty_like(x_hi)
    x_hi[0] = init_hi
    x_lo[0] = init_lo
    x_hi[1] = (seq_hi << _ONE) | (seq_lo >> np.uint64(63))
    x_lo[1] = (seq_lo << _ONE) | _ONE
    # Row k holds x_k * coefficient_k mod 2**128; uint64 products wrap.
    lo = x_lo * _COEFF_LO
    hi = _mulhi64(x_lo, _COEFF_LO0, _COEFF_LO1)
    hi += x_hi * _COEFF_LO + x_lo * _COEFF_HI
    out_lo = lo[0] + lo[1]
    out_hi = hi[0] + hi[1] + (out_lo < lo[0])
    # XSL-RR output, then random()'s 53-bit double.
    rot = out_hi >> np.uint64(58)
    folded = out_hi ^ out_lo
    bits = (folded >> rot) | (folded << ((np.uint64(64) - rot) & np.uint64(63)))
    return ((bits >> np.uint64(11)) * (1.0 / 9007199254740992.0)).reshape(seeds.shape)


class RngStreams:
    """A family of named, independently seeded random generators.

    Example:
        >>> streams = RngStreams(master_seed=42)
        >>> fading = streams.get("fading")
        >>> mobility = streams.get("mobility")
        >>> fading is streams.get("fading")
        True
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            seed = derive_seed(self.master_seed, name)
            self._streams[name] = np.random.default_rng(seed)
        return self._streams[name]

    def spawn(self, name: str) -> "RngStreams":
        """Create a child family whose master seed depends on ``name``.

        Useful to give each simulated phone its own independent family
        of streams.
        """
        return RngStreams(derive_seed(self.master_seed, f"spawn:{name}"))

    def reset(self) -> None:
        """Drop all streams so they restart from their derived seeds."""
        self._streams.clear()

    def __repr__(self) -> str:
        return (
            f"RngStreams(master_seed={self.master_seed}, "
            f"streams={sorted(self._streams)})"
        )
