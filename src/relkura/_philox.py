"""Philox-4x64-10 uniform draws, equal to NumPy's ``Philox(seed)`` bit for bit.

``PhiloxStream(seed).uniform(low, high, size)`` gives the draws of
``numpy.random.Generator(numpy.random.Philox(seed)).uniform`` without
importing ``numpy.random``: the key comes from NumPy's SeedSequence
algorithm on plain Python ints, once per stream, and the counter blocks
are generated vectorised in numpy uint64.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
# Philox-4x64 round multipliers and key increments (Salmon et al., 2011)
_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _hasher(mult: int, step: int):
    """SeedSequence's 32-bit hash, whose multiplier advances by ``step`` per call."""

    def hash32(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * step & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    return hash32


def _seed_key(seed: int) -> tuple[int, int]:
    """The 2 x 64-bit Philox key NumPy's ``SeedSequence(seed)`` yields.

    The seed's little-endian 32-bit words are hash-mixed into a pool of
    four words, every pool word into every other, and the pool is then
    hashed out into four words, paired low word first.
    """
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool))
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of x * m, from products of 32-bit halves."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    x_lo, x_hi = x & np.uint64(_MASK32), x >> np.uint64(32)
    lh, hl = x_lo * m_hi, x_hi * m_lo
    mid = (x_lo * m_lo >> np.uint64(32)) + (lh & np.uint64(_MASK32)) + (hl & np.uint64(_MASK32))
    hi = x_hi * m_hi + (lh >> np.uint64(32)) + (hl >> np.uint64(32)) + (mid >> np.uint64(32))
    return hi, x * np.uint64(m)


class PhiloxStream:
    """The draws of ``np.random.Generator(np.random.Philox(seed))``, bit for bit.

    Philox-4x64-10 keyed through NumPy's SeedSequence: the 256-bit
    counter, which starts at 0, is incremented before each block of four
    64-bit outputs (only its low word moves; no stream draws 2**64
    blocks), the outputs are used in order across calls (a partial block
    carries over), and a uniform draw is
    low + (high - low) * ((x >> 11) * 2**-53).  The blocks of one call
    are generated vectorised in uint64, one array per counter word.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("seed must be non-negative")
        key = _seed_key(seed)
        # the key of each round: bumped by the Weyl constants after each round
        self._round_keys = [
            tuple(np.uint64(k + i * bump & _MASK64) for k, bump in zip(key, _PHILOX_BUMPS))
            for i in range(_PHILOX_ROUNDS)
        ]
        self._counter = 0
        self._spare = np.empty(0, dtype=np.uint64)  # unread words of the last block

    def _words(self, count: int) -> np.ndarray:
        need = count - len(self._spare)
        if need <= 0:
            words, self._spare = self._spare[:count], self._spare[count:]
            return words
        blocks = -(-need // 4)
        x0 = np.arange(self._counter + 1, self._counter + blocks + 1, dtype=np.uint64)
        x1 = x2 = x3 = np.zeros(blocks, dtype=np.uint64)
        self._counter += blocks
        with np.errstate(over="ignore"):
            for k0, k1 in self._round_keys:
                hi0, lo0 = _mulhilo(x0, _PHILOX_MULTIPLIERS[0])
                hi1, lo1 = _mulhilo(x2, _PHILOX_MULTIPLIERS[1])
                x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        fresh = np.stack([x0, x1, x2, x3], axis=1).ravel()
        words = np.concatenate([self._spare, fresh[:need]])
        self._spare = fresh[need:]
        return words

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        """``size`` draws from [low, high), raising as NumPy's ``uniform`` does."""
        low, high, size = float(low), float(high), operator.index(size)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0.0:
            raise ValueError("high - low < 0")
        if size < 0:
            raise ValueError("negative dimensions are not allowed")
        return low + span * ((self._words(size) >> np.uint64(11)) * 2.0**-53)
