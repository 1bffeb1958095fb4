"""Deterministic counter-based random streams.

All randomness in the package flows from a single 64-bit seed through
splitmix64-style integer mixing.  A stream value at counter i is a pure
function of (key, i), so draws are random-access, reproducible across
platforms and thread counts, and independent substreams can be split off
by hashing a textual tag into the key.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer: bijective mixing of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized mix64 over a uint64 array."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def derive_key(seed: int, tag: str) -> int:
    """Derive an independent substream key from a seed and a module tag."""
    tag_word = int.from_bytes(
        hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest(), "little"
    )
    return mix64(seed ^ tag_word)


class Stream:
    """Counter-based uint64 stream; value(i) = mix64(key + (i+1)*golden).

    Every draw consumes the next counter positions, so the sequence of
    draws alone fixes every value.  The block methods are vectorized
    forms of the scalar ones: u64_block(k) equals k u64() calls and
    nonzero_bits_block(nbits, k) equals k nonzero_bits(nbits) calls, both
    in values and in where they leave the counter.
    """

    __slots__ = ("key", "_counter")

    def __init__(self, seed: int, tag: str = "") -> None:
        self.key = derive_key(seed, tag) if tag else mix64(seed)
        self._counter = 0

    def at(self, counter: int) -> int:
        """Random-access draw at an absolute counter position."""
        return mix64((self.key + (counter + 1) * _GOLDEN) & _MASK64)

    def u64(self) -> int:
        value = self.at(self._counter)
        self._counter += 1
        return value

    def bits(self, nbits: int) -> int:
        """Uniform integer with nbits random bits (nbits >= 1)."""
        words = -(-nbits // 64)
        value = 0
        for w in range(words):
            value |= self.u64() << (64 * w)
        return value & ((1 << nbits) - 1)

    def nonzero_bits(self, nbits: int) -> int:
        """Uniform integer in [1, 2**nbits), by rejection of zero."""
        if nbits < 1:
            raise ValueError(f"nonzero draws need nbits >= 1, got {nbits}")
        while True:
            value = self.bits(nbits)
            if value:
                return value

    def nonzero_bits_block(self, nbits: int, count: int) -> np.ndarray:
        """Next `count` nonzero_bits(nbits) draws as a (count, words) uint64
        array, least significant word first.

        Row k equals the k-th of `count` successive nonzero_bits calls, and
        the counter ends where those calls would leave it: each round draws
        exactly as many rows as are still needed, so the last row drawn is
        always kept.
        """
        if nbits < 1:
            raise ValueError(f"nonzero draws need nbits >= 1, got {nbits}")
        words = -(-nbits // 64)
        top = np.uint64((1 << (nbits - 64 * (words - 1))) - 1)
        parts = [np.zeros((0, words), dtype=np.uint64)]
        need = count
        while need > 0:
            rows = self.u64_block(need * words).reshape(need, words)
            rows[:, -1] &= top
            rows = rows[rows.any(axis=1)]
            parts.append(rows)
            need -= len(rows)
        return np.concatenate(parts)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection (bound >= 1)."""
        if bound < 1:
            raise ValueError(f"below needs bound >= 1, got {bound}")
        nbits = (bound - 1).bit_length() if bound > 1 else 1
        while True:
            value = self.bits(nbits)
            if value < bound:
                return value

    def u64_block(self, count: int) -> np.ndarray:
        """Next `count` stream values as a uint64 array (advances counter)."""
        base = np.uint64((self.key + (self._counter + 1) * _GOLDEN) & _MASK64)
        idx = np.arange(count, dtype=np.uint64) * np.uint64(_GOLDEN)
        self._counter += count
        return mix64_array(base + idx)

    def uniform_block(self, count: int) -> np.ndarray:
        """Next `count` uniforms in [0, 1) as float64."""
        return (self.u64_block(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def keyed_uniforms(seed: int, tag: str, counters: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) at explicit counter positions (random access)."""
    key = np.uint64(derive_key(seed, tag))
    offs = (counters.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
    words = mix64_array(key + offs)
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
