"""Keyed randomness primitives shared by every module.

The runner and the protocol engines open every keyed stream with
:func:`generator`, ``generator(derive_key(...))``: a stream key is derived
from the root seed and a fixed tuple of tags (repetition, party, level,
role), so each stream is reproducible in isolation and no result depends on
iteration order, chunking or thread scheduling. In particular a group's
oracle support counts are a function of its stream key and its true-index
histogram, the same for any thread count.

``generator(key)`` is the stream of ``numpy.random.default_rng(key)``, bit
for bit: both seed a PCG64 with the four words that
``numpy.random.SeedSequence(key)`` hashes from the key. Hashing them costs
most of a ``default_rng`` call, and runs re-open the same streams (every
(epsilon, k) job of a repetition, and every engine at one root seed, walks
the same (party, level, role) keys), so the words are computed once per key
and kept, read-only, in a bounded cache.

The mixing function is the splitmix64 finalizer, which has full avalanche
behavior.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

MASK64 = (1 << 64) - 1

# splitmix64 increment ("golden gamma") and finalizer multipliers.
GOLDEN = 0x9E3779B97F4A7C15
_MULT_A = 0xBF58476D1CE4E5B9
_MULT_B = 0x94D049BB133111EB

# Keys whose seed words are kept, about 260 bytes each. A synthetic
# repetition of every mechanism x oracle opens about 300 distinct streams.
SEED_WORDS_CACHED = 4096


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit permutation with avalanche."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MULT_A) & MASK64
    z = ((z ^ (z >> 27)) * _MULT_B) & MASK64
    return z ^ (z >> 31)


def derive_key(key: int, *parts: int) -> int:
    """Derive a child stream key from ``key`` and an ordered tuple of ints.

    Sequential (non-commutative) mixing: derive_key(k, a, b) differs from
    derive_key(k, b, a).
    """
    h = key & MASK64
    for p in parts:
        h = mix64((h + GOLDEN + (p & MASK64)) & MASK64)
    return h


@functools.lru_cache(maxsize=SEED_WORDS_CACHED)
def _seed_words(key: int) -> np.ndarray:
    """The PCG64 seed words of ``numpy.random.SeedSequence(key)``, read-only."""
    words = np.random.SeedSequence(key).generate_state(4, np.uint64)  # what PCG64 asks for
    words.flags.writeable = False
    return words


class _SeedWords(ISeedSequence):
    """A seed sequence that hands a bit generator precomputed words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"holds {len(self.words)} {self.words.dtype} words, not {n_words} {dtype}")
        return self.words


def generator(key: int) -> np.random.Generator:
    """A new generator on the stream of ``numpy.random.default_rng(key)``.

    Each call returns its own generator; only the key's seed words are shared.
    """
    return np.random.Generator(np.random.PCG64(_SeedWords(_seed_words(key))))
