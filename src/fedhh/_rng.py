"""Keyed randomness primitives shared by every module.

The runner and the protocol engines build every generator as
``numpy.random.default_rng(derive_key(...))``: a stream key is derived from
the root seed and a fixed tuple of tags (repetition, party, level, role), so
each stream is reproducible in isolation and no result depends on iteration
order, chunking or thread scheduling. In particular a group's oracle support
counts are a function of its stream key and its true-index histogram, the
same for any thread count.

The mixing function is the splitmix64 finalizer, which has full avalanche
behavior.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

# splitmix64 increment ("golden gamma") and finalizer multipliers.
GOLDEN = 0x9E3779B97F4A7C15
_MULT_A = 0xBF58476D1CE4E5B9
_MULT_B = 0x94D049BB133111EB


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
