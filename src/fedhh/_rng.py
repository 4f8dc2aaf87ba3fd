"""Keyed randomness primitives shared by every module.

The runner and the protocol engines build every generator as
``numpy.random.default_rng(derive_key(...))``: a stream key is derived from
the root seed and a fixed tuple of tags (repetition, party, level, role), so
each stream is reproducible in isolation and no result depends on iteration
order, chunking or thread scheduling. In particular a group's oracle support
counts are a function of its stream key and its true-index histogram, the
same for any thread count.

The mixing function is the splitmix64 finalizer, which has full avalanche
behavior. The same keyed construction doubles as the hash family of the
local-hashing oracle (multiply-shift mixing followed by a modulo reduction
onto the bucket range), which the per-user reference path evaluates.
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


def draw64(key: int, counter: int) -> int:
    """The ``counter``-th 64-bit value of stream ``key``.

    This is exactly the splitmix64 sequence seeded at ``key``, jumped to
    position ``counter``.
    """
    return mix64((key + (counter + 1) * GOLDEN) & MASK64)


def derive_key(key: int, *parts: int) -> int:
    """Derive a child stream key from ``key`` and an ordered tuple of ints.

    Sequential (non-commutative) mixing: derive_key(k, a, b) differs from
    derive_key(k, b, a).
    """
    h = key & MASK64
    for p in parts:
        h = mix64((h + GOLDEN + (p & MASK64)) & MASK64)
    return h


def olh_bucket(hash_seed: int, index: int, d_prime: int) -> int:
    """The pinned hash family for the local-hashing oracle.

    Maps (seed, index) into [0, d_prime) via the keyed splitmix64 draw
    followed by a modulo reduction. The modulo bias is at most
    d_prime / 2**64 and is far below every tolerance used in this package.
    """
    return draw64(hash_seed, index) % d_prime
