"""Fixed-width bit-string encoding of items and prefix arithmetic for trie levels.

Items are dense integer indices (line numbers of a vocabulary file) encoded as
big-endian bit strings of a fixed maximum length m <= 64, so a code fits one
machine word. Level h of a trie with granularity g holds prefixes of length
ceil(h*m/g). Tie-breaking everywhere is by ascending numeric prefix value,
which keeps every run deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Longest prefix length whose full domain (level 1 of every trie) is enumerated.
MAX_FIRST_LEVEL_BITS = 24


@dataclass(frozen=True, order=True)
class PrefixCode:
    """A bit string of ``length`` bits stored big-endian in ``bits``."""

    bits: int
    length: int

    def __post_init__(self):
        if not 1 <= self.length <= 64:
            raise ValueError(f"length must be in [1, 64], got {self.length}")
        if not 0 <= self.bits < (1 << self.length):
            raise ValueError(
                f"bits 0x{self.bits:x} do not fit in {self.length} bit(s)"
            )

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b")


def level_length(h: int, m: int, g: int) -> int:
    """Prefix bit length of trie level ``h``: ceil(h*m/g)."""
    if not 1 <= h <= g:
        raise ValueError(f"level {h} out of range [1, {g}]")
    return -(-h * m // g)


@dataclass
class CandidateDomain:
    """The perturbation alphabet for one trie level.

    ``prefixes`` are distinct, equal-length, and ordered by ascending numeric
    value. The dummy slot (for users whose true prefix lies outside the
    domain) is an extra index appended after the real prefixes.
    """

    level_length: int
    prefixes: list[PrefixCode]
    _bits: object = field(default=None, repr=False, compare=False)

    @property
    def alphabet_size(self) -> int:
        return len(self.prefixes) + 1

    def bit_values(self):
        """Prefix bit values as a sorted numpy array (cached)."""
        import numpy as np

        if self._bits is None:
            self._bits = np.array([p.bits for p in self.prefixes], dtype=np.uint64)
        return self._bits


def construct_domain(
    parents: list[PrefixCode], l_h: int, l_prev: int
) -> CandidateDomain:
    """Extend each parent by every suffix of length l_h - l_prev.

    The output holds |parents| * 2**(l_h - l_prev) prefixes in ascending
    order, with the dummy slot enabled.
    """
    if not parents:
        raise ValueError("cannot construct a level from an empty parent set")
    if l_h <= l_prev:
        raise ValueError(f"level length {l_h} must exceed parent length {l_prev}")
    if l_h > 64:
        raise ValueError(f"level length {l_h} exceeds 64 bits")
    for parent in parents:
        if parent.length != l_prev:
            raise ValueError(
                f"parent {parent} has length {parent.length}, expected {l_prev}"
            )
    shift = l_h - l_prev
    children = sorted(
        (parent.bits << shift) | suffix
        for parent in parents
        for suffix in range(1 << shift)
    )
    return CandidateDomain(l_h, [PrefixCode(bits, l_h) for bits in children])


def full_level_domain(l_h: int) -> CandidateDomain:
    """The complete domain of all 2**l_h prefixes (used at the first level)."""
    if not 1 <= l_h <= 64:
        raise ValueError(f"level length must be in [1, 64], got {l_h}")
    if l_h > MAX_FIRST_LEVEL_BITS:
        raise ValueError(f"refusing to enumerate 2**{l_h} first-level prefixes")
    return CandidateDomain(l_h, [PrefixCode(bits, l_h) for bits in range(1 << l_h)])
