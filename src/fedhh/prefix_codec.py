"""Fixed-width bit-string encoding of items and prefix arithmetic for trie levels.

Items are dense integer indices (line numbers of a vocabulary file) encoded as
big-endian bit strings of a fixed maximum length m <= 64, so a code fits one
machine word. Level h of a trie with granularity g holds prefixes of length
ceil(h*m/g). Tie-breaking everywhere is by ascending numeric prefix value,
which keeps every run deterministic.

Throughout the program a prefix is its bit value in a uint64 array, and the
level it belongs to carries its length; :class:`PrefixCode` pairs the two
only where the runner scores a result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Most candidates one level's domain may hold.
MAX_DOMAIN_SIZE = 1 << 24


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


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class CandidateDomain:
    """The perturbation alphabet for one trie level.

    ``prefixes`` are the distinct ``level_length``-bit prefix values, an
    ascending read-only uint64 array. The dummy slot (for users whose true
    prefix lies outside the domain) is an extra index appended after the
    real prefixes.
    """

    level_length: int
    prefixes: np.ndarray

    def __post_init__(self):
        prefixes = np.asarray(self.prefixes, dtype=np.uint64)
        object.__setattr__(self, "prefixes", _read_only(prefixes))

    @property
    def alphabet_size(self) -> int:
        return len(self.prefixes) + 1


# The empty prefix: extending it by l_h bits gives the full first level.
ROOT = _read_only(np.zeros(1, dtype=np.uint64))


def construct_domain(parents: np.ndarray, l_h: int, l_prev: int) -> CandidateDomain:
    """Extend each parent by every suffix of length l_h - l_prev.

    ``parents`` are distinct ``l_prev``-bit prefix values in any order;
    ``construct_domain(ROOT, l_h, 0)`` is the full level of all 2**l_h
    prefixes. The output holds |parents| * 2**(l_h - l_prev) prefixes in
    ascending order, with the dummy slot enabled.
    """
    parents = np.sort(np.asarray(parents, dtype=np.uint64))
    if len(parents) == 0:
        raise ValueError("cannot construct a level from an empty parent set")
    if l_h <= l_prev:
        raise ValueError(f"level length {l_h} must exceed parent length {l_prev}")
    if l_h > 64:
        raise ValueError(f"level length {l_h} exceeds 64 bits")
    if int(parents[-1]) >> l_prev:
        raise ValueError(f"parent 0x{int(parents[-1]):x} does not fit in {l_prev} bit(s)")
    shift = l_h - l_prev
    if len(parents) << shift > MAX_DOMAIN_SIZE:
        raise ValueError(
            f"refusing to enumerate {len(parents)} * 2**{shift} prefixes, "
            f"more than {MAX_DOMAIN_SIZE}"
        )
    children = (parents[:, None] << np.uint64(shift)) | np.arange(1 << shift, dtype=np.uint64)
    return CandidateDomain(l_h, children.ravel())
