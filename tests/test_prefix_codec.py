"""Bit-string codec and trie-level arithmetic."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedhh.prefix_codec import (
    ROOT,
    PrefixCode,
    construct_domain,
    level_length,
)


def _bits(bit_strings):
    return np.array([int(s, 2) for s in bit_strings], dtype=np.uint64)


def _strings(domain):
    return [format(int(b), f"0{domain.level_length}b") for b in domain.prefixes]


# ---------------------------------------------------------------------------
# item codes: an item index i is the m-bit code PrefixCode(i, m)


def test_encode_zero():
    assert str(PrefixCode(0, 4)) == "0000"


def test_encode_five_four_bits():
    assert str(PrefixCode(5, 4)) == "0101"


def test_encode_all_ones_boundary():
    code = PrefixCode(2**48 - 1, 48)
    assert code.bits == 2**48 - 1
    assert code.length == 48
    assert str(code) == "1" * 48


def test_encode_out_of_range():
    with pytest.raises(ValueError):
        PrefixCode(16, 4)
    with pytest.raises(ValueError):
        PrefixCode(-1, 4)
    with pytest.raises(ValueError):
        PrefixCode(0, 65)


def test_prefixcode_validation():
    with pytest.raises(ValueError):
        PrefixCode(4, 2)  # bits above length
    with pytest.raises(ValueError):
        PrefixCode(0, 0)
    with pytest.raises(ValueError):
        PrefixCode(0, 65)


# ---------------------------------------------------------------------------
# level_length


def test_level_length_values():
    assert level_length(3, 48, 24) == 6
    assert level_length(24, 48, 24) == 48
    assert level_length(1, 48, 12) == 4


def test_level_length_monotone_and_bounds():
    lengths = [level_length(h, 48, 24) for h in range(1, 25)]
    assert lengths == sorted(lengths)
    assert lengths[0] >= 1 and lengths[-1] == 48


def test_level_length_range_errors():
    with pytest.raises(ValueError):
        level_length(0, 48, 24)
    with pytest.raises(ValueError):
        level_length(25, 48, 24)


# ---------------------------------------------------------------------------
# construct_domain


def test_construct_two_parents():
    domain = construct_domain(_bits(["00", "10"]), 4, 2)
    assert _strings(domain) == [
        "0000", "0001", "0010", "0011", "1000", "1001", "1010", "1011",
    ]
    assert domain.prefixes.dtype == np.uint64
    assert not domain.prefixes.flags.writeable
    assert domain.level_length == 4
    assert domain.alphabet_size == 9  # eight prefixes plus the dummy slot


def test_construct_single_parent():
    domain = construct_domain(_bits(["0"]), 2, 1)
    assert _strings(domain) == ["00", "01"]


def test_construct_full_fanout():
    domain = construct_domain(_bits(["00", "01", "10", "11"]), 3, 2)
    assert domain.prefixes.tolist() == list(range(8))


def test_construct_errors():
    with pytest.raises(ValueError, match="empty"):
        construct_domain(_bits([]), 4, 2)
    with pytest.raises(ValueError, match="must exceed"):
        construct_domain(_bits(["00"]), 2, 2)
    with pytest.raises(ValueError, match="does not fit"):
        construct_domain(_bits(["000", "100"]), 4, 2)  # a 3-bit parent at l_prev = 2
    with pytest.raises(ValueError, match="refusing"):
        construct_domain(_bits(["00"]), 27, 2)  # a 25-bit step


@given(
    st.sets(st.integers(min_value=0, max_value=255), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=4),
)
def test_construct_cardinality_and_order(parent_bits, step):
    parents = np.array(sorted(parent_bits), dtype=np.uint64)
    domain = construct_domain(parents, 8 + step, 8)
    assert len(domain.prefixes) == len(parents) * 2**step
    values = domain.prefixes.tolist()
    assert values == sorted(values)
    assert len(set(values)) == len(values)
    assert {v >> step for v in values} == parent_bits


@given(st.permutations(list(range(6))))
def test_construct_permutation_invariance(order):
    base = _bits(["000", "010", "011", "100", "110", "111"])
    reference = construct_domain(base, 5, 3)
    shuffled = construct_domain(base[order], 5, 3)
    assert shuffled.prefixes.tolist() == reference.prefixes.tolist()


# ---------------------------------------------------------------------------
# the full level: ROOT extended by l_h bits


def test_full_level_domain():
    domain = construct_domain(ROOT, 3, 0)
    assert domain.prefixes.tolist() == list(range(8))
    assert domain.level_length == 3
    assert domain.alphabet_size == 9


def test_full_level_domain_refuses_huge():
    with pytest.raises(ValueError):
        construct_domain(ROOT, 25, 0)
