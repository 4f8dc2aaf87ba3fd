"""Bit-string codec and trie-level arithmetic."""

import pytest
from hypothesis import given, strategies as st

from fedhh.prefix_codec import (
    PrefixCode,
    construct_domain,
    full_level_domain,
    level_length,
)


def _codes(bit_strings):
    return [PrefixCode(int(s, 2), len(s)) for s in bit_strings]


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
    domain = construct_domain(_codes(["00", "10"]), 4, 2)
    assert [str(p) for p in domain.prefixes] == [
        "0000", "0001", "0010", "0011", "1000", "1001", "1010", "1011",
    ]
    assert domain.level_length == 4
    assert domain.alphabet_size == 9  # eight prefixes plus the dummy slot


def test_construct_single_parent():
    domain = construct_domain(_codes(["0"]), 2, 1)
    assert [str(p) for p in domain.prefixes] == ["00", "01"]


def test_construct_full_fanout():
    domain = construct_domain(_codes(["00", "01", "10", "11"]), 3, 2)
    assert [p.bits for p in domain.prefixes] == list(range(8))


def test_construct_errors():
    with pytest.raises(ValueError):
        construct_domain([], 4, 2)
    with pytest.raises(ValueError):
        construct_domain(_codes(["00"]), 2, 2)
    with pytest.raises(ValueError):
        construct_domain(_codes(["00", "01"]), 4, 3)  # parent length mismatch


@given(
    st.sets(st.integers(min_value=0, max_value=255), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=4),
)
def test_construct_cardinality_and_order(parent_bits, step):
    parents = [PrefixCode(b, 8) for b in parent_bits]
    domain = construct_domain(parents, 8 + step, 8)
    assert len(domain.prefixes) == len(parents) * 2**step
    values = [p.bits for p in domain.prefixes]
    assert values == sorted(values)
    assert len(set(values)) == len(values)


@given(st.permutations(list(range(6))))
def test_construct_permutation_invariance(order):
    base = _codes(["000", "010", "011", "100", "110", "111"])
    reference = construct_domain(base, 5, 3)
    shuffled = construct_domain([base[i] for i in order], 5, 3)
    assert shuffled.prefixes == reference.prefixes


# ---------------------------------------------------------------------------
# full_level_domain


def test_full_level_domain():
    domain = full_level_domain(3)
    assert [p.bits for p in domain.prefixes] == list(range(8))
    assert domain.alphabet_size == 9


def test_full_level_domain_refuses_huge():
    with pytest.raises(ValueError):
        full_level_domain(25)
