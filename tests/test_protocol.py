"""Trie protocol engines: grouping, level estimation, STC, TAP, PEM."""

import dataclasses
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fedhh.datagen import PartySpec, exact_topk, generate_syn
from fedhh.metrics import f1_score
from fedhh.prefix_codec import ROOT, CandidateDomain, construct_domain, level_length
from fedhh import oracles, protocol
from fedhh.protocol import (
    LIGHT_USERS_PER_CUT,
    PAIR,
    PARTY_USERS_LIMIT,
    PartyState,
    ProtocolError,
    ProtocolParams,
    UserGroup,
    _even_sizes,
    assign_groups,
    draw_groups,
    estimate_level,
    run_fedpem,
    run_pem_single,
    run_stc,
    split_users,
)
from fedhh.pruning import run_tap, run_taps
from hypergeometric import assert_hypergeometric
from results import as_lists


def _params(**kw):
    base = dict(m=8, g=4, g_s=1, k=4, epsilon=20.0, oracle="krr")
    base.update(kw)
    return ProtocolParams(**base)


def _party(party_id, items, m):
    codes, counts = np.unique(np.asarray(items, dtype=np.uint64), return_counts=True)
    return PartyState(party_id, codes, counts, m)


def _stc(parties, params, run_key):
    return run_stc(parties, params, run_key, draw_groups(parties, params, run_key, "tap")).topk.tolist()


# ---------------------------------------------------------------------------
# parameter and state validation


@pytest.mark.parametrize(
    "kw",
    [
        dict(m=0),
        dict(m=65),
        dict(g_s=4),  # g_s must stay below g
        dict(g_s=0),
        dict(k=1),
        dict(epsilon=0.0),
        dict(oracle="rappor"),
        dict(phase1_user_fraction=0.0),
        dict(phase1_user_fraction=1.0),
        dict(dividing_ratio=0.5),
        dict(dividing_ratio=-0.1),
        dict(fixed_t=0),
        dict(epsilon=float("nan")),
        dict(epsilon=800.0),  # e^eps would reach the float limit inside a run
        dict(m=64, g=2, g_s=1),  # 2**32 first-level prefixes
        dict(m=4, g=8),  # levels would repeat a prefix length
    ],
)
def test_params_validation(kw):
    with pytest.raises(ValueError):
        _params(**kw)


@pytest.mark.parametrize(
    "kw, builds",
    [
        (dict(m=48, g=2, g_s=1), False),  # 2k * 2**24 candidates at level 2
        (dict(m=40, g=2, g_s=1), False),  # 2k * 2**20 > 2**24
        (dict(m=48, g=4, g_s=1, fixed_t=5000), False),  # 5000 * 2**12 > 2**24
        (dict(), True),
        (dict(m=48, g=4, g_s=1), True),
    ],
)
def test_params_bound_the_widest_level(kw, builds):
    if builds:
        ProtocolParams(**kw)
    else:
        with pytest.raises(ValueError, match="candidates"):
            ProtocolParams(**kw)


def test_params_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        ProtocolParams().k = 3


def test_party_state_validation():
    with pytest.raises(ValueError, match="no users"):
        _party(0, [], 8)
    with pytest.raises(ValueError):
        _party(0, [1], 0)
    with pytest.raises(ValueError, match="exceed"):
        _party(0, [256], 8)
    with pytest.raises(ValueError, match="ascending"):
        PartyState(0, [2, 1], [1, 1], 8)
    with pytest.raises(ValueError, match="ascending"):
        PartyState(0, [1, 1], [1, 1], 8)
    with pytest.raises(ValueError, match="positive"):
        PartyState(0, [1, 2], [1, 0], 8)
    with pytest.raises(ValueError, match="equal-length"):
        PartyState(0, [1, 2], [1], 8)
    # Non-integer values are rejected, not truncated; negative codes are rejected, not wrapped.
    with pytest.raises(ValueError, match="codes must hold integers"):
        PartyState(0, np.array([1.5, 2.7]), np.array([3, 1]), 4)
    with pytest.raises(ValueError, match="counts must hold integers"):
        PartyState(0, np.array([1, 2]), np.array([3.9, 1.2]), 4)
    with pytest.raises(ValueError, match="codes must not be negative"):
        PartyState(0, np.array([-1, 2]), [1, 1], 8)
    with pytest.raises(ValueError, match="codes must not be negative"):
        PartyState(0, [-1, 2], [1, 1], 8)
    # The grouping draw takes fewer than 10**9 users.
    with pytest.raises(ValueError, match="10\\*\\*9"):
        PartyState(0, [1, 2], [PARTY_USERS_LIMIT - 1, 1], 8)
    assert PartyState(0, [1, 2], [PARTY_USERS_LIMIT - 2, 1], 8).n_users == PARTY_USERS_LIMIT - 1
    party = _party(3, [3, 1, 2, 3], 8)
    assert party.n_users == 4
    assert party.codes.tolist() == [1, 2, 3] and party.counts.tolist() == [1, 1, 2]
    assert party.codes.dtype == np.uint64 and party.counts.dtype == np.int64
    assert sorted(party.users.tolist()) == [1, 2, 3, 3]
    assert party.users.dtype == np.uint64


def test_party_state_is_read_only():
    codes = np.array([1, 2, 3], dtype=np.uint64)
    party = PartyState(3, codes, [1, 1, 2], 8)
    for name, value in (("party_id", 4), ("codes", codes), ("counts", codes), ("item_length", 9)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(party, name, value)
    for array in (party.codes, party.counts, party.users):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7
    codes[0] = 0  # the caller's array stays writable


# ---------------------------------------------------------------------------
# group assignment


def _group_totals(party, groups):
    """Users per party code, summed over the groups."""
    totals = np.zeros(len(party.codes), dtype=np.int64)
    for group in groups:
        assert np.all(np.diff(group.codes.astype(np.int64)) > 0) and np.all(group.counts > 0)
        totals[np.searchsorted(party.codes, group.codes)] += group.counts
    return totals


def test_assign_groups_tap_partition():
    party = _party(0, np.arange(1000) % 7, 48)
    params = ProtocolParams()  # m=48, g=24, g_s=6, 10% phase one
    groups = assign_groups(party, params, run_key=11, mode="tap")
    assert sorted(groups) == list(range(1, 25))
    phase1 = sum(len(groups[h]) for h in range(1, 7))
    assert phase1 == 100
    expected = [len(c) for c in np.array_split(np.arange(100), 6)]
    expected += [len(c) for c in np.array_split(np.arange(900), 18)]
    assert [len(groups[h]) for h in range(1, 25)] == expected
    assert np.array_equal(_group_totals(party, groups.values()), party.counts)


def test_assign_groups_pem_even_split():
    party = _party(0, np.arange(1000) % 7, 48)
    groups = assign_groups(party, ProtocolParams(), run_key=11, mode="pem")
    expected = [len(c) for c in np.array_split(np.arange(1000), 24)]
    assert [len(groups[h]) for h in range(1, 25)] == expected == [42] * 16 + [41] * 8
    assert np.array_equal(_group_totals(party, groups.values()), party.counts)


def test_assign_groups_deterministic_per_party():
    items = np.arange(500) % 9
    a1 = _party(0, items, 48)
    a2 = _party(0, items, 48)
    b = _party(1, items, 48)
    g1, g2, gb = (assign_groups(p, ProtocolParams(), run_key=77, mode="tap") for p in (a1, a2, b))
    for h in g1:
        assert np.array_equal(g1[h].codes, g2[h].codes)
        assert np.array_equal(g1[h].counts, g2[h].counts)
    assert any(not np.array_equal(g1[h].counts, gb[h].counts) for h in g1)


def test_assign_groups_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        assign_groups(_party(0, [0], 8), _params(), 1, mode="stripe")


def _colour_matrix(party, groups):
    """groups x party codes: users of each code in each group."""
    matrix = np.zeros((len(groups), len(party.codes)), dtype=np.int64)
    for row, group in enumerate(groups):
        matrix[row, np.searchsorted(party.codes, group.codes)] = group.counts
    return matrix


@pytest.mark.parametrize("mode", ["tap", "pem"])
def test_assign_groups_counts_are_hypergeometric(mode):
    # Bounds fixed before running: |z| <= 4.5 on every mean, variance and covariance.
    party = PartyState(0, [0, 3, 5, 6], [50, 30, 15, 5], 8)
    params = _params(g=4, g_s=1, phase1_user_fraction=0.2)
    trials = 3000
    samples = np.stack(
        [
            _colour_matrix(party, assign_groups(party, params, key, mode).values())
            for key in range(trials)
        ]
    )
    sizes = [20, 27, 27, 26] if mode == "tap" else [25, 25, 25, 25]
    assert all(matrix.sum(axis=1).tolist() == sizes for matrix in samples[:5])
    assert np.all(samples.sum(axis=1) == party.counts)
    assert_hypergeometric(samples, party.counts, sizes)


# Six groups: items held by at most 4 * 5 = 20 users are light.
_SPLIT_SIZES = [30, 40, 25, 33, 35, 35]
_SPLIT_CASES = {
    # light items below and at the cutoff, heavy items above it
    "mixed": ([1, 2, 5, 19, 20, 21, 40, 90], _SPLIT_SIZES),
    "all-light": ([1, 3, 7, 20, 12], [8, 7, 7, 7, 7, 7]),
    "all-heavy": ([21, 50, 35, 60], [30, 26, 28, 27, 25, 30]),
    # the mixed party seated in blocks of 8, 19 and 20 light users (block size 21)
    "mixed-blocks": ([1, 2, 5, 19, 20, 21, 40, 90], _SPLIT_SIZES),
}


@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_split_users_counts_are_hypergeometric(case, monkeypatch):
    """Light users seated by permutation and heavy items halved still give
    every group the multivariate hypergeometric law of a uniform split.

    Bounds fixed before running: |z| <= 4.5 on every mean, variance and covariance.
    """
    counts, sizes = _SPLIT_CASES[case]
    assert LIGHT_USERS_PER_CUT * (len(sizes) - 1) == 20
    if case == "mixed-blocks":
        monkeypatch.setattr(protocol, "LIGHT_BLOCK_USERS", 21)
    counts = np.asarray(counts, dtype=np.int64)
    codes = np.arange(len(counts), dtype=np.uint64) * np.uint64(7) + np.uint64(3)
    group = UserGroup(codes, counts, int(counts.sum()))
    samples = []
    for key in range(3000):
        parts = split_users(group, sizes, np.random.default_rng(key))
        assert [int(part.counts.sum()) for part in parts] == [len(part) for part in parts] == sizes
        matrix = np.zeros((len(sizes), len(codes)), dtype=np.int64)
        for row, part in enumerate(parts):
            assert part.codes.dtype == np.uint64 and part.counts.dtype == np.int32
            assert np.all(part.codes[1:] > part.codes[:-1])
            assert np.all(part.counts > 0)
            matrix[row, np.searchsorted(codes, part.codes)] = part.counts
        samples.append(matrix)
    samples = np.stack(samples)
    assert np.all(samples.sum(axis=1) == counts)
    assert_hypergeometric(samples, counts, sizes)


def _seat_light_by_label_shuffle(counts, seats, rng):
    """Reference seating: each block shuffles its uint8 group labels
    themselves, and each group's users are counted by item."""
    cuts = np.searchsorted(
        np.cumsum(counts),
        np.arange(protocol.LIGHT_BLOCK_USERS, counts.sum(), protocol.LIGHT_BLOCK_USERS),
    )
    n_items = len(counts)
    bounds = [0, *cuts.tolist(), n_items] if n_items else [0]
    table = np.zeros((len(seats), n_items), dtype=np.int64)
    left = seats
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = counts[lo:hi]
        take = left if hi == n_items else rng.multivariate_hypergeometric(left, int(block.sum()))
        left = left - take
        labels = rng.permutation(np.repeat(np.arange(len(seats), dtype=np.uint8), take))
        items = np.repeat(np.arange(lo, hi), block)
        for label, row in enumerate(table):
            row += np.bincount(items[labels == label], minlength=n_items)
    return table


def _assert_split_matches_the_label_shuffle(source, light_counts, monkeypatch):
    """Splits of the light items ``light_counts`` plus three heavy ones into
    five groups, item order and codes drawn from ``source``, equal the
    reference seating for 20 keys, and so do the keys' next draws."""
    counts = source.permutation(np.concatenate([light_counts, [40, 75, 200]]))
    codes = np.sort(source.choice(1 << 20, size=len(counts), replace=False)).astype(np.uint64)
    group = UserGroup(codes, counts, int(counts.sum()))
    sizes = [len(group) // 5] * 4 + [len(group) - 4 * (len(group) // 5)]

    def split_all():
        rngs = [np.random.default_rng(key) for key in range(20)]
        return [split_users(group, sizes, rng) for rng in rngs], [rng.integers(2**63) for rng in rngs]

    got, got_next = split_all()
    monkeypatch.setattr(protocol, "_seat_light", _seat_light_by_label_shuffle)
    expected, expected_next = split_all()
    assert got_next == expected_next
    for key, (parts, refs) in enumerate(zip(got, expected)):
        for part, ref in zip(parts, refs, strict=True):
            assert np.array_equal(part.codes, ref.codes), key
            assert np.array_equal(part.counts, ref.counts), key


def test_split_users_matches_the_label_shuffle(monkeypatch):
    """Permuting the block's labels by an index and counting (label, item)
    pairs seats every user as shuffling the uint8 labels does, over several
    blocks, and draws the same stream."""
    monkeypatch.setattr(protocol, "LIGHT_BLOCK_USERS", 97)  # about ten light blocks
    # Five groups: items held by at most 16 users are light, three items are heavy.
    source = np.random.default_rng(4)
    light = source.integers(1, 17, size=120)
    _assert_split_matches_the_label_shuffle(source, light, monkeypatch)


def test_split_users_matches_the_label_shuffle_over_wide_blocks(monkeypatch):
    """As above with light items of one or two users: a 97-user block spans
    about 65 items and is counted 19 (97 // 5) items at a time."""
    monkeypatch.setattr(protocol, "LIGHT_BLOCK_USERS", 97)
    source = np.random.default_rng(5)
    light = source.integers(1, 3, size=600)
    _assert_split_matches_the_label_shuffle(source, light, monkeypatch)


def _edge_case(n_groups, kind):
    """Item counts and group sizes for one edge of the split's count table."""
    cutoff = LIGHT_USERS_PER_CUT * (n_groups - 1)
    light, heavy = [1, cutoff // 2, cutoff], [cutoff + 1, 40 * cutoff]
    if kind == "all-light-in-one-group":  # every user of a cutoff-sized item lands in group 37
        return [cutoff], [cutoff if row == 37 else 0 for row in range(n_groups)]
    counts = {
        "mixed": light + heavy,
        "all-light": light,
        "all-heavy": heavy,
        "zero-size-groups": [1, 1],  # fewer users than groups
        "billion-user-item": [2, 999_999_000, 3],
        "party-limit": [1, 2, 3, PARTY_USERS_LIMIT - 7],  # a party's most users, one heavy item
        "wide-block": [1, 2] * 500 + heavy,  # one block of 1,500 light users over 1,000 items
    }[kind]
    return counts, _even_sizes(sum(counts), n_groups)


_EDGE_CASES = [
    *[(g, kind) for g in (2, 3, 24, 64) for kind in ("mixed", "all-light", "all-heavy")],
    (24, "zero-size-groups"),
    (64, "all-light-in-one-group"),
    (3, "billion-user-item"),
    (2, "party-limit"),
    (24, "party-limit"),
    (24, "wide-block"),
    (64, "wide-block"),
]


@pytest.mark.parametrize("n_groups, kind", _EDGE_CASES)
def test_split_users_table_edges(n_groups, kind):
    """Every group gets exactly its size, every item's users are all seated,
    and each group is a histogram: ascending uint64 codes, positive int32
    counts. At 64 groups one group takes all 252 users of a light item, the
    cutoff, in one uint8 cell; a wide block is counted in several chunks. A
    party of PARTY_USERS_LIMIT - 1 users, the most int32 counts must hold,
    splits into groups and a group into validation slices exactly."""
    counts, sizes = _edge_case(n_groups, kind)
    assert sum(sizes) == sum(counts) and len(sizes) == n_groups
    counts = np.asarray(counts, dtype=np.int64)
    codes = np.uint64(2**64 - 1) - np.arange(len(counts), dtype=np.uint64)[::-1] * np.uint64(3)
    for key in range(5):
        parts = split_users(UserGroup(codes, counts, int(counts.sum())), sizes, np.random.default_rng(key))
        assert [len(part) for part in parts] == sizes
        totals = np.zeros(len(codes), dtype=np.int64)
        for part in parts:
            assert part.codes.dtype == np.uint64 and part.counts.dtype == np.int32
            assert np.all(part.codes[1:] > part.codes[:-1])
            assert np.all(part.counts > 0)
            totals[np.searchsorted(codes, part.codes)] += part.counts
        assert np.array_equal(totals, counts)
        if kind == "party-limit":  # as consensus pruning slices a group
            n_val = len(parts[0]) // 10
            slices = [n_val, n_val, len(parts[0]) - 2 * n_val]
            for part, size in zip(split_users(parts[0], slices, np.random.default_rng(key)), slices):
                assert part.counts.dtype == np.int32
                assert type(len(part)) is int and len(part) == size
                assert int(part.counts.astype(np.int64).sum()) == size
    if kind == "all-light-in-one-group":
        assert parts[37].counts.tolist() == [252] and parts[37].codes[0] == np.uint64(2**64 - 1)


# ---------------------------------------------------------------------------
# level estimation


def test_estimate_level_noiseless_rank_one():
    party = _party(0, np.full(2000, 0b1010), 4)
    domain = construct_domain(ROOT, 2, 0)
    ranked = estimate_level(party, domain, party.all_users, _params(m=4, g=2), stream_key=5)
    assert ranked.prefixes[0] == 0b10
    assert ranked.frequencies[0] == pytest.approx(1.0, abs=1e-2)
    assert np.all(np.abs(ranked.frequencies[1:]) < 1e-2)
    assert ranked.frequencies[0] * party.n_users == pytest.approx(2000, rel=1e-2)
    assert ranked.sigma > 0


def test_estimate_level_out_of_domain_goes_to_dummy():
    party = _party(0, np.full(5000, 0b1111), 4)
    domain = construct_domain(np.array([0], dtype=np.uint64), 4, 2)
    ranked = estimate_level(party, domain, party.all_users, _params(m=4, g=2), stream_key=9)
    assert np.max(np.abs(ranked.frequencies)) < 1e-3
    assert len(ranked) == 4  # dummy slot itself is not reported


@pytest.mark.parametrize("kind", ["krr", "oue", "olh"])
def test_estimate_level_tracks_empirical_frequencies(kind):
    from fedhh.oracles import OracleConfig, variance

    rng = np.random.default_rng(20_24)
    weights = np.array([0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05])
    n = 20_000
    users = rng.choice(8, size=n, p=weights).astype(np.uint64)
    party = _party(0, users, 3)
    params = _params(m=3, g=2, g_s=1, epsilon=1.0, oracle=kind)
    domain = construct_domain(ROOT, 3, 0)
    ranked = estimate_level(party, domain, party.all_users, params, stream_key=31)
    sigma = np.sqrt(variance(OracleConfig(kind, 1.0, 9), n))
    empirical = np.bincount(users.astype(np.int64), minlength=8) / n
    for bits, freq in zip(ranked.prefixes.tolist(), ranked.frequencies):
        assert abs(freq - empirical[bits]) < 5 * sigma


def test_estimate_level_empty_group():
    party = _party(0, np.array([1, 2, 3]), 4)
    empty = UserGroup(np.array([], dtype=np.uint64), np.array([], dtype=np.int64), 0)
    assert len(empty) == 0
    ranked = estimate_level(party, construct_domain(ROOT, 2, 0), empty, _params(m=4, g=2), 1)
    assert ranked.prefixes.tolist() == [0, 1, 2, 3]
    assert np.all(ranked.frequencies == 0)
    assert ranked.sigma > 0


def test_estimate_level_requires_dummy_and_candidates():
    party = _party(0, np.array([0]), 4)
    assert CandidateDomain(2, [0]).alphabet_size == 2  # the dummy slot is built in
    with pytest.raises(ProtocolError, match="empty"):
        estimate_level(party, CandidateDomain(2, []), party.all_users, _params(m=4, g=2), 1)


def test_estimate_level_reports_once_per_user(monkeypatch):
    """The oracle sees one report per group user, each at its prefix's domain index."""
    seen = []

    def spy(config, stream_key, user_index, true_index, held=None):
        histogram = np.bincount(true_index, weights=held, minlength=config.domain_size)
        seen.append((len(user_index), histogram))
        return real(config, stream_key, user_index, true_index, held)

    real = oracles.perturb_counts
    monkeypatch.setattr(oracles, "perturb_counts", spy)
    # Two-bit prefixes: 00 x3, 01 x2, 10 x6, 11 x1; the domain holds 00 and 10.
    party = _party(0, [0, 2, 2, 4, 6, 8, 8, 8, 8, 10, 11, 12], 4)
    domain = CandidateDomain(2, [0b00, 0b10])
    estimate_level(party, domain, party.all_users, _params(m=4, g=2), stream_key=3)
    n, histogram = seen[0]
    assert n == 12
    assert histogram.tolist() == [3, 6, 3]  # 00, 10, then the dummy slot for 01 and 11


# ---------------------------------------------------------------------------
# shared shallow trie


def _two_branch_parties(scale=10):
    # A: 00 and 10 dominate; B: an exact 00/10 tie.
    a_items = np.concatenate(
        [
            np.full(400 * scale, 0b0000),
            np.full(100 * scale, 0b0100),
            np.full(350 * scale, 0b1000),
            np.full(150 * scale, 0b1100),
        ]
    )
    b_items = np.concatenate([np.full(300 * scale, 0b0000), np.full(300 * scale, 0b1000)])
    return _party(0, a_items, 4), _party(1, b_items, 4)


def test_stc_two_parties_agree_on_shared_prefixes():
    a, b = _two_branch_parties()
    shared = _stc([a, b], _params(m=4, g=2, g_s=1, k=2), run_key=2024)
    assert set(shared) == {0b00, 0b10}
    assert len(shared) == 2


def test_stc_single_party_is_its_own_top_k():
    items = np.concatenate(
        [np.full(7000, 0b0000), np.full(2000, 0b1000), np.full(1000, 0b1100)]
    )
    shared = _stc([_party(0, items, 4)], _params(m=4, g=2, g_s=1, k=2), run_key=1)
    assert shared == [0b00, 0b10]


def test_stc_rejects_empty_party_list():
    with pytest.raises(ProtocolError, match="at least one"):
        run_stc([], _params(), 1, {})


def test_stc_all_zero_counts_gives_an_empty_trie():
    # Five users leave the phase-one groups empty, so nothing positive exists:
    # the shared trie is empty and phase II has nothing to extend.
    party = _party(0, np.arange(5), 48)
    assert _stc([party], ProtocolParams(), run_key=1) == []
    for engine in (run_tap, run_taps):
        result = engine([party], ProtocolParams(), run_key=1)
        assert len(result.topk) == 0 and len(result.merged) == 0
        assert [(party_id, len(entries)) for party_id, entries in result.uploads] == [(0, 0)]
        assert result.uploaded_bytes == 0


# ---------------------------------------------------------------------------
# the adaptive two-phase engine


def test_tap_adaptive_two_dominant_items():
    """Two heavy branches and a light tail: the adaptive extension keeps
    exactly the two dominant codes all the way down."""
    rng = np.random.default_rng(5)
    items = np.concatenate(
        [np.full(5000, 0x00), np.full(4000, 0x40), rng.integers(0x80, 0x100, size=1000)]
    ).astype(np.uint64)
    rng.shuffle(items)
    parties = [_party(0, items.copy(), 8), _party(1, items.copy(), 8)]
    agg = run_tap(parties, _params(), run_key=99)
    assert agg.topk.tolist() == [0x00, 0x40]
    assert [party_id for party_id, _ in agg.uploads] == [0, 1]
    for _, entries in agg.uploads:
        assert len(entries) >= 2
        assert set(entries["prefix"].tolist()) == {0x00, 0x40}


def test_tap_fixed_extension_recovers_exact_top_k():
    rng = np.random.default_rng(6)
    items = np.concatenate(
        [
            np.full(3000, 0x00),
            np.full(2500, 0x40),
            np.full(2000, 0x80),
            np.full(1500, 0xC0),
            rng.integers(1, 0x100, size=1000),
        ]
    ).astype(np.uint64)
    rng.shuffle(items)
    parties = [_party(0, items.copy(), 8), _party(1, items.copy(), 8)]
    agg = run_tap(parties, _params(fixed_t=4), run_key=42)
    truth = exact_topk([_party(0, items.copy(), 8)], 4)
    assert agg.topk.tolist() == truth.codes.tolist()
    assert agg.topk.tolist() == [0x00, 0x40, 0x80, 0xC0]


def test_tap_k_beyond_distinct_items_returns_all_discovered():
    items = np.concatenate([np.full(600, 0b0000), np.full(400, 0b1100)])
    agg = run_tap(
        [_party(0, items, 4)], _params(m=4, g=2, g_s=1, k=10, fixed_t=10), run_key=3
    )
    assert agg.topk.tolist() == [0b0000, 0b1100]


def _noisy_parties(seed):
    specs = [PartySpec(4000, "zipf", 1.5), PartySpec(3000, "poisson", 6.0)]
    return generate_syn(specs, 600, 3, np.random.default_rng(seed), m=16)


def test_tap_same_key_is_deterministic():
    params = _params(m=16, g=8, g_s=2, k=6, epsilon=2.0)
    agg1 = run_tap(_noisy_parties(1), params, run_key=555)
    agg2 = run_tap(_noisy_parties(1), params, run_key=555)
    assert agg1.topk.tolist() == agg2.topk.tolist()
    assert agg1.merged.tolist() == agg2.merged.tolist()  # exact float equality
    agg3 = run_tap(_noisy_parties(1), params, run_key=556)
    assert agg3.merged.tolist() != agg1.merged.tolist()


def test_tap_merge_is_party_order_invariant():
    params = _params(m=16, g=8, g_s=2, k=6, epsilon=2.0)
    forward = run_tap(_noisy_parties(4), params, run_key=31)
    backward = run_tap(list(reversed(_noisy_parties(4))), params, run_key=31)
    assert forward.merged.tolist() == backward.merged.tolist()
    assert forward.topk.tolist() == backward.topk.tolist()


def test_merge_sums_each_prefix_exactly_in_any_party_order():
    # Summed left to right, 0.1 + 0.2 + 0.3 rounds twice and reads 0.6000000000000001.
    counts = {0: 0.1, 1: 0.2, 2: 0.3}
    assert sum(counts.values()) != 0.6
    for order in itertools.permutations(counts):
        reports = [(party_id, np.array([(7, counts[party_id])], dtype=PAIR)) for party_id in order]
        result = protocol._merge_reports(reports, k=2)
        assert result.merged.tolist() == [(7, 0.6)]
        assert result.topk.tolist() == [7]
        assert result.report_pairs == 3


# ---------------------------------------------------------------------------
# PEM baselines


def test_pem_single_near_noiseless_recovery():
    parties = generate_syn(
        [PartySpec(50_000, "zipf", 1.5)], 1024, 1, np.random.default_rng(11), m=10
    )
    params = ProtocolParams(m=10, g=5, g_s=1, k=10, epsilon=20.0, oracle="krr")
    result = run_pem_single(parties[0], params, run_key=777)
    estimated = result.uploads[0][1]["prefix"][:10].tolist()
    assert result.topk.tolist() == estimated
    truth = exact_topk([_party(0, parties[0].users.copy(), 10)], 10).codes
    assert f1_score(estimated, truth) >= 0.85


def test_pem_single_same_key_is_deterministic():
    parties = generate_syn([PartySpec(3000, "zipf", 1.5)], 400, 1, np.random.default_rng(8), m=12)
    params = ProtocolParams(m=12, g=4, g_s=1, k=5, epsilon=2.0)
    first = run_pem_single(parties[0], params, run_key=10)
    second = run_pem_single(parties[0], params, run_key=10)
    assert as_lists(first) == as_lists(second)


def test_fedpem_identical_parties_recover_exact_top_k():
    rng = np.random.default_rng(7)
    items = np.concatenate(
        [
            np.full(400, 0x00),
            np.full(300, 0x10),
            np.full(200, 0x20),
            np.full(100, 0x30),
            rng.integers(1, 0x10, size=40),
        ]
    ).astype(np.uint64)
    rng.shuffle(items)
    parties = [_party(i, items.copy(), 6) for i in range(3)]
    agg = run_fedpem(parties, ProtocolParams(m=6, g=3, g_s=1, k=4, epsilon=20.0), run_key=7)
    assert agg.topk.tolist() == [0x00, 0x10, 0x20, 0x30]


def test_fedpem_rejects_empty_party_list():
    with pytest.raises(ProtocolError, match="at least one"):
        run_fedpem([], _params(), run_key=1)


def _pem_on_first(parties, params, run_key, groups=None):
    return run_pem_single(parties[0], params, run_key, groups)


# Each engine with the grouping mode it draws its groups in.
_ENGINES = pytest.mark.parametrize(
    "engine, mode",
    [(_pem_on_first, "pem"), (run_fedpem, "pem"), (run_tap, "tap"), (run_taps, "tap")],
    ids=["pem_single", "fedpem", "tap", "taps"],
)


@_ENGINES
def test_engines_give_the_same_result_with_groups_passed_or_drawn(engine, mode):
    specs = [PartySpec(4000, "zipf", 1.3), PartySpec(3000, "poisson", 5.0), PartySpec(2000, "zipf", 1.5)]
    parties = generate_syn(specs, 500, 3, np.random.default_rng(17), m=16)
    params = ProtocolParams(m=16, g=8, g_s=2, k=4, epsilon=3.0, dividing_ratio=0.2)
    # Grouping reads neither epsilon nor k: one draw serves every job.
    groups = draw_groups(parties, params, 21, mode)
    # Every level group holds uint64 codes and int32 counts.
    assert {(g.codes.dtype, g.counts.dtype) for levels in groups.values() for g in levels.values()} == {
        (np.dtype(np.uint64), np.dtype(np.int32))
    }
    for epsilon, k in ((3.0, 4), (1.0, 6)):
        job = dataclasses.replace(params, epsilon=epsilon, k=k)
        assert as_lists(engine(parties, job, 21, groups)) == as_lists(engine(parties, job, 21))


@_ENGINES
@pytest.mark.parametrize("m", [12, 48])
def test_engines_reject_parties_of_another_item_length(engine, mode, m):
    # A wider m would shift past the items' bits; a narrower one would return prefixes as items.
    parties = [_party(0, np.arange(300) % 40, 16), _party(1, np.arange(200) % 30, 16)]
    params = _params(m=m, g=8, g_s=2)
    groups = draw_groups(parties, params, 5, mode)
    with pytest.raises(ProtocolError, match=f"party 0 holds 16-bit items, but m={m}"):
        engine(parties, params, 5, groups)


@_ENGINES
def test_engines_reject_groups_that_lack_a_party(engine, mode):
    parties = [_party(0, np.arange(300) % 40, 16), _party(1, np.arange(200) % 30, 16)]
    params = _params(m=16, g=8, g_s=2)
    groups = draw_groups(parties[1:], params, 5, mode)
    with pytest.raises(ProtocolError, match="no level groups given for party 0"):
        engine(parties, params, 5, groups)


@pytest.mark.parametrize("passed", [True, False], ids=["groups-passed", "groups-drawn"])
@pytest.mark.parametrize(
    "engine, mode",
    [(run_fedpem, "pem"), (run_tap, "tap"), (run_taps, "tap")],
    ids=["fedpem", "tap", "taps"],
)
def test_engines_reject_repeated_party_ids(engine, mode, passed):
    # Sharing an id, the second party would walk the first one's groups.
    parties = [_party(0, np.arange(300) % 40, 16), _party(0, np.arange(200) % 30, 16)]
    params = _params(m=16, g=8, g_s=2)
    groups = {0: assign_groups(parties[0], params, 5, mode)} if passed else None
    with pytest.raises(ProtocolError, match="party ids must be distinct"):
        engine(parties, params, 5, groups)


def test_walk_hands_each_party_the_previous_partys_table_at_the_same_level(monkeypatch):
    parties = [_party(i, (np.arange(600) * (i + 3)) % 50, 8) for i in (2, 0, 1)]
    params = _params(m=8, g=3, g_s=1)
    groups = draw_groups(parties, params, 9, "pem")
    tables = {}  # (party id, prefix length) -> the party's ranked table there

    def recording_estimate(party, domain, *args):
        ranked = estimate_level(party, domain, *args)
        tables[party.party_id, domain.level_length] = ranked
        return ranked

    calls = []

    def prune(h, party, domain, group, sender, sender_ranked):
        assert sender_ranked is tables[sender.party_id, domain.level_length]
        calls.append((h, party.party_id, sender.party_id, domain.level_length))
        return domain, group

    monkeypatch.setattr(protocol, "estimate_level", recording_estimate)
    uploads = protocol._walk(parties, params, 9, range(1, 4), groups, prune=prune)
    lengths = [level_length(h, params.m, params.g) for h in (1, 2, 3)]
    # Level by level; the first party is never pruned; each receiver gets the
    # previous party's table from the level it is on.
    assert calls == [
        (h, receiver, sender, length)
        for h, length in zip((1, 2, 3), lengths)
        for sender, receiver in ((2, 0), (0, 1))
    ]
    assert list(uploads) == [2, 0, 1]


# ---------------------------------------------------------------------------
# engines leave their inputs alone


def test_engines_on_shared_parties_match_from_four_threads():
    parties = _noisy_parties(9)
    before = [p.users.copy() for p in parties]
    params = _params(m=16, g=8, g_s=2, k=6, epsilon=2.0)
    jobs = [(engine, key) for engine in (run_tap, run_taps, run_fedpem) for key in (1, 2, 3, 4)]
    sequential = [engine(parties, params, key) for engine, key in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside engine steps
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = pool.map(lambda job: job[0](parties, params, job[1]), jobs, timeout=120)
            concurrent = list(runs)
    finally:
        sys.setswitchinterval(interval)
    assert [as_lists(result) for result in concurrent] == [as_lists(result) for result in sequential]
    assert all(np.array_equal(p.users, b) for p, b in zip(parties, before))
    for result in sequential:
        assert [party_id for party_id, _ in result.uploads] == [0, 1]
        assert result.report_pairs >= sum(len(entries) for _, entries in result.uploads)
