"""Trie protocol engines: grouping, level estimation, STC, TAP, PEM."""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fedhh.datagen import PartySpec, exact_topk, generate_syn
from fedhh.metrics import f1_score
from fedhh.prefix_codec import CandidateDomain, PrefixCode, construct_domain, full_level_domain
from fedhh.protocol import (
    PartyState,
    ProtocolError,
    ProtocolParams,
    assign_groups,
    estimate_level,
    run_fedpem,
    run_pem_single,
    run_stc,
    run_tap,
)
from fedhh.pruning import run_taps


def _params(**kw):
    base = dict(m=8, g=4, g_s=1, k=4, epsilon=20.0, oracle="krr")
    base.update(kw)
    return ProtocolParams(**base)


def _party(party_id, items, m):
    return PartyState(party_id=party_id, users=np.asarray(items, dtype=np.uint64), item_length=m)


def _stc(parties, params, run_key):
    groups = {p.party_id: assign_groups(p, params, run_key, "tap") for p in parties}
    return run_stc(parties, params, run_key, groups).topk


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


def test_party_state_validation():
    with pytest.raises(ValueError, match="no users"):
        _party(0, [], 8)
    with pytest.raises(ValueError):
        PartyState(0, np.array([1], dtype=np.uint64), 0)
    with pytest.raises(ValueError, match="exceed"):
        _party(0, [256], 8)
    party = _party(3, [1, 2, 3], 8)
    assert party.n_users == 3
    assert party.users.dtype == np.uint64


def test_party_state_is_read_only():
    items = np.array([1, 2, 3], dtype=np.uint64)
    party = _party(3, items, 8)
    for name, value in (("party_id", 4), ("users", items), ("item_length", 9)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(party, name, value)
    with pytest.raises(ValueError, match="read-only"):
        party.users[0] = 7
    items[0] = 5  # the caller's array stays writable
    assert party.users[0] == 5


# ---------------------------------------------------------------------------
# group assignment


def test_assign_groups_tap_partition():
    party = _party(0, np.zeros(1000), 48)
    params = ProtocolParams()  # m=48, g=24, g_s=6, 10% phase one
    groups = assign_groups(party, params, run_key=11, mode="tap")
    assert sorted(groups) == list(range(1, 25))
    phase1 = sum(len(groups[h]) for h in range(1, 7))
    assert phase1 == 100
    all_idx = np.concatenate([groups[h] for h in range(1, 25)])
    assert np.array_equal(np.sort(all_idx), np.arange(1000))


def test_assign_groups_pem_even_split():
    party = _party(0, np.zeros(1000), 48)
    groups = assign_groups(party, ProtocolParams(), run_key=11, mode="pem")
    sizes = sorted(len(groups[h]) for h in range(1, 25))
    assert sizes == [41] * 8 + [42] * 16
    all_idx = np.concatenate(list(groups.values()))
    assert np.array_equal(np.sort(all_idx), np.arange(1000))


def test_assign_groups_deterministic_per_party():
    a1 = _party(0, np.zeros(500), 48)
    a2 = _party(0, np.zeros(500), 48)
    b = _party(1, np.zeros(500), 48)
    g1, g2, gb = (assign_groups(p, ProtocolParams(), run_key=77, mode="tap") for p in (a1, a2, b))
    for h in g1:
        assert np.array_equal(g1[h], g2[h])
    assert any(not np.array_equal(g1[h], gb[h]) for h in g1)


def test_assign_groups_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        assign_groups(_party(0, [0], 8), _params(), 1, mode="stripe")


# ---------------------------------------------------------------------------
# level estimation


def test_estimate_level_noiseless_rank_one():
    party = _party(0, np.full(2000, 0b1010), 4)
    domain = full_level_domain(2)
    est = estimate_level(party, domain, np.arange(2000), _params(m=4, g=2), stream_key=5)
    assert est.ranked.prefixes[0] == PrefixCode(0b10, 2)
    assert est.ranked.frequencies[0] == pytest.approx(1.0, abs=1e-2)
    assert np.all(np.abs(est.ranked.frequencies[1:]) < 1e-2)
    assert est.scaled_counts[0] == pytest.approx(2000, rel=1e-2)
    assert est.ranked.sigma > 0


def test_estimate_level_out_of_domain_goes_to_dummy():
    party = _party(0, np.full(5000, 0b1111), 4)
    domain = construct_domain([PrefixCode(0, 2)], 4, 2)
    est = estimate_level(party, domain, np.arange(5000), _params(m=4, g=2), stream_key=9)
    assert np.max(np.abs(est.ranked.frequencies)) < 1e-3
    assert len(est.ranked) == 4  # dummy slot itself is not reported


@pytest.mark.parametrize("kind", ["krr", "oue", "olh"])
def test_estimate_level_tracks_empirical_frequencies(kind):
    from fedhh.oracles import OracleConfig, variance

    rng = np.random.default_rng(20_24)
    weights = np.array([0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05])
    n = 20_000
    users = rng.choice(8, size=n, p=weights).astype(np.uint64)
    party = _party(0, users, 3)
    params = _params(m=3, g=2, g_s=1, epsilon=1.0, oracle=kind)
    est = estimate_level(party, full_level_domain(3), np.arange(n), params, stream_key=31)
    sigma = np.sqrt(variance(OracleConfig(kind, 1.0, 9), n))
    empirical = np.bincount(users.astype(np.int64), minlength=8) / n
    for code, freq in zip(est.ranked.prefixes, est.ranked.frequencies):
        assert abs(freq - empirical[code.bits]) < 5 * sigma


def test_estimate_level_empty_group():
    party = _party(0, np.array([1, 2, 3]), 4)
    est = estimate_level(
        party, full_level_domain(2), np.array([], dtype=np.int64), _params(m=4, g=2), 1
    )
    assert np.all(est.ranked.frequencies == 0)
    assert np.all(est.scaled_counts == 0)
    assert est.ranked.sigma > 0


def test_estimate_level_requires_dummy_and_candidates():
    party = _party(0, np.array([0]), 4)
    assert CandidateDomain(2, [PrefixCode(0, 2)]).alphabet_size == 2  # the dummy slot is built in
    with pytest.raises(ProtocolError, match="empty"):
        estimate_level(party, CandidateDomain(2, []), np.arange(1), _params(m=4, g=2), 1)


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
    assert set(shared) == {PrefixCode(0b00, 2), PrefixCode(0b10, 2)}
    assert len(shared) == 2


def test_stc_single_party_is_its_own_top_k():
    items = np.concatenate(
        [np.full(7000, 0b0000), np.full(2000, 0b1000), np.full(1000, 0b1100)]
    )
    shared = _stc([_party(0, items, 4)], _params(m=4, g=2, g_s=1, k=2), run_key=1)
    assert shared == [PrefixCode(0b00, 2), PrefixCode(0b10, 2)]


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
        assert result.topk == [] and result.merged == {}
        assert result.uploads == [(0, [])]
        assert result.uploaded_bytes == 0


def test_tap_rejects_repeated_party_ids():
    items = np.arange(100) % 16
    with pytest.raises(ProtocolError, match="distinct"):
        run_tap([_party(0, items, 8), _party(0, items, 8)], _params(), run_key=1)


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
    assert agg.topk == [PrefixCode(0x00, 8), PrefixCode(0x40, 8)]
    assert [party_id for party_id, _ in agg.uploads] == [0, 1]
    for _, entries in agg.uploads:
        assert len(entries) >= 2
        assert {c for c, _ in entries} == {PrefixCode(0x00, 8), PrefixCode(0x40, 8)}


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
    assert agg.topk == truth.codes
    assert [c.bits for c in agg.topk] == [0x00, 0x40, 0x80, 0xC0]


def test_tap_k_beyond_distinct_items_returns_all_discovered():
    items = np.concatenate([np.full(600, 0b0000), np.full(400, 0b1100)])
    agg = run_tap(
        [_party(0, items, 4)], _params(m=4, g=2, g_s=1, k=10, fixed_t=10), run_key=3
    )
    assert agg.topk == [PrefixCode(0b0000, 4), PrefixCode(0b1100, 4)]


def _noisy_parties(seed):
    specs = [PartySpec(4000, "zipf", 1.5), PartySpec(3000, "poisson", 6.0)]
    return generate_syn(specs, 600, 3, np.random.default_rng(seed), m=16)


def test_tap_same_key_is_deterministic():
    params = _params(m=16, g=8, g_s=2, k=6, epsilon=2.0)
    agg1 = run_tap(_noisy_parties(1), params, run_key=555)
    agg2 = run_tap(_noisy_parties(1), params, run_key=555)
    assert agg1.topk == agg2.topk
    assert agg1.merged == agg2.merged  # exact float equality
    agg3 = run_tap(_noisy_parties(1), params, run_key=556)
    assert agg3.merged != agg1.merged


def test_tap_merge_is_party_order_invariant():
    params = _params(m=16, g=8, g_s=2, k=6, epsilon=2.0)
    forward = run_tap(_noisy_parties(4), params, run_key=31)
    backward = run_tap(list(reversed(_noisy_parties(4))), params, run_key=31)
    assert forward.merged == backward.merged
    assert forward.topk == backward.topk


# ---------------------------------------------------------------------------
# PEM baselines


def test_pem_single_near_noiseless_recovery():
    parties = generate_syn(
        [PartySpec(50_000, "zipf", 1.5)], 1024, 1, np.random.default_rng(11), m=10
    )
    params = ProtocolParams(m=10, g=5, g_s=1, k=10, epsilon=20.0, oracle="krr")
    result = run_pem_single(parties[0], params, run_key=777)
    estimated = [code for code, _ in result.uploads[0][1][:10]]
    assert result.topk == estimated
    truth = exact_topk([_party(0, parties[0].users.copy(), 10)], 10).codes
    assert f1_score(estimated, truth) >= 0.85


def test_pem_single_same_key_is_deterministic():
    parties = generate_syn([PartySpec(3000, "zipf", 1.5)], 400, 1, np.random.default_rng(8), m=12)
    params = ProtocolParams(m=12, g=4, g_s=1, k=5, epsilon=2.0)
    first = run_pem_single(parties[0], params, run_key=10)
    second = run_pem_single(parties[0], params, run_key=10)
    assert first == second


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
    assert [c.bits for c in agg.topk] == [0x00, 0x10, 0x20, 0x30]


def test_fedpem_rejects_empty_party_list():
    with pytest.raises(ProtocolError, match="at least one"):
        run_fedpem([], _params(), run_key=1)


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
    assert concurrent == sequential
    assert all(np.array_equal(p.users, b) for p, b in zip(parties, before))
    for result in sequential:
        assert [party_id for party_id, _ in result.uploads] == [0, 1]
        assert result.report_pairs >= sum(len(entries) for _, entries in result.uploads)
