"""Consensus pruning: party ordering, agreement tests, the pruned engine."""

from fractions import Fraction

import numpy as np
import pytest

from fedhh import pruning
from fedhh.datagen import PartySpec, generate_syn
from fedhh.extension import RankedEstimates
from fedhh.prefix_codec import CandidateDomain
from fedhh.protocol import PartyState, ProtocolError, ProtocolParams
from fedhh.pruning import (
    PruningPackage,
    active_levels,
    consensus_filter,
    consensus_prune_level,
    contrast_scores,
    order_parties,
    run_tap,
    run_taps,
    select_pruning_candidates,
)

from hypergeometric import assert_hypergeometric

A, B, C = 0, 1, 2  # prefix bit values


# ---------------------------------------------------------------------------
# ordering and level schedule


def test_order_parties_descending_population():
    parties = [
        PartyState(0, [0], [100], 8),
        PartyState(1, [0], [300], 8),
        PartyState(2, [0], [200], 8),
    ]
    assert [p.party_id for p in order_parties(parties)] == [1, 2, 0]


def test_order_parties_tie_breaks_on_id():
    parties = [
        PartyState(5, [0], [200], 8),
        PartyState(2, [0], [200], 8),
    ]
    assert [p.party_id for p in order_parties(parties)] == [2, 5]


def test_active_levels_default_window():
    params = ProtocolParams()  # g=24, g_s=6
    levels = active_levels(params)
    assert levels == [7, 8, 9, 10, 11, 12, 18, 19, 20, 21, 22, 23, 24]
    assert len(levels) == 13


def test_active_levels_overlapping_windows_dedup():
    params = ProtocolParams(m=16, g=8, g_s=3)
    assert active_levels(params) == [4, 5, 6, 7, 8]


# ---------------------------------------------------------------------------
# package selection


def _ranked(freqs):
    codes = np.arange(len(freqs), dtype=np.uint64)
    return RankedEstimates(codes, np.asarray(freqs, dtype=float), sigma=0.01)


def test_select_candidates_takes_both_extremes():
    freqs = [0.30, 0.20, 0.15, 0.10, 0.08, 0.06, 0.04, 0.03, 0.02, 0.01, 0.005, 0.001]
    package = select_pruning_candidates(_ranked(freqs), k=2, level=5)
    assert package.level == 5
    assert package.frequent.tolist() == [0, 1, 2, 3]
    assert package.frequencies.tolist() == freqs[:4]
    assert package.infrequent.tolist() == [11, 10, 9, 8]  # ascending frequency
    assert package.n_pairs == 8


def test_select_candidates_exact_boundary():
    package = select_pruning_candidates(_ranked([0.4, 0.3, 0.2, 0.1, 0.05, 0.04, 0.03, 0.02]), 2, 1)
    assert package is not None
    assert not set(package.frequent.tolist()) & set(package.infrequent.tolist())


def test_select_candidates_too_small_returns_none():
    assert select_pruning_candidates(_ranked([0.4, 0.3, 0.2, 0.1, 0.05, 0.04, 0.03]), 2, 1) is None


# ---------------------------------------------------------------------------
# consensus objective


def test_consensus_worked_example():
    # Scores at k' = 1, 2, 3: 0.4375, 1/8 - 1/9, 0.109375.
    result = consensus_filter([A, B, C], [A, C, B], k=3, epsilon=1.0, gamma=0.25)
    assert result.k_prime == 1
    assert result.pruned == {A}


def test_consensus_empty_inputs():
    assert consensus_filter([], [A], 3, 1.0, 0.1).k_prime == 0
    result = consensus_filter([A], [], 3, 1.0, 0.1)
    assert result.k_prime == 0
    assert result.pruned == set()


def test_consensus_disjoint_rankings_prune_nothing():
    other = [9, 10, 11]
    result = consensus_filter([A, B, C], other, k=3, epsilon=1.0, gamma=0.0)
    assert result.pruned == set()


def test_consensus_identical_rankings_zero_gamma():
    # With no damping the objective is k'-head agreement over k' (1+eps)^k',
    # maximized at k' = 1 because the geometric factor dominates.
    # Scores at k' = 1, 2, 3: 1/2, 2/8, 3/24.
    result = consensus_filter([A, B, C], [A, B, C], k=3, epsilon=1.0, gamma=0.0)
    assert result.k_prime == 1
    assert result.pruned == {A}


def _consensus_oracle(previous, validated, k, epsilon, gamma):
    """Exhaustive rational-arithmetic recomputation of the objective."""
    eps = Fraction(epsilon)
    gam = Fraction(gamma)
    best = None
    for k_prime in range(1, k + 1):
        agreed = set(previous[:k_prime]) & set(validated[:k_prime])
        alpha = Fraction(k_prime - len(agreed) + 1, k_prime + 1)
        score = Fraction(len(agreed), k_prime) / (1 + eps) ** k_prime - gam * alpha**2
        if best is None or score > best[0]:
            best = (score, k_prime, agreed)
    return best[1], best[2]


def test_consensus_matches_exhaustive_enumeration():
    rng = np.random.default_rng(77)
    pool = list(range(12))
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        n_prev = int(rng.integers(1, 10))
        n_val = int(rng.integers(1, 10))
        previous = [pool[i] for i in rng.permutation(12)[:n_prev]]
        validated = [pool[i] for i in rng.permutation(12)[:n_val]]
        # Dyadic parameters so float and Fraction scoring agree exactly.
        epsilon = int(rng.integers(1, 64)) / 16.0
        gamma = int(rng.integers(0, 16)) / 16.0
        result = consensus_filter(previous, validated, k, epsilon, gamma)
        k_exp, set_exp = _consensus_oracle(previous, validated, k, epsilon, gamma)
        assert result.k_prime == k_exp
        assert result.pruned == set_exp


# ---------------------------------------------------------------------------
# contrast ranking


def _validated(local):
    """The receiver's estimate over the packaged prefixes: {bits: frequency}."""
    codes = sorted(local, key=lambda code: (-local[code], code))
    return RankedEstimates(np.array(codes, dtype=np.uint64), np.array([local[c] for c in codes]), 0.01)


def _contrast(previous, local):
    """contrast_scores on the sender's (bits, frequency) pairs, as (bits, score) pairs."""
    prefixes = np.array([bits for bits, _ in previous], dtype=np.uint64)
    frequencies = np.array([freq for _, freq in previous])
    ranked, scores = contrast_scores(prefixes, frequencies, _validated(local))
    return list(zip(ranked.tolist(), scores.tolist()))


def test_contrast_scores_known_ratios():
    prev = [(A, 0.7), (B, 0.001)]
    scored = dict(_contrast(prev, {A: 0.001, B: 0.7}))
    assert scored[A] == pytest.approx(700.0, rel=1e-5)
    assert scored[B] == pytest.approx(0.001 / 0.7, rel=1e-5)


def test_contrast_scores_clip_a_negative_local_estimate_at_zero():
    # An unbiased estimate of a prefix the receiver does not hold is often
    # below zero; it must rank as the hardest collapse, not the softest.
    scored = _contrast([(A, 0.5), (B, 0.3)], {A: 0.25, B: -1e-9})
    assert scored == [(B, pytest.approx(0.3 / 1e-11)), (A, pytest.approx(2.0))]


def test_contrast_scores_ordering():
    prev = [(A, 0.5), (B, 0.5), (C, 0.01)]
    ranked = [code for code, _ in _contrast(prev, {A: 0.001, B: 0.001, C: 0.5})]
    assert ranked == [A, B, C]  # equal scores fall back to ascending bits


# ---------------------------------------------------------------------------
# per-level pruning


def _package(frequent=(), infrequent=(), level=3):
    """A package from the frequent side's (bits, frequency) pairs and the infrequent side's bits."""
    return PruningPackage(
        level,
        np.array([bits for bits, _ in frequent], dtype=np.uint64),
        np.array([freq for _, freq in frequent], dtype=float),
        np.array(infrequent, dtype=np.uint64),
    )


def _prune_setup():
    present = [0x00, 0x04, 0x08, 0x0C]
    absent = [0x30, 0x34, 0x38, 0x3C]
    party = PartyState(0, present, [750] * 4, 6)
    domain = CandidateDomain(6, np.array(sorted(present + absent), dtype=np.uint64))
    package = _package(infrequent=absent)
    params = ProtocolParams(
        m=6, g=3, g_s=1, k=2, epsilon=20.0, oracle="krr", dividing_ratio=0.1
    )
    return party, domain, package, params


def test_prune_level_removes_agreed_absent_prefix():
    party, domain, package, params = _prune_setup()
    group = party.all_users
    new_domain, main = consensus_prune_level(
        party, domain, package, group, params, run_key=555, gamma=0.0
    )
    assert set(domain.prefixes.tolist()) - set(new_domain.prefixes.tolist()) == {0x30}
    assert new_domain.alphabet_size == 8  # seven prefixes plus the dummy slot
    assert len(main) == 3000 - 2 * 300  # both validation slices spent


def test_prune_level_zero_budget_is_a_no_op():
    party, domain, package, params = _prune_setup()
    from dataclasses import replace

    params = replace(params, dividing_ratio=0.0)
    new_domain, main = consensus_prune_level(
        party, domain, package, party.all_users, params, run_key=1, gamma=0.0
    )
    assert new_domain is domain
    assert len(main) == 3000


def test_prune_level_keeps_domain_when_agreement_misses_it():
    party, domain, package, params = _prune_setup()
    package = _package(infrequent=[0x20, 0x24, 0x28, 0x2C])
    new_domain, _ = consensus_prune_level(
        party, domain, package, party.all_users, params, run_key=555, gamma=0.0
    )
    assert new_domain is domain  # agreed codes are not domain members


@pytest.mark.parametrize(
    "agreed",
    [
        {0x30, 0x3C, 0x20, 0x3F, 2**64 - 1},  # two domain members, three outside
        {0x20, 0x24, 0x3F},  # none of the domain
        {0x00, 0x04, 0x08, 0x0C, 0x30, 0x34, 0x38, 0x3C, 0x20},  # all of it
    ],
    ids=["some-and-outside", "none-of-the-domain", "all-of-the-domain"],
)
def test_prune_level_keeps_the_domain_minus_the_agreed_set(agreed, monkeypatch):
    party, domain, package, params = _prune_setup()
    monkeypatch.setattr(
        pruning, "consensus_filter", lambda *args: pruning.ConsensusResult(1, set(agreed))
    )
    new_domain, _ = consensus_prune_level(
        party, domain, package, party.all_users, params, run_key=555, gamma=0.0
    )
    expected = [bits for bits in domain.prefixes.tolist() if bits not in agreed]
    if not expected:
        expected = domain.prefixes.tolist()  # pruning would empty the level
    assert new_domain.prefixes.dtype == np.uint64
    assert new_domain.prefixes.tolist() == expected


def test_prune_level_prunes_only_the_collapsed_frequent_prefix():
    # 0x00 holds a quarter of the receiver's users and 0x30 none. 0x30's
    # estimate falls below zero, so it tops the contrast ranking and the
    # agreement settles at k' = 1: only 0x30 goes.
    party, domain, _, params = _prune_setup()
    package = _package(frequent=[(0x00, 0.5), (0x30, 0.3)])
    for run_key in range(20):
        new_domain, _ = consensus_prune_level(
            party, domain, package, party.all_users, params, run_key=run_key, gamma=0.0
        )
        assert set(domain.prefixes.tolist()) - set(new_domain.prefixes.tolist()) == {0x30}


def test_prune_level_validation_split_is_hypergeometric(monkeypatch):
    """val0, val1 and main partition the group, and each slice's colour counts
    have the hypergeometric moments of a uniformly random split.

    Bounds fixed before running: |z| <= 4.5 on every mean, variance and covariance.
    """
    slices = []

    def spy(party, domain, group, params, stream_key):
        slices.append(group)
        return real(party, domain, group, params, stream_key)

    real = pruning.estimate_level
    monkeypatch.setattr(pruning, "estimate_level", spy)
    party = PartyState(0, [0x00, 0x04, 0x08, 0x0C], [50, 30, 15, 5], 6)
    params = ProtocolParams(m=6, g=3, g_s=1, k=2, epsilon=20.0, oracle="krr", dividing_ratio=0.2)
    _, domain, package, _ = _prune_setup()
    package = _package([(0x00, 0.5), (0x04, 0.3)], package.infrequent)
    trials = 3000
    samples = []
    for key in range(trials):
        slices.clear()
        _, main = consensus_prune_level(
            party, domain, package, party.all_users, params, run_key=key, gamma=0.0
        )
        rows = np.zeros((3, len(party.codes)), dtype=np.int64)
        for row, part in enumerate(slices + [main]):
            rows[row, np.searchsorted(party.codes, part.codes)] = part.counts
        samples.append(rows)
    samples = np.stack(samples)
    assert np.all(samples.sum(axis=1) == party.counts)
    assert np.all(samples.sum(axis=2) == [20, 20, 60])
    assert_hypergeometric(samples, party.counts, [20, 20, 60])


# ---------------------------------------------------------------------------
# the pruned engine


def _parties(seed, specs=None):
    specs = specs or [
        PartySpec(5000, "zipf", 1.5),
        PartySpec(3000, "poisson", 6.0),
        PartySpec(2000, "zipf", 1.3),
    ]
    return generate_syn(specs, 600, 3, np.random.default_rng(seed), m=16)


def test_taps_single_party_equals_unpruned_engine():
    params = ProtocolParams(m=16, g=8, g_s=2, k=6, epsilon=2.0)
    specs = [PartySpec(4000, "zipf", 1.5)]
    pruned = run_taps(_parties(1, specs), params, run_key=88)
    plain = run_tap(_parties(1, specs), params, run_key=88)
    assert pruned.merged.tolist() == plain.merged.tolist()
    assert pruned.topk.tolist() == plain.topk.tolist()


def test_taps_zero_ratio_equals_unpruned_engine():
    params = ProtocolParams(m=16, g=8, g_s=2, k=6, epsilon=2.0, dividing_ratio=0.0)
    pruned = run_taps(_parties(2), params, run_key=9)
    plain = run_tap(_parties(2), params, run_key=9)
    assert pruned.merged.tolist() == plain.merged.tolist()
    assert pruned.topk.tolist() == plain.topk.tolist()


def test_taps_zero_ratio_emits_no_packages():
    params = ProtocolParams(m=16, g=8, g_s=2, k=2, epsilon=4.0, dividing_ratio=0.0)
    result = run_taps(_parties(3), params, run_key=10)
    assert result.package_pairs == 0
    assert result.uploaded_bytes == result.report_pairs * 16


def test_taps_packages_travel_at_active_levels():
    params = ProtocolParams(m=16, g=8, g_s=2, k=2, epsilon=4.0, dividing_ratio=0.1)
    agg = run_taps(_parties(3), params, run_key=10)
    n_active = len(active_levels(params))
    package_size = 4 * params.k  # 2k frequent plus 2k infrequent pairs
    assert agg.package_pairs % package_size == 0
    assert 1 <= agg.package_pairs // package_size <= n_active * 2  # last party never emits
    assert agg.uploaded_bytes == (agg.report_pairs + agg.package_pairs) * 16
    assert 1 <= len(agg.topk) <= params.k


def test_taps_rejects_empty_party_list():
    with pytest.raises(ProtocolError, match="at least one"):
        run_taps([], ProtocolParams(), run_key=1)
