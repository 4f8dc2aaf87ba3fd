"""Sequential cross-party consensus pruning on top of the two-phase protocol.

During phase II, parties run in descending population order. At a fixed set
of active levels each party packages the extremes of its ranked level table
(its 2k most and 2k least frequent candidates) for the next party, which
spends a small validation slice of its level group to re-estimate those
prefixes locally. Two agreement tests follow: one on the infrequent list
(prefixes both parties rank near the bottom) and one on frequent prefixes
whose local support collapsed (a contrast ranking). Prefixes that pass
consensus are pruned from the candidate domain before the main estimate, so
the per-user signal concentrates on fewer candidates.

The consensus size k' maximizes |agreement| / (k' (1+eps)^k') - gamma a^2
with a = (k' - |agreement| + 1) / (k' + 1), where gamma grows as the sending
party's population share shrinks. Damping wins unless the two rankings agree
near the top, so pruning stays conservative per level.

Packages and agreed sets hold prefixes as their integer bit values; the
level fixes their length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedhh._rng import derive_key
from fedhh.extension import RankedEstimates
from fedhh.prefix_codec import CandidateDomain, construct_domain, level_length
from fedhh.protocol import (
    SUB_MAIN,
    SUB_SPLIT,
    SUB_VAL0,
    SUB_VAL1,
    PartyState,
    ProtocolParams,
    RunResult,
    UserGroup,
    _merge_reports,
    _no_phase_two,
    _positive_entries,
    _select_extension,
    _tap_groups,
    estimate_level,
    run_stc,
    split_users,
)

_TAU = 1e-11  # keeps the contrast ratio finite when the local estimate is ~0


@dataclass
class PruningPackage:
    """One level's hints for the next party: the sender's ranking extremes."""

    level: int
    frequent: list[tuple[int, float]]  # (bits, frequency), descending frequency
    infrequent: list[tuple[int, float]]  # ascending (frequency, bits)

    @property
    def n_pairs(self) -> int:
        return len(self.frequent) + len(self.infrequent)


@dataclass
class ConsensusResult:
    """Outcome of one agreement test: the chosen k' and the agreed set."""

    k_prime: int
    pruned: set[int]


def order_parties(parties: list[PartyState]) -> list[PartyState]:
    """Descending population, party id breaking ties."""
    return sorted(parties, key=lambda p: (-p.n_users, p.party_id))


def active_levels(params: ProtocolParams) -> list[int]:
    """Levels at which packages travel: near the leaves and just after the
    shared trie, clamped to phase II."""
    window = set(range(params.g - params.g_s, params.g + 1))
    window |= set(range(params.g_s + 1, 2 * params.g_s + 1))
    return sorted(h for h in window if params.g_s + 1 <= h <= params.g)


def select_pruning_candidates(
    ranked: RankedEstimates, k: int, level: int
) -> PruningPackage | None:
    """Package the extremes of a full ranked level table.

    Returns None when the table is too small (< 4k entries) for top and
    bottom slices to stay disjoint.
    """
    if len(ranked) < 4 * k:
        return None
    entries = list(zip(ranked.prefixes.tolist(), ranked.frequencies.tolist()))
    frequent = entries[: 2 * k]
    infrequent = sorted(entries[-2 * k :], key=lambda e: (e[1], e[0]))
    return PruningPackage(level=level, frequent=frequent, infrequent=infrequent)


def consensus_filter(
    previous: list[int],
    validated: list[int],
    k: int,
    epsilon: float,
    gamma: float,
) -> ConsensusResult:
    """Pick the agreement size k' and the agreed prefix set.

    Both inputs are rankings (most prunable first). The objective rewards a
    large overlap between the two k'-head slices, shrinks geometrically in k'
    (deeper agreement must be overwhelming to pay off), and subtracts a
    disagreement penalty scaled by ``gamma``. Ties go to the smaller k'.
    """
    if not previous or not validated:
        return ConsensusResult(0, set())
    best_k = 0
    best_set: set[int] = set()
    best_score = -np.inf
    for k_prime in range(1, k + 1):
        agreed = set(previous[:k_prime]) & set(validated[:k_prime])
        alpha = (k_prime - len(agreed) + 1) / (k_prime + 1)
        score = len(agreed) / (k_prime * (1 + epsilon) ** k_prime) - gamma * alpha**2
        if score > best_score:
            best_score = score
            best_k = k_prime
            best_set = agreed
    return ConsensusResult(best_k, best_set)


def contrast_scores(
    previous_frequent: list[tuple[int, float]],
    validated_frequent: list[tuple[int, float]],
) -> list[tuple[int, float]]:
    """Rank prefixes by how hard their support collapsed across parties.

    The score is previous frequency over local frequency (plus a small
    floor); a prefix missing from one side counts as frequency zero there.
    Sorted by descending score, ascending prefix value on ties.
    """
    prev = {code: freq for code, freq in previous_frequent}
    cur = {code: freq for code, freq in validated_frequent}
    scored = [
        (code, prev.get(code, 0.0) / (cur.get(code, 0.0) + _TAU))
        for code in prev.keys() | cur.keys()
    ]
    return sorted(scored, key=lambda e: (-e[1], e[0]))


def _validation_domain(entries: list[tuple[int, float]], length: int) -> CandidateDomain:
    return CandidateDomain(length, sorted(bits for bits, _ in entries))


def _ascending_codes(ranked: RankedEstimates) -> list[int]:
    """The ranked prefixes by ascending (frequency, bits)."""
    return ranked.prefixes[np.lexsort((ranked.prefixes, ranked.frequencies))].tolist()


def consensus_prune_level(
    party: PartyState,
    domain: CandidateDomain,
    package: PruningPackage | None,
    group: UserGroup,
    params: ProtocolParams,
    run_key: int,
    gamma: float,
) -> tuple[CandidateDomain, UserGroup]:
    """Run both agreement tests and prune the domain for the main estimate.

    Two validation slices of ``dividing_ratio`` of the group's users each are
    drawn uniformly at random, one per test. Returns the (possibly
    unchanged) domain and the users left for the main estimate. With no
    package or a zero validation budget this is a no-op.
    """
    n_val = int(len(group) * params.dividing_ratio)
    if package is None or n_val == 0:
        return domain, group
    rng = np.random.default_rng(derive_key(run_key, party.party_id, package.level, SUB_SPLIT))
    val0, val1, main = split_users(group, [n_val, n_val, len(group) - 2 * n_val], rng)
    length = domain.level_length
    agreed: set[int] = set()
    if package.infrequent:
        key = derive_key(run_key, party.party_id, package.level, SUB_VAL0)
        ranked = estimate_level(
            party, _validation_domain(package.infrequent, length), val0, params, key
        )
        previous_asc = [bits for bits, _ in package.infrequent]
        agreed |= consensus_filter(
            previous_asc, _ascending_codes(ranked), params.k, params.epsilon, gamma
        ).pruned
    if package.frequent:
        key = derive_key(run_key, party.party_id, package.level, SUB_VAL1)
        ranked = estimate_level(
            party, _validation_domain(package.frequent, length), val1, params, key
        )
        validated = list(zip(ranked.prefixes.tolist(), ranked.frequencies))
        collapsed = [bits for bits, _ in contrast_scores(package.frequent, validated)]
        agreed |= consensus_filter(
            collapsed, _ascending_codes(ranked), params.k, params.epsilon, gamma
        ).pruned
    keep = domain.prefixes[~np.isin(domain.prefixes, np.array(list(agreed), dtype=np.uint64))]
    if len(keep) == 0 or len(keep) == len(domain.prefixes):
        # Nothing to prune, or pruning would empty the level; estimate on the
        # original domain either way.
        return domain, main
    return CandidateDomain(length, keep), main


def run_taps(parties: list[PartyState], params: ProtocolParams, run_key: int) -> RunResult:
    """The two-phase adaptive mechanism with sequential consensus pruning.

    Phase I is the shared shallow trie, unchanged. In phase II parties run in
    descending population order; at every active level each non-final party
    emits a pruning package consumed by its successor at the same level. With
    a single party this reduces exactly to the unpruned mechanism.
    """
    groups = _tap_groups(parties, params, run_key)
    shared = run_stc(parties, params, run_key, groups)
    if not shared.topk:
        return _no_phase_two(parties, params, shared)
    shared_bits = np.array([code.bits for code in shared.topk], dtype=np.uint64)
    ordered = order_parties(parties)
    total_users = sum(p.n_users for p in parties)
    # A zero validation budget disables the exchange outright: no packages
    # are emitted, so costs and results match the unpruned mechanism.
    active = set() if params.dividing_ratio == 0 else set(active_levels(params))
    l_shared = level_length(params.g_s, params.m, params.g)
    incoming: dict[int, PruningPackage] = {}
    previous_party: PartyState | None = None
    uploads = {}
    package_pairs = 0
    for position, party in enumerate(ordered):
        outgoing: dict[int, PruningPackage] = {}
        gamma = (
            0.0
            if previous_party is None
            else (1.0 - previous_party.n_users / total_users) ** 2
        )
        parents = shared_bits
        l_prev = l_shared
        ranked = None
        t = 0
        for h in range(params.g_s + 1, params.g + 1):
            domain = construct_domain(parents, level_length(h, params.m, params.g), l_prev)
            domain, main = consensus_prune_level(
                party, domain, incoming.get(h), groups[party.party_id][h], params, run_key, gamma
            )
            key = derive_key(run_key, party.party_id, h, SUB_MAIN)
            ranked = estimate_level(party, domain, main, params, key)
            parents, t = _select_extension(ranked, params)
            l_prev = domain.level_length
            if h in active and position < len(ordered) - 1:
                package = select_pruning_candidates(ranked, params.k, h)
                if package is not None:
                    outgoing[h] = package
                    package_pairs += package.n_pairs
        uploads[party.party_id] = _positive_entries(party, ranked, t)
        incoming = outgoing
        previous_party = party
    reports = [(party.party_id, uploads[party.party_id]) for party in parties]
    return _merge_reports(reports, params.k, shared.report_pairs, package_pairs)
