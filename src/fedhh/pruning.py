"""The two-phase adaptive mechanisms: TAP, and TAPS with consensus pruning.

Both share phase I (:func:`fedhh.protocol.run_stc`) and walk phase II on the
protocol's level-major walk. ``run_taps`` passes the walk a prune hook;
``run_tap`` is ``run_taps`` with a zero validation budget, so it passes no
hook and no level is pruned.

During phase II, at each level the parties take turns in descending
population order. At a fixed set of active levels each party from the second
on receives a package built from the previous party's ranked table at the
same level: its 2k most and 2k least frequent candidates. The receiver runs
one agreement test per package side, each on its own small validation slice:
it re-estimates that side's prefixes and ranks them most prunable first,
against the sender's ascending list (infrequent side) or a contrast ranking
of collapsed local support (frequent side). Prefixes that pass consensus are
pruned from the candidate domain before the main estimate, so the per-user
signal concentrates on fewer candidates.

The consensus size k' maximizes |agreement| / (k' (1+eps)^k') - gamma a^2
with a = (k' - |agreement| + 1) / (k' + 1), where gamma grows as the sending
party's population share shrinks. Damping wins unless the two rankings agree
near the top, so pruning stays conservative per level.

Packages hold prefixes as uint64 arrays of their bit values, and agreed
sets as Python ints; the level fixes their length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from fedhh._rng import derive_key, generator
from fedhh.extension import RankedEstimates
from fedhh.prefix_codec import CandidateDomain
from fedhh.protocol import (
    PAIR,
    SUB_SPLIT,
    SUB_VAL0,
    SUB_VAL1,
    LevelGroups,
    PartyState,
    ProtocolParams,
    RunResult,
    UserGroup,
    _merge_reports,
    _walk,
    estimate_level,
    run_stc,
    split_users,
)

_TAU = 1e-11  # keeps the contrast ratio finite when the local estimate is <= 0


@dataclass
class PruningPackage:
    """One level's hints for the next party: the sender's ranking extremes.

    ``frequent`` holds the sender's 2k most frequent prefixes (uint64) by
    descending frequency, with their ``frequencies``; ``infrequent`` its 2k
    least frequent prefixes by ascending (frequency, prefix). Every prefix
    travels with its frequency, so a package costs ``n_pairs`` pairs; the
    receiver reads only the order of the infrequent side.
    """

    level: int
    frequent: np.ndarray
    frequencies: np.ndarray
    infrequent: np.ndarray

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
    tail, tail_freqs = ranked.prefixes[-2 * k :], ranked.frequencies[-2 * k :]
    infrequent = tail[np.lexsort((tail, tail_freqs))]
    return PruningPackage(level, ranked.prefixes[: 2 * k], ranked.frequencies[: 2 * k], infrequent)


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
    prefixes: np.ndarray, frequencies: np.ndarray, validated: RankedEstimates
) -> tuple[np.ndarray, np.ndarray]:
    """Rank the sender's frequent ``prefixes`` by how hard their support collapsed.

    ``validated`` is the receiver's estimate over exactly those prefixes. The
    score is the sender's frequency over the local one, clipped at zero (an
    unbiased estimate of a prefix barely held here is often negative, and must
    rank first, not last), plus a small floor. Returns the prefixes by
    descending score, ascending prefix value on ties, and their scores.
    """
    order = np.argsort(prefixes)
    local = validated.frequencies[np.argsort(validated.prefixes)]
    prefixes, scores = prefixes[order], frequencies[order] / (np.maximum(local, 0.0) + _TAU)
    ranking = np.lexsort((prefixes, -scores))
    return prefixes[ranking], scores[ranking]


def consensus_prune_level(
    party: PartyState,
    domain: CandidateDomain,
    package: PruningPackage,
    group: UserGroup,
    params: ProtocolParams,
    run_key: int,
    gamma: float,
) -> tuple[CandidateDomain, UserGroup]:
    """Run both agreement tests and prune the domain for the main estimate.

    Two validation slices of ``dividing_ratio`` of the group's users each are
    drawn uniformly at random, one per test. Returns the (possibly
    unchanged) domain and the users left for the main estimate. With a zero
    validation budget this is a no-op.
    """
    n_val = int(len(group) * params.dividing_ratio)
    if n_val == 0:
        return domain, group
    rng = generator(derive_key(run_key, party.party_id, package.level, SUB_SPLIT))
    val0, val1, main = split_users(group, [n_val, n_val, len(group) - 2 * n_val], rng)
    agreed: set[int] = set()
    # Each side is its own validation domain. Both rankings list the most
    # prunable prefix first; the receiver's is by ascending (frequency, prefix).
    tests = ((package.infrequent, val0, SUB_VAL0, False), (package.frequent, val1, SUB_VAL1, True))
    for sender, users, stream, contrast in tests:
        if len(sender) == 0:
            continue
        validation = CandidateDomain(domain.level_length, np.sort(sender))
        key = derive_key(run_key, party.party_id, package.level, stream)
        ranked = estimate_level(party, validation, users, params, key)
        local = ranked.prefixes[np.lexsort((ranked.prefixes, ranked.frequencies))]
        if contrast:
            sender, _ = contrast_scores(sender, package.frequencies, ranked)
        agreed |= consensus_filter(
            sender.tolist(), local.tolist(), params.k, params.epsilon, gamma
        ).pruned
    if not agreed:
        return domain, main
    # Membership by binary search: np.isin's sort path imports numpy.ma on first use.
    pruned = np.array(sorted(agreed), dtype=np.uint64)
    at = np.minimum(np.searchsorted(pruned, domain.prefixes), len(pruned) - 1)
    keep = domain.prefixes[pruned[at] != domain.prefixes]
    if len(keep) == 0 or len(keep) == len(domain.prefixes):
        # Nothing to prune, or pruning would empty the level; estimate on the
        # original domain either way.
        return domain, main
    return CandidateDomain(domain.level_length, keep), main


def run_taps(
    parties: list[PartyState],
    params: ProtocolParams,
    run_key: int,
    groups: dict[int, LevelGroups],
) -> RunResult:
    """The two-phase adaptive mechanism with sequential consensus pruning.

    Phase I builds the shared shallow trie. In phase II every party privately
    extends it through the remaining levels with adaptive extension and
    uploads its final candidates and counts for the server merge. At each
    level the parties take turns in descending population order; at an
    active level each party from the second on prunes with a package of the
    previous party's ranked table at that level. With a single party or a
    zero ``dividing_ratio`` no package travels and this is the unpruned
    mechanism (:func:`run_tap`). Both phases walk each party's ``groups``,
    which the caller draws once, in mode "tap".
    """
    shared = run_stc(parties, params, run_key, groups)
    if len(shared.topk) == 0:
        # Phase I found no candidate: every party uploads nothing.
        reports = [(party.party_id, np.empty(0, PAIR)) for party in parties]
        return _merge_reports(reports, params.k, shared.report_pairs)
    total_users = sum(p.n_users for p in parties)
    # A zero validation budget disables the exchange outright: no level is
    # active and the walk gets no prune hook. This is the unpruned mechanism, run_tap.
    active = set(active_levels(params)) if params.dividing_ratio > 0 else set()
    package_pairs = 0

    def prune(h, party, domain, group, sender, sender_ranked):
        nonlocal package_pairs
        package = select_pruning_candidates(sender_ranked, params.k, h) if h in active else None
        if package is None:
            return domain, group
        package_pairs += package.n_pairs
        gamma = (1.0 - sender.n_users / total_users) ** 2
        return consensus_prune_level(party, domain, package, group, params, run_key, gamma)

    phase_two = range(params.g_s + 1, params.g + 1)
    hook = prune if active else None
    uploads = _walk(order_parties(parties), params, run_key, phase_two, groups, shared.topk, hook)
    reports = [(party.party_id, uploads[party.party_id]) for party in parties]
    return _merge_reports(reports, params.k, shared.report_pairs, package_pairs)


def run_tap(
    parties: list[PartyState],
    params: ProtocolParams,
    run_key: int,
    groups: dict[int, LevelGroups],
) -> RunResult:
    """The two-phase adaptive mechanism without pruning: :func:`run_taps`
    with no package exchange, whatever ``params.dividing_ratio`` says, on
    ``groups`` that the caller draws once, in mode "tap"."""
    return run_taps(parties, replace(params, dividing_ratio=0.0), run_key, groups)
