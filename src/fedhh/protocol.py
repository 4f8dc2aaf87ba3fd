"""Multi-party prefix-trie protocol engines.

Covers user grouping, the per-level estimate step, phase I shared shallow
trie construction, the two-phase adaptive mechanism (phase II extension), the
single-party fixed-extension baseline and its federated variant, plus the
server-side merge.

Engine contract: every engine is a function of read-only parties, the
protocol parameters and a 64-bit ``run_key``. It writes to none of its
inputs and returns one :class:`RunResult`: the server's top-k and merged
counts, each party's final (prefix, count) upload, and the run's report and
package pair totals. One ``parties`` list can therefore serve any number of
runs, from any number of threads at once.

Randomness contract: group assignment derives a per-party generator from
the run key, and each group's oracle support counts are drawn from a stream
keyed by (run key, party, level, subgroup role) and the group's true-index
histogram, so runs are bit-identical regardless of thread count or
scheduling and each simulated user reports exactly once.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from fedhh import oracles
from fedhh._rng import derive_key
from fedhh.extension import RankedEstimates, extension_number
from fedhh.oracles import OracleConfig
from fedhh.prefix_codec import (
    MAX_FIRST_LEVEL_BITS,
    CandidateDomain,
    PrefixCode,
    construct_domain,
    full_level_domain,
    level_length,
)

# Subgroup roles for stream-key derivation. MAIN is the estimation group; the
# validation roles are used by the consensus-pruning engine.
SUB_MAIN = 0
SUB_VAL0 = 1
SUB_VAL1 = 2
_TAG_GROUPING = 101

PAIR_BYTES = 16  # one uploaded (prefix, count) pair

# A party's user groups: trie level -> indices into its users.
LevelGroups = dict[int, np.ndarray]


class ProtocolError(RuntimeError):
    pass


@dataclass
class ProtocolParams:
    """All protocol parameters shared by the trie mechanisms."""

    m: int = 48
    g: int = 24
    g_s: int = 6
    k: int = 10
    epsilon: float = 4.0
    oracle: str = "krr"
    phase1_user_fraction: float = 0.10
    dividing_ratio: float = 0.1  # validation fraction for consensus pruning
    fixed_t: int | None = None  # None: adaptive extension

    def __post_init__(self):
        if not 1 <= self.m <= 64:
            raise ValueError(f"m must be in [1, 64], got {self.m}")
        if not 1 <= self.g_s < self.g:
            raise ValueError(f"need 1 <= g_s < g, got g_s={self.g_s}, g={self.g}")
        if self.g > self.m:
            raise ValueError(f"need g <= m so every level adds a bit, got g={self.g}, m={self.m}")
        if level_length(1, self.m, self.g) > MAX_FIRST_LEVEL_BITS:
            raise ValueError(
                f"need ceil(m/g) <= {MAX_FIRST_LEVEL_BITS}, the first level's prefix length, "
                f"got m={self.m}, g={self.g}"
            )
        if self.k < 2:
            raise ValueError("k must be at least 2")
        oracles.check_epsilon(self.epsilon)
        if self.oracle not in oracles.KINDS:
            raise ValueError(f"unknown oracle {self.oracle!r}")
        if not 0 < self.phase1_user_fraction < 1:
            raise ValueError("phase1_user_fraction must be in (0, 1)")
        if not 0 <= self.dividing_ratio < 0.5:
            raise ValueError("dividing_ratio must be in [0, 0.5)")
        if self.fixed_t is not None and self.fixed_t < 1:
            raise ValueError("fixed_t must be at least 1")


@dataclass(frozen=True)
class PartyState:
    """One party's dataset: one m-bit item code per user (uint64).

    The dataclass is frozen and ``users`` is a read-only view, so engines
    can share a party across runs and threads; per-run state (groups,
    uploads) lives in the engines and their :class:`RunResult`.
    """

    party_id: int
    users: np.ndarray
    item_length: int

    def __post_init__(self):
        users = np.asarray(self.users, dtype=np.uint64).view()
        users.flags.writeable = False
        object.__setattr__(self, "users", users)
        if len(users) == 0:
            raise ValueError(f"party {self.party_id} has no users")
        if not 1 <= self.item_length <= 64:
            raise ValueError("item_length must be in [1, 64]")
        if self.item_length < 64 and int(users.max()) >= (1 << self.item_length):
            raise ValueError("user codes exceed the declared item length")

    @property
    def n_users(self) -> int:
        return len(self.users)


@dataclass
class LevelEstimate:
    """One group's ranked frequency estimates and population-scaled counts."""

    ranked: RankedEstimates
    scaled_counts: np.ndarray  # aligned with ranked order


@dataclass(frozen=True)
class RunResult:
    """Everything one engine run produces.

    ``uploads`` holds each party's final (prefix, count) report as
    (party id, entries), in the parties' input order. ``report_pairs``
    counts every reported pair of the run, phase I included, and
    ``package_pairs`` every pruning-package pair passed between parties.
    """

    topk: list[PrefixCode]
    merged: dict[PrefixCode, float]
    uploads: list[tuple[int, list[tuple[PrefixCode, float]]]]
    report_pairs: int
    package_pairs: int = 0

    @property
    def uploaded_bytes(self) -> int:
        return PAIR_BYTES * (self.report_pairs + self.package_pairs)


def assign_groups(
    party: PartyState, params: ProtocolParams, run_key: int, mode: str = "tap"
) -> LevelGroups:
    """Partition the party's users into per-level groups, uniformly at random.

    Mode "tap" reserves ``phase1_user_fraction`` of the users for levels
    1..g_s (split evenly) and splits the rest evenly across levels g_s+1..g.
    Mode "pem" splits all users evenly across levels 1..g. Group arrays keep
    their random order so later validation splits are random subsets.
    """
    rng = np.random.default_rng(derive_key(run_key, _TAG_GROUPING, party.party_id))
    perm = rng.permutation(party.n_users)
    groups: LevelGroups = {}
    if mode == "pem":
        for h, chunk in enumerate(np.array_split(perm, params.g), start=1):
            groups[h] = chunk
    elif mode == "tap":
        n_phase1 = int(party.n_users * params.phase1_user_fraction)
        for h, chunk in enumerate(np.array_split(perm[:n_phase1], params.g_s), start=1):
            groups[h] = chunk
        phase2 = np.array_split(perm[n_phase1:], params.g - params.g_s)
        for h, chunk in enumerate(phase2, start=params.g_s + 1):
            groups[h] = chunk
    else:
        raise ValueError(f"unknown grouping mode {mode!r}")
    return groups


def _tap_groups(
    parties: list[PartyState], params: ProtocolParams, run_key: int
) -> dict[int, LevelGroups]:
    """Every party's phase I and phase II groups, keyed by party id."""
    groups = {
        party.party_id: assign_groups(party, params, run_key, "tap") for party in parties
    }
    if len(groups) < len(parties):
        raise ProtocolError("party ids must be distinct")
    return groups


def estimate_level(
    party: PartyState,
    domain: CandidateDomain,
    group_user_index: np.ndarray,
    params: ProtocolParams,
    stream_key: int,
) -> LevelEstimate:
    """One group's sanitized frequency estimate over a candidate domain.

    Each user perturbs the ``domain.level_length``-bit prefix of her item
    (out-of-domain prefixes map to the dummy slot). The dummy estimate is
    discarded, the rest are ranked by descending frequency (ascending prefix
    value on ties) and scaled by the party's full population.
    """
    if not domain.prefixes:
        raise ProtocolError("candidate domain is empty")
    dom_bits = domain.bit_values()
    d = domain.alphabet_size
    config = OracleConfig(params.oracle, params.epsilon, d)
    n = len(group_user_index)
    n_real = len(dom_bits)
    if n == 0:
        ranked = RankedEstimates(
            list(domain.prefixes),
            np.zeros(n_real),
            sigma=math.sqrt(oracles.variance(config, 1)),
            level_length=domain.level_length,
        )
        return LevelEstimate(ranked, np.zeros(n_real))
    shift = np.uint64(party.item_length - domain.level_length)
    user_prefixes = party.users[group_user_index] >> shift
    pos = np.searchsorted(dom_bits, user_prefixes)
    pos = np.minimum(pos, n_real - 1)
    true_idx = np.where(dom_bits[pos] == user_prefixes, pos, n_real).astype(np.int64)
    counts = oracles.perturb_counts(config, stream_key, group_user_index, true_idx)
    estimates = oracles.estimate_from_counts(config, counts, n)[:n_real]
    sigma = math.sqrt(oracles.variance(config, n))
    order = np.lexsort((dom_bits, -estimates))
    ranked = RankedEstimates(
        [domain.prefixes[i] for i in order],
        estimates[order],
        sigma=sigma,
        level_length=domain.level_length,
    )
    return LevelEstimate(ranked, estimates[order] * party.n_users)


def _select_extension(est: LevelEstimate, params: ProtocolParams) -> tuple[list[PrefixCode], int]:
    if params.fixed_t is not None:
        t = max(1, min(params.fixed_t, len(est.ranked)))
    else:
        t = extension_number(est.ranked, params.k)
    return est.ranked.prefixes[:t], t


def _positive_entries(est: LevelEstimate, t: int) -> list[tuple[PrefixCode, float]]:
    """The top-t selection filtered to strictly positive estimated counts."""
    return [
        (code, float(count))
        for code, count in zip(est.ranked.prefixes[:t], est.scaled_counts[:t])
        if count > 0
    ]


def _party_level_pass(
    party: PartyState,
    groups: LevelGroups,
    params: ProtocolParams,
    run_key: int,
    levels,
    parents: list[PrefixCode] | None,
    l_prev: int,
) -> tuple[LevelEstimate, int]:
    """Construct + estimate + extend through ``levels``; returns the last step."""
    est = None
    t = 0
    for h in levels:
        l_h = level_length(h, params.m, params.g)
        if parents is None:
            domain = full_level_domain(l_h)
        else:
            domain = construct_domain(parents, l_h, l_prev)
        key = derive_key(run_key, party.party_id, h, SUB_MAIN)
        est = estimate_level(party, domain, groups[h], params, key)
        parents, t = _select_extension(est, params)
        l_prev = l_h
    if est is None:
        raise ProtocolError("no levels to run")
    return est, t


def _merge_reports(
    reports: list[tuple[int, list[tuple[PrefixCode, float]]]],
    k: int,
    phase1_pairs: int = 0,
    package_pairs: int = 0,
) -> RunResult:
    """Sum per-prefix counts across parties and rank the result.

    Contributions are combined with ``math.fsum`` so the merge is exactly
    permutation-invariant over party order. ``phase1_pairs`` and
    ``package_pairs`` are the run's uploads before these reports.
    """
    contributions: dict[PrefixCode, list[float]] = defaultdict(list)
    for _, entries in reports:
        for code, count in entries:
            contributions[code].append(count)
    merged = {code: math.fsum(counts) for code, counts in contributions.items()}
    ranked = sorted(merged.items(), key=lambda item: (-item[1], item[0].bits))
    return RunResult(
        topk=[code for code, _ in ranked[:k]],
        merged=merged,
        uploads=reports,
        report_pairs=phase1_pairs + sum(len(entries) for _, entries in reports),
        package_pairs=package_pairs,
    )


def _no_phase_two(parties: list[PartyState], params: ProtocolParams, shared: RunResult) -> RunResult:
    """The result when phase I found no candidate: every party uploads nothing."""
    return _merge_reports([(party.party_id, []) for party in parties], params.k, shared.report_pairs)


def run_stc(
    parties: list[PartyState],
    params: ProtocolParams,
    run_key: int,
    groups: dict[int, LevelGroups],
) -> RunResult:
    """Phase I: build the shared shallow trie; its top-k is the shared prefixes.

    Every party walks levels 1..g_s on its phase-I user groups (``groups``,
    keyed by party id), reports its level-g_s selection (positive counts
    only, scaled by its population), and the server merges the counts and
    broadcasts the top-k prefixes. When no party reports a positive count the
    shared trie is empty.
    """
    if not parties:
        raise ProtocolError("need at least one party")
    reports = []
    for party in parties:
        est, t = _party_level_pass(
            party, groups[party.party_id], params, run_key, range(1, params.g_s + 1), None, 0
        )
        reports.append((party.party_id, _positive_entries(est, t)))
    return _merge_reports(reports, params.k)


def run_tap(parties: list[PartyState], params: ProtocolParams, run_key: int) -> RunResult:
    """The full two-phase adaptive mechanism.

    Phase I builds the shared shallow trie; in phase II every party privately
    extends it through the remaining levels with adaptive extension and
    uploads its final candidates and counts for the server merge.
    """
    groups = _tap_groups(parties, params, run_key)
    shared = run_stc(parties, params, run_key, groups)
    if not shared.topk:
        return _no_phase_two(parties, params, shared)
    l_shared = level_length(params.g_s, params.m, params.g)
    reports = []
    for party in parties:
        est, t = _party_level_pass(
            party,
            groups[party.party_id],
            params,
            run_key,
            range(params.g_s + 1, params.g + 1),
            shared.topk,
            l_shared,
        )
        reports.append((party.party_id, _positive_entries(est, t)))
    return _merge_reports(reports, params.k, shared.report_pairs)


def _pem_upload(
    party: PartyState, params: ProtocolParams, run_key: int
) -> tuple[int, list[tuple[PrefixCode, float]]]:
    """One party's PEM walk: fixed extension ``t = k`` over all g levels."""
    pem_params = replace(
        params, fixed_t=params.fixed_t if params.fixed_t is not None else params.k
    )
    groups = assign_groups(party, pem_params, run_key, "pem")
    est, t = _party_level_pass(
        party, groups, pem_params, run_key, range(1, pem_params.g + 1), None, 0
    )
    return party.party_id, _positive_entries(est, t)


def run_pem_single(party: PartyState, params: ProtocolParams, run_key: int) -> RunResult:
    """Single-party baseline: fixed extension ``t = k``, no shared trie.

    Users are split evenly across all g levels; the party's upload is the
    final-level selection with positive counts, and its top-k is the result.
    """
    return _merge_reports([_pem_upload(party, params, run_key)], params.k)


def run_fedpem(parties: list[PartyState], params: ProtocolParams, run_key: int) -> RunResult:
    """Federated baseline: merge every party's independent local top list."""
    if not parties:
        raise ProtocolError("need at least one party")
    return _merge_reports([_pem_upload(party, params, run_key) for party in parties], params.k)
