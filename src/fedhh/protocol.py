"""Multi-party prefix-trie protocol engines.

Covers user grouping, the per-level estimate step, phase I shared shallow
trie construction, the two-phase adaptive mechanism (phase II extension), the
single-party fixed-extension baseline and its federated variant, plus the
server-side merge.

Randomness contract: every engine takes a 64-bit ``run_key``. Group
assignment derives a per-party generator from it, and each group's oracle
support counts are drawn from a stream keyed by (run key, party, level,
subgroup role) and the group's true-index histogram, so runs are
bit-identical regardless of thread count or scheduling and each simulated
user reports exactly once.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from fedhh import oracles
from fedhh._rng import derive_key
from fedhh.extension import RankedEstimates, extension_number
from fedhh.oracles import OracleConfig
from fedhh.prefix_codec import (
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


@dataclass
class PartyState:
    """One party: its users' item codes and per-run protocol state.

    ``users`` holds one m-bit code per user (uint64). ``level_groups`` is set
    by :func:`assign_groups` at the start of each run; the ``current_*``
    fields hold the party's final-level candidates and counts after an
    engine finishes.
    """

    party_id: int
    users: np.ndarray
    item_length: int
    level_groups: dict[int, np.ndarray] | None = field(default=None, repr=False)
    current_candidates: list[PrefixCode] | None = None
    current_counts: dict[PrefixCode, float] | None = None

    def __post_init__(self):
        self.users = np.asarray(self.users, dtype=np.uint64)
        if len(self.users) == 0:
            raise ValueError(f"party {self.party_id} has no users")
        if not 1 <= self.item_length <= 64:
            raise ValueError("item_length must be in [1, 64]")
        if self.item_length < 64 and int(self.users.max()) >= (1 << self.item_length):
            raise ValueError("user codes exceed the declared item length")

    @property
    def n_users(self) -> int:
        return len(self.users)


@dataclass
class LevelEstimate:
    """One group's ranked frequency estimates and population-scaled counts."""

    ranked: RankedEstimates
    scaled_counts: np.ndarray  # aligned with ranked order
    empty_group: bool = False


@dataclass
class ServerAggregate:
    """Server-side merge of per-party reports."""

    per_party_reports: list[tuple[int, list[tuple[PrefixCode, float]]]]
    merged: dict[PrefixCode, float]
    topk: list[PrefixCode]


@dataclass
class UploadTrace:
    """Pair counters for communication-cost accounting (16 bytes per pair)."""

    pair_size: int = 16
    report_pairs: int = 0
    package_pairs: int = 0
    package_emissions: int = 0

    def add_report(self, n_pairs: int) -> None:
        self.report_pairs += n_pairs

    def add_package(self, n_pairs: int) -> None:
        self.package_pairs += n_pairs
        self.package_emissions += 1

    @property
    def uploaded_bytes(self) -> int:
        return (self.report_pairs + self.package_pairs) * self.pair_size


def assign_groups(
    party: PartyState, params: ProtocolParams, run_key: int, mode: str = "tap"
) -> None:
    """Partition the party's users into per-level groups, uniformly at random.

    Mode "tap" reserves ``phase1_user_fraction`` of the users for levels
    1..g_s (split evenly) and splits the rest evenly across levels g_s+1..g.
    Mode "pem" splits all users evenly across levels 1..g. Group arrays keep
    their random order so later validation splits are random subsets.
    """
    rng = np.random.default_rng(derive_key(run_key, _TAG_GROUPING, party.party_id))
    perm = rng.permutation(party.n_users)
    groups: dict[int, np.ndarray] = {}
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
    party.level_groups = groups


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
    if not domain.has_dummy:
        raise ProtocolError("protocol domains require the dummy slot")
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
        return LevelEstimate(ranked, np.zeros(n_real), empty_group=True)
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
        est = estimate_level(party, domain, party.level_groups[h], params, key)
        parents, t = _select_extension(est, params)
        l_prev = l_h
    if est is None:
        raise ProtocolError("no levels to run")
    return est, t


def _merge_reports(
    reports: list[tuple[int, list[tuple[PrefixCode, float]]]], k: int
) -> ServerAggregate:
    """Sum per-prefix counts across parties and rank the result.

    Contributions are combined with ``math.fsum`` so the merge is exactly
    permutation-invariant over party order.
    """
    contributions: dict[PrefixCode, list[float]] = defaultdict(list)
    for _, entries in reports:
        for code, count in entries:
            contributions[code].append(count)
    merged = {code: math.fsum(counts) for code, counts in contributions.items()}
    ranked = sorted(merged.items(), key=lambda item: (-item[1], item[0].bits))
    return ServerAggregate(
        per_party_reports=reports,
        merged=merged,
        topk=[code for code, _ in ranked[:k]],
    )


def run_stc(
    parties: list[PartyState],
    params: ProtocolParams,
    run_key: int,
    trace: UploadTrace | None = None,
) -> list[PrefixCode]:
    """Phase I: build the shared shallow trie and return its top-k prefixes.

    Every party walks levels 1..g_s on its phase-I user groups, reports its
    level-g_s selection (positive counts only, scaled by its population), and
    the server merges the counts and broadcasts the top-k prefixes.
    """
    if not parties:
        raise ProtocolError("need at least one party")
    reports = []
    for party in parties:
        # Deterministic per (run_key, party), so re-assigning is a no-op when
        # the caller already did it.
        assign_groups(party, params, run_key, "tap")
        est, t = _party_level_pass(
            party, params, run_key, range(1, params.g_s + 1), None, 0
        )
        entries = _positive_entries(est, t)
        if trace is not None:
            trace.add_report(len(entries))
        reports.append((party.party_id, entries))
    aggregate = _merge_reports(reports, params.k)
    if not aggregate.topk:
        raise ProtocolError("no shared-trie candidate had a positive count")
    return aggregate.topk


def run_tap(
    parties: list[PartyState],
    params: ProtocolParams,
    run_key: int,
    trace: UploadTrace | None = None,
) -> ServerAggregate:
    """The full two-phase adaptive mechanism.

    Phase I builds the shared shallow trie; in phase II every party privately
    extends it through the remaining levels with adaptive extension and
    uploads its final candidates and counts for the server merge.
    """
    shared = run_stc(parties, params, run_key, trace)
    l_shared = level_length(params.g_s, params.m, params.g)
    reports = []
    for party in parties:
        est, t = _party_level_pass(
            party,
            params,
            run_key,
            range(params.g_s + 1, params.g + 1),
            shared,
            l_shared,
        )
        entries = _positive_entries(est, t)
        party.current_candidates = [code for code, _ in entries]
        party.current_counts = dict(entries)
        if trace is not None:
            trace.add_report(len(entries))
        reports.append((party.party_id, entries))
    return _merge_reports(reports, params.k)


def run_pem_single(
    party: PartyState,
    params: ProtocolParams,
    run_key: int,
    trace: UploadTrace | None = None,
) -> list[tuple[PrefixCode, float]]:
    """Single-party baseline: fixed extension ``t = k``, no shared trie.

    Users are split evenly across all g levels; the returned local top list
    is the final-level selection with positive counts.
    """
    pem_params = replace(
        params, fixed_t=params.fixed_t if params.fixed_t is not None else params.k
    )
    assign_groups(party, pem_params, run_key, "pem")
    est, t = _party_level_pass(
        party, pem_params, run_key, range(1, pem_params.g + 1), None, 0
    )
    entries = _positive_entries(est, t)
    party.current_candidates = [code for code, _ in entries]
    party.current_counts = dict(entries)
    if trace is not None:
        trace.add_report(len(entries))
    return entries


def run_fedpem(
    parties: list[PartyState],
    params: ProtocolParams,
    run_key: int,
    trace: UploadTrace | None = None,
) -> ServerAggregate:
    """Federated baseline: merge every party's independent local top list."""
    if not parties:
        raise ProtocolError("need at least one party")
    reports = [
        (party.party_id, run_pem_single(party, params, run_key, trace))
        for party in parties
    ]
    return _merge_reports(reports, params.k)
