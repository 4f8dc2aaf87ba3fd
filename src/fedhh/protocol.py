"""Multi-party prefix-trie protocol engines.

Covers user grouping, the per-level estimate step and the one level-major
walk that every engine runs: at each level, each party in turn builds its
domain, optionally prunes it with the previous party's ranked table at that
level, estimates and extends. Phase I (:func:`run_stc`) and the federated
baseline (:func:`run_fedpem`) merge the walk's uploads; the single-party
baseline is ``run_fedpem`` on one party. The two-phase adaptive mechanisms
are in :mod:`fedhh.pruning`: ``run_taps`` walks phase II with consensus
pruning, and ``run_tap`` is ``run_taps`` without the package exchange.

Data contract: a party, a level group and a validation slice are all
histograms, sorted distinct m-bit item codes (uint64) with the number of users
holding each, so prefix lookup costs O(distinct items) and grouping O(distinct
items x g), not O(users). A party counts its users in int64; every group that
:func:`split_users` returns counts them in int32, 12 bytes per entry, since a
party holds fewer than ``PARTY_USERS_LIMIT`` = 10**9 < 2**31 users and so no
group count can wrap. Splitting users into groups draws multivariate
hypergeometric counts, which has the same law as cutting a uniform random
permutation of the users into consecutive chunks. :func:`split_users` draws it
in two parts: items held by at most 4(g - 1) users for g groups are light, the
rest heavy. One hypergeometric draw over the group sizes seats the light
users; heavy items are halved recursively against the remaining seats and
light users get permuted group labels, block by block. Given which seats hold
light users, each part is uniformly permuted over its own seats, so the law is
exact. Both parts count users into one row per group and one column per item,
so each group comes out in code order, and a split costs O(items x g + heavy
items x g + light users). Each group's oracle draw takes the group's distinct
items, at their domain indices, with the number of users holding each. No step
of an engine run therefore scales with the number of users: the only per-user
labels are the light users', at most 4(g - 1) per light item. A prefix is
its bit value throughout, and the level fixes its length: candidate domains,
rankings, selections and the server's top-k are uint64 arrays, and an upload
or the server's merged table is an array of (prefix, count) records of dtype
:data:`PAIR`.

Engine contract: every engine is a function of read-only parties, the
protocol parameters and a 64-bit ``run_key``. It writes to none of its
inputs and returns one :class:`RunResult`: the server's top-k and merged
counts, each party's final (prefix, count) upload, and the run's report and
package pair totals. One ``parties`` list can therefore serve any number of
runs, from any number of threads at once. An engine also takes each
party's level groups, ``groups`` (party id -> :data:`LevelGroups`), which
the caller draws with :func:`draw_groups` in the mechanism's grouping mode
and the engine only walks. The groups depend on the party, the run key and
the level plan (g, g_s, phase-I fraction), not on epsilon, k or the oracle,
so the runner draws a repetition's groups once and passes them to each of
its (epsilon, k) jobs; each job's result is the same as on groups drawn for
its own (epsilon, k).

Randomness contract: every draw comes from a stream keyed by the run key and
fixed tags: group assignment by (party), a validation split and each group's
oracle support counts by (party, level, role). Each stream is opened with
:func:`fedhh._rng.generator`, which draws what ``numpy.random.default_rng``
draws from the same key. Runs are therefore bit-identical regardless of
thread count or scheduling, and each simulated user reports exactly once per
run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from fedhh import oracles
from fedhh._rng import derive_key, generator
from fedhh.extension import RankedEstimates, extension_number
from fedhh.oracles import OracleConfig
from fedhh.prefix_codec import (
    MAX_DOMAIN_SIZE,
    ROOT,
    CandidateDomain,
    _read_only,
    construct_domain,
    level_length,
)

# Subgroup roles for stream-key derivation. MAIN is the estimation group; the
# validation roles and the split that makes them are used by the
# consensus-pruning engine.
SUB_MAIN = 0
SUB_VAL0 = 1
SUB_VAL1 = 2
SUB_SPLIT = 3
_TAG_GROUPING = 101

# One uploaded (prefix, count) record; a pair costs its 16 bytes on the wire.
PAIR = np.dtype([("prefix", np.uint64), ("count", np.float64)])
PAIR_BYTES = PAIR.itemsize

# split_users seats the users of an item held by at most this many users per
# cut between groups one by one (by permutation) rather than halving its count.
LIGHT_USERS_PER_CUT = 4
# Light users are seated in blocks of about this many users, and their
# (group, item) counts taken this many cells at a time, so the temporaries of
# a split stay this small.
LIGHT_BLOCK_USERS = 1 << 14

# A party must hold fewer users than this: numpy's multivariate
# hypergeometric draw (method="marginals") that splits them into groups
# rejects larger totals. Below 2**31, so a group counts its users in int32.
PARTY_USERS_LIMIT = 10**9

# One oracle config per (kind, epsilon, alphabet size), so that a level's p
# and q are computed once; a sweep meets a few hundred alphabet sizes.
_oracle_config = functools.lru_cache(maxsize=1024)(OracleConfig)


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
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
        # A level extends at most `width` parents (fixed_t, or the adaptive
        # t = k* + eta <= 2k) by at most ceil(m/g) bits.
        width = self.fixed_t if self.fixed_t is not None else 2 * self.k
        step = level_length(1, self.m, self.g)
        if width << step > MAX_DOMAIN_SIZE:
            raise ValueError(
                f"a level can hold {width} * 2**{step} candidates, more than {MAX_DOMAIN_SIZE}; "
                f"got m={self.m}, g={self.g}, k={self.k}, fixed_t={self.fixed_t}"
            )


@dataclass(frozen=True)
class UserGroup:
    """Some of a party's users as a histogram: ascending distinct item
    ``codes`` (uint64), the positive number of users holding each, and
    ``n_users``, their sum, recorded where the group is built.

    Groups drawn by :func:`split_users` hold int32 ``counts``: a group holds
    fewer than ``PARTY_USERS_LIMIT`` = 10**9 < 2**31 users, so no count
    wraps. A party's :attr:`PartyState.all_users` shares the party's int64
    counts. ``len()`` is ``n_users``, so a group stands wherever a list of
    its users would.
    """

    codes: np.ndarray
    counts: np.ndarray
    n_users: int

    def __len__(self) -> int:
        return self.n_users


def split_users(group: UserGroup, sizes: list[int], rng: np.random.Generator) -> list[UserGroup]:
    """Split a group's users into groups of ``sizes`` users, uniformly at random.

    The law is that of cutting a uniform random permutation of the users into
    consecutive chunks. An item is light when at most
    ``LIGHT_USERS_PER_CUT * (len(sizes) - 1)`` users hold it, heavy otherwise.
    One multivariate hypergeometric draw over the sizes decides how many seats
    of each group go to light users. Given which seats hold light users, the
    light and the heavy users are each uniformly permuted over their own
    seats, so the two parts are drawn apart and the law stays exact: heavy
    items by recursive halving against the seats left (:func:`_halve`), light
    users by permuting group labels (:func:`_seat_light`). The light part
    fills a table with one row per group and one column per item, in code
    order; each group's row takes its heavy counts from a halving leaf, and
    the group is the nonzero entries of that row. The cost is
    O(items x groups + heavy items x groups + light users).

    Each returned group holds uint64 codes and int32 counts. The draw over
    the sizes rejects a group of ``PARTY_USERS_LIMIT`` = 10**9 or more
    users, and 10**9 < 2**31, so no count can wrap.
    """
    light = np.where(group.counts <= LIGHT_USERS_PER_CUT * (len(sizes) - 1), group.counts, 0)
    heavy = np.flatnonzero(light == 0)  # every item holds users, so these are the heavy ones
    light_seats = rng.multivariate_hypergeometric(sizes, int(light.sum()))
    # Halved by column: each leaf's columns are the heavy items it holds.
    leaves = _halve(heavy, group.counts[heavy], sizes - light_seats, rng)
    parts = []
    for size, light_row in zip(sizes, _seat_light(light, light_seats, rng)):
        row = light_row.astype(np.int32)  # heavy counts fit: every count is below 10**9
        columns, counts = leaves.pop(0)  # frees each leaf once its row is built
        row[columns] = counts
        held = np.flatnonzero(row)
        parts.append(UserGroup(group.codes[held], row[held], size))
    return parts


def _halve(
    columns: np.ndarray, counts: np.ndarray, sizes: np.ndarray, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the users of ``columns`` (``counts`` each) by recursive halving:
    the first half of the sizes takes a multivariate hypergeometric sample of
    the users, the rest keep the remainder, and each side splits again. Items a
    side does not hold are dropped from it, so the cost shrinks with depth.
    Returns each size's (columns, counts)."""
    if len(sizes) == 1 or len(columns) == 0:
        return [(columns, counts)] * len(sizes)
    half = len(sizes) // 2
    left = rng.multivariate_hypergeometric(counts, sum(sizes[:half]), method="marginals")
    parts = []
    for part, part_sizes in ((left, sizes[:half]), (counts - left, sizes[half:])):
        held = part > 0
        parts += _halve(columns[held], part[held], part_sizes, rng)
    return parts


def _seat_light(counts: np.ndarray, seats: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Seat the users of items held by ``counts`` users (0 for items seated
    elsewhere) in groups of ``seats`` users, uniformly at random, block by
    block.

    Returns the users of each group (row) and item (column). A group holds
    at most all of a light item's users, so the table takes the smallest
    dtype that holds the light cutoff: uint8 up to 64 groups.

    A block is a run of whole items holding about ``LIGHT_BLOCK_USERS`` users.
    It takes a multivariate hypergeometric share of the seats left (the last
    block takes them all) and permutes that many group labels over its users,
    listed by item. Taking consecutive blocks is the chain rule of one
    permutation of all the users. Each (label, item) pair's users are counted
    ``LIGHT_BLOCK_USERS // g`` items at a time, so every temporary stays
    O(``LIGHT_BLOCK_USERS``).
    """
    g, n_items = len(seats), len(counts)
    table = np.empty((g, n_items), np.min_scalar_type(LIGHT_USERS_PER_CUT * (g - 1)))
    # Block cuts strictly increase: a light item holds fewer than LIGHT_BLOCK_USERS users.
    ends = np.arange(LIGHT_BLOCK_USERS, counts.sum(), LIGHT_BLOCK_USERS)
    bounds = [0, *np.searchsorted(np.cumsum(counts), ends).tolist(), n_items]
    step = max(1, LIGHT_BLOCK_USERS // g)  # items counted at once: LIGHT_BLOCK_USERS cells
    left = seats
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = counts[lo:hi]
        take = left if hi == n_items else rng.multivariate_hypergeometric(left, int(block.sum()))
        left = left - take
        labels = np.repeat(np.arange(g), take)[rng.permutation(int(block.sum()))]
        first = np.append(0, np.cumsum(block))  # each item's first user in the block, then the end
        for a, b in zip(range(0, hi - lo, step), [*range(step, hi - lo, step), hi - lo]):
            cells = labels[first[a] : first[b]] * (b - a) + np.repeat(np.arange(b - a), block[a:b])
            table[:, lo + a : lo + b] = np.bincount(cells, minlength=g * (b - a)).reshape(g, -1)
    return table


@dataclass(frozen=True)
class PartyState:
    """One party's dataset as a histogram over its items.

    ``codes`` are the party's ascending distinct m-bit item codes (stored as
    uint64) and ``counts`` the number of users holding each (positive, stored
    as int64), so a party costs memory in its distinct items, not its users.
    Both must hold integers, the codes must not be negative and the party
    must hold fewer than ``PARTY_USERS_LIMIT`` users, or ValueError is
    raised: a value is never truncated or wrapped. The dataclass
    is frozen and both arrays are read-only views, so engines can share a
    party across runs and threads; per-run state (groups, uploads) lives in
    the engines and their :class:`RunResult`.
    """

    party_id: int
    codes: np.ndarray
    counts: np.ndarray
    item_length: int
    n_users: int = field(init=False)

    def __post_init__(self):
        codes, counts = np.asarray(self.codes), np.asarray(self.counts)
        if codes.ndim != 1 or codes.shape != counts.shape:
            raise ValueError(
                "codes and counts must be equal-length vectors, "
                f"got {codes.shape} and {counts.shape}"
            )
        if len(codes) == 0:
            raise ValueError(f"party {self.party_id} has no users")
        for name, values in (("codes", codes), ("counts", counts)):
            if values.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers, got dtype {values.dtype}")
        if codes.min() < 0:
            raise ValueError("codes must not be negative")
        if counts.min() < 1:
            raise ValueError("user counts must be positive")
        # Checked before the cast and the sum: a uint64 count of 2**63 or more
        # would wrap to a negative int64, and large counts would wrap the sum.
        if counts.max() >= PARTY_USERS_LIMIT:
            raise ValueError(
                f"party {self.party_id} has {counts.max()} users of one item; "
                "grouping needs fewer than 10**9"
            )
        codes = _read_only(codes.astype(np.uint64, copy=False))
        counts = _read_only(counts.astype(np.int64, copy=False))
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "counts", counts)
        if np.any(codes[1:] <= codes[:-1]):
            raise ValueError("item codes must be ascending and distinct")
        if not 1 <= self.item_length <= 64:
            raise ValueError("item_length must be in [1, 64]")
        if self.item_length < 64 and int(codes[-1]) >= (1 << self.item_length):
            raise ValueError("user codes exceed the declared item length")
        n_users = int(counts.sum())
        if n_users >= PARTY_USERS_LIMIT:
            raise ValueError(
                f"party {self.party_id} holds {n_users} users; grouping needs fewer than 10**9"
            )
        object.__setattr__(self, "n_users", n_users)

    @property
    def users(self) -> np.ndarray:
        """One item code per user, grouped by code: a read-only array derived from the counts."""
        return _read_only(np.repeat(self.codes, self.counts))

    @property
    def all_users(self) -> UserGroup:
        return UserGroup(self.codes, self.counts, self.n_users)


def pool_counts(parties: list[PartyState]) -> tuple[np.ndarray, np.ndarray]:
    """The parties' ascending distinct codes and the users holding each, summed over parties."""
    distinct, inverse = np.unique(
        np.concatenate([party.codes for party in parties]), return_inverse=True
    )
    totals = np.zeros(len(distinct), dtype=np.int64)
    np.add.at(totals, inverse, np.concatenate([party.counts for party in parties]))
    return distinct, totals


# A party's user groups: trie level -> its users there.
LevelGroups = dict[int, UserGroup]


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything one engine run produces.

    ``topk`` holds the server's top-k prefixes (uint64) by descending merged
    count, ascending prefix on ties. ``merged`` holds every reported prefix
    once, ascending, with its count summed over parties, as :data:`PAIR`
    records. ``uploads`` holds each party's final report as (party id,
    entries), in the parties' input order; the entries are :data:`PAIR`
    records by descending estimate. ``report_pairs`` counts every reported
    pair of the run, phase I included, and ``package_pairs`` every
    pruning-package pair passed between parties. Results compare by
    identity; compare their arrays to compare two runs.
    """

    topk: np.ndarray
    merged: np.ndarray
    uploads: list[tuple[int, np.ndarray]]
    report_pairs: int
    package_pairs: int = 0

    @property
    def uploaded_bytes(self) -> int:
        return PAIR_BYTES * (self.report_pairs + self.package_pairs)


def _even_sizes(n: int, parts: int) -> list[int]:
    """Sizes of ``np.array_split`` of n items into ``parts`` chunks."""
    base, extra = divmod(n, parts)
    return [base + 1] * extra + [base] * (parts - extra)


def assign_groups(
    party: PartyState, params: ProtocolParams, run_key: int, mode: str
) -> LevelGroups:
    """Partition the party's users into per-level groups, uniformly at random.

    Mode "tap" reserves ``phase1_user_fraction`` of the users for levels
    1..g_s (split evenly) and splits the rest evenly across levels g_s+1..g.
    Mode "pem" splits all users evenly across levels 1..g.
    """
    if mode == "pem":
        sizes = _even_sizes(party.n_users, params.g)
    elif mode == "tap":
        n_phase1 = int(party.n_users * params.phase1_user_fraction)
        sizes = _even_sizes(n_phase1, params.g_s) + _even_sizes(
            party.n_users - n_phase1, params.g - params.g_s
        )
    else:
        raise ValueError(f"unknown grouping mode {mode!r}")
    rng = generator(derive_key(run_key, _TAG_GROUPING, party.party_id))
    return dict(enumerate(split_users(party.all_users, sizes, rng), start=1))


def draw_groups(
    parties: list[PartyState], params: ProtocolParams, run_key: int, mode: str
) -> dict[int, LevelGroups]:
    """Every party's level groups by party id: :func:`assign_groups` in ``mode``.

    Engines walk the groups they are given: the caller draws them here, once,
    in the mechanism's grouping mode (the runner's ``_GROUPING_MODES``).
    """
    return {party.party_id: assign_groups(party, params, run_key, mode) for party in parties}


def estimate_level(
    party: PartyState,
    domain: CandidateDomain,
    group: UserGroup,
    params: ProtocolParams,
    stream_key: int,
) -> RankedEstimates:
    """One group's sanitized frequency estimate over a candidate domain.

    Each user of ``group`` perturbs the ``domain.level_length``-bit prefix of
    their item (out-of-domain prefixes map to the dummy slot). The prefix
    lookup runs once per distinct item of the group, and the oracle takes
    those domain indices with the group's counts, so the step costs
    O(distinct items + domain size) whatever the number of users. The dummy
    estimate is discarded and the rest are ranked by descending frequency
    (ascending prefix value on ties).
    """
    dom_bits = domain.prefixes
    if len(dom_bits) == 0:
        raise ProtocolError("candidate domain is empty")
    d = domain.alphabet_size
    config = _oracle_config(params.oracle, params.epsilon, d)
    n = len(group)
    n_real = len(dom_bits)
    if n == 0:
        return RankedEstimates(dom_bits, np.zeros(n_real), sigma=math.sqrt(oracles.variance(config, 1)))
    shift = np.uint64(party.item_length - domain.level_length)
    prefixes = group.codes >> shift
    pos = np.minimum(np.searchsorted(dom_bits, prefixes), n_real - 1)
    item_index = np.where(dom_bits[pos] == prefixes, pos, n_real)
    counts = oracles.perturb_counts(config, stream_key, range(n), item_index, group.counts)
    estimates = oracles.estimate_from_counts(config, counts, n)[:n_real]
    sigma = math.sqrt(oracles.variance(config, n))
    # The domain is ascending, so a stable sort breaks ties by ascending prefix.
    order = np.argsort(-estimates, kind="stable")
    return RankedEstimates(dom_bits[order], estimates[order], sigma=sigma)


def _select_extension(ranked: RankedEstimates, params: ProtocolParams) -> tuple[np.ndarray, int]:
    if params.fixed_t is not None:
        t = max(1, min(params.fixed_t, len(ranked)))
    else:
        t = extension_number(ranked, params.k)
    return ranked.prefixes[:t], t


def _merge_reports(
    reports: list[tuple[int, np.ndarray]],
    k: int,
    phase1_pairs: int = 0,
    package_pairs: int = 0,
) -> RunResult:
    """Sum per-prefix counts across parties and rank the result.

    ``reports`` are (party id, :data:`PAIR` entries). Each prefix's counts
    are summed with ``math.fsum``, which rounds the exact sum once, so the
    merge does not depend on party order; a plain sum does (0.1 + 0.2 + 0.3
    is not 0.3 + 0.2 + 0.1). ``phase1_pairs`` and ``package_pairs`` are the
    run's uploads before these reports.
    """
    # Concatenated field by field: numpy concatenates structured arrays slowly.
    prefixes = np.concatenate([entries["prefix"] for _, entries in reports])
    order = np.argsort(prefixes)
    prefixes = prefixes[order]
    counts = np.concatenate([entries["count"] for _, entries in reports])[order].tolist()
    first = np.ones(len(prefixes), dtype=bool)  # each prefix's first pair
    first[1:] = prefixes[1:] != prefixes[:-1]
    starts = np.flatnonzero(first).tolist()
    merged = np.empty(len(starts), PAIR)
    merged["prefix"] = prefixes[first]
    merged["count"] = [math.fsum(counts[a:b]) for a, b in zip(starts, [*starts[1:], len(counts)])]
    ranked = np.lexsort((merged["prefix"], -merged["count"]))
    return RunResult(
        topk=merged["prefix"][ranked[:k]],
        merged=merged,
        uploads=reports,
        report_pairs=phase1_pairs + sum(len(entries) for _, entries in reports),
        package_pairs=package_pairs,
    )


def _walk(
    parties: list[PartyState],
    params: ProtocolParams,
    run_key: int,
    levels: range,
    groups: dict[int, LevelGroups],
    parents: np.ndarray = ROOT,
    prune=None,
) -> dict[int, np.ndarray]:
    """Walk every party through ``levels``, level by level, extending
    ``parents``; returns each party's upload by party id: its last level's
    top-t selection scaled by the party's population, as :data:`PAIR`
    records with strictly positive counts.

    At each level h the parties take turns in list order: each builds its
    candidate domain from its previous selection, estimates the level on its
    ``SUB_MAIN`` stream over ``groups[party.party_id][h]`` and extends. From
    the second party on, ``prune(h, party, domain, group, sender,
    sender_ranked)`` (when given) sees the previous party in the list and its
    ranked table at h, and returns the domain and the users for the estimate.

    Every engine runs this before its first level (``run_taps`` through
    ``run_stc``), so it checks a run's inputs: raises ProtocolError for no
    parties, two parties with one id, a party whose item length is not
    ``params.m``, or a party that ``groups`` lacks.
    """
    if not parties:
        raise ProtocolError("need at least one party")
    if len({party.party_id for party in parties}) < len(parties):
        raise ProtocolError("party ids must be distinct")
    for party in parties:
        if party.item_length != params.m:
            raise ProtocolError(
                f"party {party.party_id} holds {party.item_length}-bit items, but m={params.m}"
            )
        if party.party_id not in groups:
            raise ProtocolError(f"no level groups given for party {party.party_id}")
    selections = [parents] * len(parties)
    uploads = {}
    l_prev = 0 if levels[0] == 1 else level_length(levels[0] - 1, params.m, params.g)
    for h in levels:
        length = level_length(h, params.m, params.g)
        for i, party in enumerate(parties):
            domain = construct_domain(selections[i], length, l_prev)
            group = groups[party.party_id][h]
            if prune is not None and i > 0:
                # ranked is still the previous party's table at this level.
                domain, group = prune(h, party, domain, group, parties[i - 1], ranked)
            key = derive_key(run_key, party.party_id, h, SUB_MAIN)
            ranked = estimate_level(party, domain, group, params, key)
            selections[i], t = _select_extension(ranked, params)
            if h == levels[-1]:
                upload = np.empty(t, PAIR)
                upload["prefix"] = selections[i]
                upload["count"] = ranked.frequencies[:t] * party.n_users
                uploads[party.party_id] = upload[upload["count"] > 0]
        l_prev = length
    return uploads


def run_stc(
    parties: list[PartyState],
    params: ProtocolParams,
    run_key: int,
    groups: dict[int, LevelGroups],
) -> RunResult:
    """Phase I: the parties walk levels 1..g_s on their ``groups``; the merged
    top-k is the shared shallow trie (empty if no count is positive)."""
    uploads = _walk(parties, params, run_key, range(1, params.g_s + 1), groups)
    return _merge_reports(list(uploads.items()), params.k)


def run_pem_single(
    party: PartyState,
    params: ProtocolParams,
    run_key: int,
    groups: dict[int, LevelGroups],
) -> RunResult:
    """Single-party baseline: :func:`run_fedpem` on one party, whose
    ``groups`` the caller draws once, in mode "pem"."""
    return run_fedpem([party], params, run_key, groups)


def run_fedpem(
    parties: list[PartyState],
    params: ProtocolParams,
    run_key: int,
    groups: dict[int, LevelGroups],
) -> RunResult:
    """Federated baseline: each party splits its users evenly across all g
    levels (``groups``, which the caller draws once, in mode "pem"), walks
    them with fixed extension ``t = k`` and no shared trie, and the server
    merges the final-level uploads."""
    pem_params = replace(params, fixed_t=params.fixed_t if params.fixed_t is not None else params.k)
    uploads = _walk(parties, pem_params, run_key, range(1, params.g + 1), groups)
    return _merge_reports(list(uploads.items()), params.k)
