"""Synthetic multi-party datasets and dataset ingestion.

The synthetic recipe builds a shared item pool, splits it into groups of
decreasing size, and gives every party a Dirichlet-weighted nested slice of
each group. Nesting (every party draws from the front of the same shuffled
group order) is what creates a realistic partial overlap between party
vocabularies: a small core of common items plus long party-specific tails.

Item codes are the pool indices themselves, zero-padded to m bits, matching
the vocabulary convention used for ingested datasets (line number = code).

Each user holds exactly one item. Per-party item popularity follows a Zipf
or Poisson law over the party's own ranking of its domain, and that ranking
is an independent uniform permutation per party: which items are popular
differs from party to party, which is the cross-party skew the protocols
have to cope with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedhh.prefix_codec import PrefixCode
from fedhh.protocol import PartyState

LAWS = ("zipf", "poisson")

# Pool share per group, largest first. Unequal groups are what let party
# domain sizes differ: with equal groups every Dirichlet weight vector would
# pull the same total item count.
_GROUP_WEIGHTS_6 = (0.25, 0.20, 0.18, 0.15, 0.12, 0.10)


@dataclass(frozen=True)
class PartySpec:
    """Population size and popularity law for one synthetic party."""

    n_users: int
    law: str
    param: float

    def __post_init__(self):
        if self.n_users < 1:
            raise ValueError("n_users must be positive")
        if self.law not in LAWS:
            raise ValueError(f"unknown law {self.law!r}")
        if self.law == "zipf" and self.param <= 1.0:
            raise ValueError("zipf exponent must exceed 1")
        if self.law == "poisson" and self.param < 0:
            raise ValueError("poisson rate must be non-negative")


@dataclass
class GroundTruth:
    """Exact population-level top-k item codes with their global frequencies."""

    topk: list[tuple[PrefixCode, float]]
    k: int
    total_users: int

    @property
    def codes(self) -> list[PrefixCode]:
        return [code for code, _ in self.topk]


def syn_default_specs() -> list[PartySpec]:
    """The eight-party reference configuration (780k users total)."""
    return [
        PartySpec(220_000, "poisson", 10.0),
        PartySpec(170_000, "poisson", 8.0),
        PartySpec(120_000, "zipf", 1.1),
        PartySpec(80_000, "zipf", 1.3),
        PartySpec(70_000, "poisson", 6.0),
        PartySpec(60_000, "poisson", 4.0),
        PartySpec(30_000, "zipf", 1.5),
        PartySpec(30_000, "zipf", 1.7),
    ]


def _group_weights(n_groups: int) -> np.ndarray:
    if n_groups == len(_GROUP_WEIGHTS_6):
        return np.asarray(_GROUP_WEIGHTS_6)
    weights = np.arange(n_groups, 0, -1, dtype=float)
    return weights / weights.sum()


def law_weights(spec: PartySpec, domain_size: int) -> np.ndarray:
    """Probability of each popularity rank (0 = most popular) under the
    party's law.

    Zipf(a) puts weight (r+1)**-a on rank r, normalized over the domain.
    Poisson(lam) is the pmf of a Poisson draw clipped to the domain: the
    tail mass beyond the last rank collapses onto it.
    """
    ranks = np.arange(domain_size, dtype=np.float64)
    if spec.law == "zipf":
        weights = (ranks + 1.0) ** -spec.param
        return weights / weights.sum()
    if spec.param == 0:
        weights = np.zeros(domain_size)
        weights[0] = 1.0
        return weights
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(ranks[1:]))))
    weights = np.exp(ranks * np.log(spec.param) - spec.param - log_factorial)
    weights[-1] += max(0.0, 1.0 - weights.sum())
    return weights / weights.sum()


def _law_ranks(spec: PartySpec, domain_size: int, rng: np.random.Generator) -> np.ndarray:
    if spec.law == "poisson":
        draws = rng.poisson(spec.param, size=spec.n_users)
        return np.minimum(draws, domain_size - 1)
    return rng.choice(domain_size, size=spec.n_users, p=law_weights(spec, domain_size))


def generate_syn(
    specs: list[PartySpec],
    item_pool: int | np.ndarray,
    n_groups: int,
    rng: np.random.Generator,
    m: int = 48,
    dirichlet_beta: float = 0.5,
) -> list[PartyState]:
    """Build one synthetic multi-party dataset.

    ``item_pool`` is either the pool size (items 0..size-1) or an explicit
    array of distinct item ids. Every party gets a fresh child seed from
    ``rng``, so a seeded generator reproduces the whole dataset.

    Each party ranks its domain by an independent uniform permutation and
    samples user items from its law over those ranks.
    """
    if not specs:
        raise ValueError("need at least one party spec")
    if n_groups < 1:
        raise ValueError("n_groups must be positive")
    pool = np.arange(item_pool) if isinstance(item_pool, int) else np.asarray(item_pool)
    if len(pool) < n_groups:
        raise ValueError("item pool smaller than the number of groups")
    if len(np.unique(pool)) != len(pool):
        raise ValueError("pool items must be distinct")
    if int(pool.max()) >= (1 << m):
        raise ValueError(f"pool items do not fit in {m} bits")
    shuffled = rng.permutation(len(pool))
    bounds = np.round(np.cumsum(_group_weights(n_groups)) * len(pool)).astype(int)
    groups = np.split(shuffled, bounds[:-1])
    parties = []
    for party_id, spec in enumerate(specs):
        party_rng = np.random.default_rng(rng.integers(0, 2**63))
        domain = None
        for _ in range(10):
            shares = party_rng.dirichlet(np.full(n_groups, dirichlet_beta))
            taken = [
                group[: int(np.ceil(share * len(group)))]
                for group, share in zip(groups, shares)
            ]
            parts = [part for part in taken if len(part)]
            if parts:
                domain = np.concatenate(parts)
                break
        if domain is None:
            raise RuntimeError("party domain came out empty after 10 draws")
        ranked = party_rng.permutation(domain)
        positions = ranked[_law_ranks(spec, len(domain), party_rng)]
        users = pool[positions].astype(np.uint64)
        parties.append(PartyState(party_id=party_id, users=users, item_length=m))
    return parties


def load_vocabulary(path: str) -> dict[str, int]:
    """Token -> index map from a one-token-per-line file."""
    vocabulary: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            token = line.strip()
            if not token:
                continue
            if token in vocabulary:
                raise ValueError(f"{path}:{line_no}: duplicate token {token!r}")
            vocabulary[token] = len(vocabulary)
    if not vocabulary:
        raise ValueError(f"vocabulary file {path} is empty")
    return vocabulary


def ingest_party_file(path: str, vocabulary: dict[str, int], m: int) -> np.ndarray:
    """Read one item token per line into an array of m-bit item codes.

    The vocabulary index is the item code and must fit in m bits; unknown
    tokens raise with the offending line number.
    """
    capacity = 1 << m
    indices: list[int] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            token = line.strip()
            if not token:
                continue
            index = vocabulary.get(token)
            if index is None:
                raise ValueError(f"{path}:{line_no}: unknown token {token!r}")
            if index >= capacity:
                raise ValueError(
                    f"{path}:{line_no}: vocabulary index {index} does not fit in {m} bits"
                )
            indices.append(index)
    if not indices:
        raise ValueError(f"party file {path} holds no items")
    return np.asarray(indices, dtype=np.uint64)


def exact_topk(parties: list[PartyState], k: int) -> GroundTruth:
    """Noise-free population top-k (frequency desc, item code asc on ties)."""
    if not parties:
        raise ValueError("need at least one party")
    if k < 1:
        raise ValueError("k must be positive")
    m = parties[0].item_length
    if any(party.item_length != m for party in parties):
        raise ValueError("parties disagree on item length")
    all_users = np.concatenate([party.users for party in parties])
    codes, counts = np.unique(all_users, return_counts=True)
    order = np.lexsort((codes, -counts))[:k]
    total = len(all_users)
    topk = [(PrefixCode(int(codes[i]), m), counts[i] / total) for i in order]
    return GroundTruth(topk=topk, k=k, total_users=total)
