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

Parties are histograms (see :class:`~fedhh.protocol.PartyState`): a party's
counts are one multinomial draw over its ranked domain, the same law as n
independent per-user draws, so building a dataset costs O(distinct items)
whatever the number of users. Ingested party files are counted the same way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from fedhh.protocol import PartyState, pool_counts

LAWS = ("zipf", "poisson")

# Pool share per group, largest first. Unequal groups are what let party
# domain sizes differ: with equal groups every Dirichlet weight vector would
# pull the same total item count.
_GROUP_WEIGHTS_6 = (0.25, 0.20, 0.18, 0.15, 0.12, 0.10)


@dataclass(frozen=True)
class PartySpec:
    """Population size and popularity law for one synthetic party.

    ``param`` is the Zipf exponent, which must exceed 1, or the Poisson
    rate, which must be positive.
    """

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
        if self.law == "poisson" and self.param <= 0:
            raise ValueError("poisson rate must be positive")


@dataclass
class GroundTruth:
    """Exact population-level top-k: item ``codes`` (uint64) by descending
    frequency, ascending code on ties, and their global ``frequencies``."""

    codes: np.ndarray
    frequencies: np.ndarray


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
    Poisson(lam), lam > 0 as :class:`PartySpec` requires, is the pmf of a
    Poisson draw clipped to the domain: the tail mass beyond the last rank
    collapses onto it.
    """
    ranks = np.arange(domain_size, dtype=np.float64)
    if spec.law == "zipf":
        weights = (ranks + 1.0) ** -spec.param
        return weights / weights.sum()
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(ranks[1:]))))
    weights = np.exp(ranks * np.log(spec.param) - spec.param - log_factorial)
    weights[-1] += max(0.0, 1.0 - weights.sum())
    return weights / weights.sum()


def generate_syn(
    specs: list[PartySpec],
    item_pool: int,
    n_groups: int,
    rng: np.random.Generator,
    m: int = 48,
    dirichlet_beta: float = 0.5,
) -> list[PartyState]:
    """Build one synthetic multi-party dataset.

    ``item_pool`` is the pool size: the items are 0..item_pool-1, and an
    item's code is its id. Every party gets a fresh child seed from ``rng``,
    so a seeded generator reproduces the whole dataset.

    Each party ranks its domain by an independent uniform permutation and
    draws how many of its users hold each rank as one multinomial over its
    law's rank weights.
    """
    if not specs:
        raise ValueError("need at least one party spec")
    if n_groups < 1:
        raise ValueError("n_groups must be positive")
    if item_pool < n_groups:
        raise ValueError("item pool smaller than the number of groups")
    if item_pool > 1 << m:
        raise ValueError(f"pool items do not fit in {m} bits")
    shuffled = rng.permutation(item_pool)
    bounds = np.round(np.cumsum(_group_weights(n_groups)) * item_pool).astype(int)
    groups = np.split(shuffled, bounds[:-1])
    parties = []
    for party_id, spec in enumerate(specs):
        party_rng = np.random.default_rng(rng.integers(0, 2**63))
        for _ in range(10):
            shares = party_rng.dirichlet(np.full(n_groups, dirichlet_beta))
            taken = [
                group[: int(np.ceil(share * len(group)))]
                for group, share in zip(groups, shares)
            ]
            parts = [part for part in taken if len(part)]
            if parts:
                break
        else:
            raise RuntimeError("party domain came out empty after 10 draws")
        domain = np.concatenate(parts)
        ranked = party_rng.permutation(domain)
        counts = party_rng.multinomial(spec.n_users, law_weights(spec, len(domain)))
        held = counts > 0
        codes = ranked[held].astype(np.uint64)
        order = np.argsort(codes)
        parties.append(PartyState(party_id, codes[order], counts[held][order], m))
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


def ingest_party_file(
    path: str, vocabulary: dict[str, int], m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Count one item token per line into (ascending m-bit codes, users holding each).

    The vocabulary index is the item code and must fit in m bits; unknown
    tokens raise with the offending line number.
    """
    capacity = 1 << m
    counts: Counter[int] = Counter()
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
            counts[index] += 1
    if not counts:
        raise ValueError(f"party file {path} holds no items")
    codes = sorted(counts)
    return (
        np.asarray(codes, dtype=np.uint64),
        np.asarray([counts[code] for code in codes], dtype=np.int64),
    )


def exact_topk(parties: list[PartyState], k: int) -> GroundTruth:
    """Noise-free population top-k (frequency desc, item code asc on ties)."""
    if not parties:
        raise ValueError("need at least one party")
    if k < 1:
        raise ValueError("k must be positive")
    if any(party.item_length != parties[0].item_length for party in parties):
        raise ValueError("parties disagree on item length")
    codes, counts = pool_counts(parties)
    order = np.lexsort((codes, -counts))[:k]
    return GroundTruth(codes[order], counts[order] / counts.sum())
