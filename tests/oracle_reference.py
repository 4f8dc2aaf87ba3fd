"""The per-user reference client and server of the three frequency oracles.

The engines draw a group's support counts from its histogram
(``fedhh.oracles.perturb_counts``). The tests hold that path to this one:
``perturb`` sanitizes one user's index with any ``numpy.random.Generator``,
``aggregate`` folds explicit reports into support counts and unbiased
estimates, and ``ratio_bound_check`` computes each oracle's likelihood ratio
from its probability tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedhh._rng import GOLDEN, MASK64, mix64
from fedhh.oracles import OracleConfig, estimate_from_counts


def draw64(key: int, counter: int) -> int:
    """The ``counter``-th 64-bit value of stream ``key``.

    This is exactly the splitmix64 sequence seeded at ``key``, jumped to
    position ``counter``.
    """
    return mix64((key + (counter + 1) * GOLDEN) & MASK64)


def olh_bucket(hash_seed: int, index: int, d_prime: int) -> int:
    """The pinned hash family for the local-hashing oracle.

    Maps (seed, index) into [0, d_prime) via the keyed splitmix64 draw
    followed by a modulo reduction. The modulo bias is at most
    d_prime / 2**64 and is far below every tolerance of these tests.
    """
    return draw64(hash_seed, index) % d_prime


@dataclass
class OracleReport:
    """One user's sanitized report, tagged by the oracle kind."""

    kind: str
    index: int | None = None  # krr: reported index
    bits: np.ndarray | None = None  # oue: reported bit vector
    hash_seed: int | None = None  # olh
    bucket: int | None = None  # olh


@dataclass
class FrequencyTable:
    """Support counts and unbiased frequency estimates per domain index."""

    estimates: np.ndarray
    support_counts: np.ndarray
    n: int


def perturb(config: OracleConfig, true_index: int, rng: np.random.Generator) -> OracleReport:
    """Sanitize one user's index under the configured oracle."""
    d = config.domain_size
    if not 0 <= true_index < d:
        raise ValueError(f"index {true_index} out of range [0, {d})")
    if config.kind == "krr":
        if rng.random() < config.p:
            return OracleReport("krr", index=true_index)
        other = int(rng.integers(0, d - 1))
        if other >= true_index:
            other += 1
        return OracleReport("krr", index=other)
    if config.kind == "oue":
        thresholds = np.full(d, config.q)
        thresholds[true_index] = 0.5
        return OracleReport("oue", bits=(rng.random(d) < thresholds).astype(np.uint8))
    dp = config.d_prime
    seed = int(rng.integers(0, 1 << 64, dtype=np.uint64))
    bucket = olh_bucket(seed, true_index, dp)
    if rng.random() >= config.p:
        # d' - 1 can exceed 2**63, past what rng.integers draws; reduce a
        # Python integer with 64 spare bits (modulo bias below 2**-64).
        n_bytes = ((dp - 1).bit_length() + 64 + 7) // 8
        other = int.from_bytes(rng.bytes(n_bytes), "little") % (dp - 1)
        if other >= bucket:
            other += 1
        bucket = other
    return OracleReport("olh", hash_seed=seed, bucket=bucket)


def aggregate(config: OracleConfig, reports: list[OracleReport]) -> FrequencyTable:
    """Fold reports into support counts and unbiased frequency estimates."""
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    d = config.domain_size
    kinds = {r.kind for r in reports}
    if kinds != {config.kind}:
        raise ValueError(f"report kinds {kinds} do not match oracle {config.kind!r}")
    if config.kind == "krr":
        indices = np.array([r.index for r in reports], dtype=np.int64)
        counts = np.bincount(indices, minlength=d).astype(np.int64)
    elif config.kind == "oue":
        for r in reports:
            if len(r.bits) != d:
                raise ValueError("report vector length does not match domain size")
        counts = np.sum([r.bits for r in reports], axis=0, dtype=np.int64)
    else:
        counts = np.zeros(d, dtype=np.int64)
        for r in reports:
            for x in range(d):
                counts[x] += olh_bucket(r.hash_seed, x, config.d_prime) == r.bucket
    return FrequencyTable(
        estimates=estimate_from_counts(config, counts, len(reports)),
        support_counts=counts,
        n=len(reports),
    )


def ratio_bound_check(config: OracleConfig) -> float:
    """Maximum likelihood ratio sup_{x,x',y} Pr[y|x] / Pr[y|x'].

    Computed analytically from the probability tables; an oracle satisfies
    its budget iff the returned ratio is <= e^eps.
    """
    if config.kind == "krr":
        return config.p / config.q
    if config.kind == "olh":
        # Conditioned on the (input-independent) seed, the bucket follows a
        # two-point distribution: p on the true hash, (1-p)/(d'-1) elsewhere.
        p = config.p
        return p * (config.d_prime - 1) / (1 - p)
    # oue: any two inputs govern exactly two bit positions; the joint ratio
    # is the product of the per-bit ratios. Enumerate the four possibilities.
    p, q = config.p, config.q
    best = 0.0
    for bit_x in (0, 1):
        for bit_other in (0, 1):
            pr_x = p if bit_x else 1 - p  # position of x when x is the input
            pr_x_alt = q if bit_x else 1 - q  # same position when it is not
            pr_o = q if bit_other else 1 - q
            pr_o_alt = p if bit_other else 1 - p
            best = max(best, (pr_x * pr_o) / (pr_x_alt * pr_o_alt))
    return best
