"""The three locally differentially private frequency oracles.

k-ary randomized response (krr), optimized unary encoding (oue) and optimized
local hashing (olh): perturbation, aggregation into support counts, unbiased
frequency estimation and the analytic variance formulas. Estimates are never
clipped; negative values are kept because rank order near zero matters to the
trie protocols. The dummy slot is an ordinary domain index whose estimate the
caller discards after aggregation.

Two perturbation paths exist. ``perturb``/``aggregate`` work on explicit
per-user reports and accept any ``numpy.random.Generator``; they are the
reference client and server. The protocol engines use ``perturb_counts``,
which draws a whole group's support counts from the group's true-index
histogram n_x in O(d) draws instead of simulating n users over d cells. With
p and q the support probabilities of Wang, Blocki, Li and Jha (USENIX
Security 2017):

- oue: every bit of every report is independent, so
  c_x = Bin(n_x, 1/2) + Bin(n - n_x, q) exactly.
- olh: c_x = Bin(n_x, p) + Bin(n - n_x, 1/d'). Under the ideal-hash model
  that q = 1/d' already assumes, a user's support indicators for distinct
  items are independent, so the joint law matches the per-user protocol.
- krr: a report keeps the true index with probability p - q and is otherwise
  uniform over all d indices, because p + (d - 1) q = 1. Hence
  c = Bin(n_x, p - q) + Multinomial(n - kept, 1/d), exact in distribution.

Determinism contract: the counts are a function of the stream key and the
group's histogram alone, so they do not depend on the order of users, on
chunking or on the number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fedhh._rng import derive_key, olh_bucket

KINDS = ("krr", "oue", "olh")

# Sub-stream tag of the generator that draws a group's support counts.
_STREAM_COUNTS = 1

# The privacy budgets every oracle accepts. Above the upper end e^eps, and
# with it the olh hash range d' and the sums e^eps + d', come within a few
# powers of ten of the float limit (math.exp overflows past 709.78). Below
# the lower end e^eps - 1 nears double rounding error and p, q stop being
# distinguishable, so the estimator's denominator p - q vanishes.
EPSILON_MIN = 1e-12
EPSILON_MAX = 700.0


def check_epsilon(epsilon: float) -> float:
    """Return ``epsilon`` as a float, or raise ValueError outside the envelope."""
    epsilon = float(epsilon)
    if not EPSILON_MIN <= epsilon <= EPSILON_MAX:  # also rejects nan
        raise ValueError(
            f"epsilon must lie in [{EPSILON_MIN:g}, {EPSILON_MAX:g}], got {epsilon}"
        )
    return epsilon


@dataclass(frozen=True)
class OracleConfig:
    """Oracle kind, privacy budget and alphabet size (dummy slot included)."""

    kind: str
    epsilon: float
    domain_size: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        check_epsilon(self.epsilon)
        if self.domain_size < 2:
            raise ValueError("domain size must be at least 2")

    @property
    def d_prime(self) -> int:
        """Hash range of the local-hashing oracle: ceil(e^eps + 1)."""
        return max(2, math.ceil(math.exp(self.epsilon) + 1))

    @property
    def p(self) -> float:
        """Probability that the report supports the user's true index."""
        e = math.exp(self.epsilon)
        if self.kind == "krr":
            return e / (self.domain_size - 1 + e)
        if self.kind == "oue":
            return 0.5
        return e / (self.d_prime - 1 + e)

    @property
    def q(self) -> float:
        """Probability that the report supports any fixed other index."""
        e = math.exp(self.epsilon)
        if self.kind == "krr":
            return 1.0 / (self.domain_size - 1 + e)
        if self.kind == "oue":
            return 1.0 / (e + 1)
        # For a non-true item x, the report supports x iff the perturbed
        # bucket equals hash(seed, x); by pairwise uniformity of the hash
        # family this happens with probability p/d' + (1-p)/d' = 1/d'.
        return 1.0 / self.d_prime


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


def estimate_from_counts(config: OracleConfig, counts: np.ndarray, n: int) -> np.ndarray:
    """Unbiased estimator f_x = (c_x / n - q) / (p - q)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (np.asarray(counts, dtype=np.float64) / n - config.q) / (config.p - config.q)


def perturb_counts(
    config: OracleConfig, stream_key: int, user_index, true_index
) -> np.ndarray:
    """Draw the support counts of one report per user from the group histogram.

    ``true_index`` holds each user's domain index; ``user_index`` only has to
    match it in length. The counts depend on ``stream_key`` and the histogram
    of ``true_index`` alone (see the module docstring for the laws).
    """
    d = config.domain_size
    true = np.asarray(true_index, dtype=np.int64)
    if true.ndim != 1 or len(true) != len(user_index):
        raise ValueError(
            f"true_index has shape {true.shape}, user_index has length {len(user_index)}"
        )
    n = len(true)
    if n and (true.min() < 0 or true.max() >= d):
        raise ValueError(f"true_index values must lie in [0, {d})")
    hist = np.bincount(true, minlength=d)
    rng = np.random.default_rng(derive_key(stream_key, _STREAM_COUNTS))
    if config.kind == "krr":
        kept = rng.binomial(hist, config.p - config.q)
        return kept + rng.multinomial(n - int(kept.sum()), np.full(d, 1.0 / d))
    return rng.binomial(hist, config.p) + rng.binomial(n - hist, config.q)


def variance(config: OracleConfig, n: int) -> float:
    """Estimator variance at ``n`` reports (the oue/olh forms coincide)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    # (e - 1)^2 / e, written so that it neither overflows at large budgets
    # nor cancels at small ones.
    spread = math.expm1(config.epsilon) * -math.expm1(-config.epsilon)
    if config.kind == "krr":
        return ((config.domain_size - 2) * math.exp(-config.epsilon) + 1) / (spread * n)
    return 4 / (spread * n)


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
