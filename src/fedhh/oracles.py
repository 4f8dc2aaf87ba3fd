"""The three locally differentially private frequency oracles.

k-ary randomized response (krr), optimized unary encoding (oue) and optimized
local hashing (olh): a group's support counts, unbiased frequency estimation
and the analytic variance formulas. Estimates are never
clipped; negative values are kept because rank order near zero matters to the
trie protocols. The dummy slot is an ordinary domain index whose estimate the
caller discards after aggregation.

The protocol engines use ``perturb_counts``, which draws a whole group's
support counts from the group's true-index histogram n_x in O(d) draws
instead of simulating n users over d cells. The engines pass the histogram
itself, as domain indices with the number of users at each (``held``), so
no per-user array is built; a per-user index array gives the same draws.
With p and q the support probabilities of Wang, Blocki, Li and Jha (USENIX
Security 2017):

- oue: every bit of every report is independent, so
  c_x = Bin(n_x, 1/2) + Bin(n - n_x, q) exactly.
- olh: c_x = Bin(n_x, p) + Bin(n - n_x, 1/d'). Under the ideal-hash model
  that q = 1/d' already assumes, a user's support indicators for distinct
  items are independent, so the joint law matches the per-user protocol.
- krr: a report keeps the true index with probability p - q and is otherwise
  uniform over all d indices, because p + (d - 1) q = 1. Hence
  c = Bin(n_x, p - q) + Multinomial(n - kept, 1/d), exact in distribution.

For oue and olh one ``binomial`` call draws both terms, over the 2d entries
(n_x, then n - n_x) with p, then q, per entry: the same law and the same
stream as two calls, with one call's fixed cost fewer.

Determinism contract: the counts are a function of the stream key and the
group's histogram alone, so they do not depend on the order of users, on
chunking or on the number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fedhh._rng import derive_key

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


def estimate_from_counts(config: OracleConfig, counts: np.ndarray, n: int) -> np.ndarray:
    """Unbiased estimator f_x = (c_x / n - q) / (p - q)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (np.asarray(counts, dtype=np.float64) / n - config.q) / (config.p - config.q)


def perturb_counts(
    config: OracleConfig, stream_key: int, user_index, true_index, held=None
) -> np.ndarray:
    """Draw the support counts of one report per user from the group histogram.

    ``true_index`` holds domain indices and ``held`` the number of users at
    each entry, like ``np.bincount``'s weights (entries may repeat and are
    summed); without ``held`` each entry is one user. Both must hold
    integers, or ValueError is raised: a float is never truncated. ``held``
    is read at its own integer width, so a group's int32 counts go in with
    no copy. ``user_index`` only has to match the number of users in length.
    The counts depend on ``stream_key`` and the users' histogram alone (see
    the module docstring for the laws), so a histogram and its per-user
    expansion draw the same counts, and the histogram costs O(entries + d).
    """
    d = config.domain_size
    true = np.asarray(true_index)
    if true.dtype.kind not in "iu":
        raise ValueError(f"true_index must hold integers, got dtype {true.dtype}")
    if true.dtype != np.int64:  # the range check below reads it as uint64
        true = true.astype(np.int64)
    if true.ndim != 1:
        raise ValueError(f"true_index must be one-dimensional, got shape {true.shape}")
    if len(true) and true.view(np.uint64).max() >= d:  # negatives wrap to huge unsigned values
        raise ValueError(f"true_index values must lie in [0, {d})")
    if held is not None:
        held = np.asarray(held)
        if held.dtype.kind not in "iu":
            raise ValueError(f"held must hold integers, got dtype {held.dtype}")
        if held.shape != true.shape:
            raise ValueError(f"held has shape {held.shape}, true_index has shape {true.shape}")
        if len(held) and held.min() < 0:
            raise ValueError("held must not be negative")
    # bincount sums weights in float64, exact below 2**53 users; a party holds fewer than 10**9.
    hist = np.bincount(true, weights=held, minlength=d).astype(np.int64)
    n = int(hist.sum())
    if n != len(user_index):
        raise ValueError(f"true_index holds {n} users, user_index has length {len(user_index)}")
    rng = np.random.default_rng(derive_key(stream_key, _STREAM_COUNTS))
    if config.kind == "krr":
        kept = rng.binomial(hist, config.p - config.q)
        return kept + rng.multinomial(n - int(kept.sum()), np.full(d, 1.0 / d))
    # Bin(hist, p) then Bin(n - hist, q), drawn in that order by one call.
    draws = rng.binomial(np.concatenate([hist, n - hist]), np.repeat([config.p, config.q], d))
    return draws[:d] + draws[d:]


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
