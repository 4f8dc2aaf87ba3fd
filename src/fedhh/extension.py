"""Adaptive trie extension: anchor selection and noise-drift estimation.

At each trie level the protocol must decide how many top-ranked prefixes to
extend into the next level. The anchor k* marks the boundary between
influential and marginal frequencies among the top k+1 ranked estimates; the
drift distance eta estimates how far the anchor rank can drift under the
oracle's noise. The extension number is t = k* + eta, capped at the number of
ranked entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)


@dataclass
class RankedEstimates:
    """Per-prefix estimates sorted by descending frequency.

    ``prefixes`` holds one level's prefix values (uint64) and
    ``frequencies`` their estimates, aligned. Ties are broken by ascending
    prefix value, so the order is deterministic. ``sigma`` is the standard
    deviation of the producing oracle at the reporting group's size and the
    level's alphabet size.
    """

    prefixes: np.ndarray
    frequencies: np.ndarray
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def __len__(self) -> int:
        return len(self.prefixes)


def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / SQRT2)


def drift_probability(delta_f: float, sigma: float) -> float:
    """Pr[X_a <= X_b] for independent Gaussians with means delta_f apart.

    Both variables carry variance sigma^2, so their difference has variance
    2 sigma^2 and the probability is Phi(-delta_f / (sqrt(2) sigma)). This is
    the closed form of the defining integral; the test suite checks it against
    numerical quadrature.
    """
    return normal_cdf(-delta_f / (SQRT2 * sigma))


def select_anchor(ranked: RankedEstimates, k: int) -> int:
    """The anchor rank k* in (1, k] maximizing the influence gap.

    Score(k*) = mean(f_2..f_k*) - mean(f_{k*+1}..f_{k+1}); the largest
    frequency is excluded from the first mean because rank 1 is always
    preserved. Lists shorter than k+1 are padded with zero-frequency
    sentinels. Ties resolve toward the smaller k*.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    freqs = [float(f) for f in ranked.frequencies[: k + 1]]  # the ranks the score reads
    freqs += [0.0] * (k + 1 - len(freqs))  # zero-frequency sentinels up to k+1
    best_k, best_score = 2, -math.inf
    top_sum = 0.0
    tail_sum = sum(freqs[2 : k + 1])
    for k_star in range(2, k + 1):
        top_sum += freqs[k_star - 1]
        score = top_sum / (k_star - 1) - tail_sum / (k + 1 - k_star)
        if score > best_score:
            best_k, best_score = k_star, score
        tail_sum -= freqs[k_star]
    return best_k


def drift_distance(ranked: RankedEstimates, k: int, k_star: int) -> int:
    """Expected rank drift of the anchor under the oracle noise.

    eta = min(k, floor(E)) with E = sum_x x * Pr[X_k* <= X_{k*+x}] over
    x in [max(1, k*-k+1), min(k, len(ranked)-k*)]. An empty range (nothing
    ranked beyond the anchor) gives eta = 0.
    """
    lo = max(1, k_star - k + 1)
    hi = min(k, len(ranked.frequencies) - k_star)
    if hi < lo:
        # Nothing ranked beyond the anchor, or it landed on a zero-frequency sentinel.
        return 0
    freqs = [float(f) for f in ranked.frequencies[: k_star + hi]]  # the ranks the sum reads
    anchor = freqs[k_star - 1]
    expectation = 0.0
    for x in range(lo, hi + 1):
        expectation += x * drift_probability(anchor - freqs[k_star + x - 1], ranked.sigma)
    return min(k, math.floor(expectation))


def extension_number(ranked: RankedEstimates, k: int) -> int:
    """t = k* + eta, capped at the number of ranked entries."""
    k_star = select_anchor(ranked, k)
    eta = drift_distance(ranked, k, k_star)
    return max(1, min(k_star + eta, len(ranked)))
