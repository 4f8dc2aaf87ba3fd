"""Anchor selection, drift distance, and the extension number.

The anchor argmax is cross-checked against an exact-arithmetic enumeration
(Fractions over the float inputs), and the closed-form drift probability is
checked against numerical quadrature of the defining integral.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from fedhh.extension import (
    RankedEstimates,
    drift_distance,
    drift_probability,
    extension_number,
    normal_cdf,
    select_anchor,
)


def ranked(freqs, sigma=1e-6):
    codes = np.arange(len(freqs), dtype=np.uint64)
    return RankedEstimates(codes, np.asarray(freqs, dtype=float), sigma)


def anchor_oracle(freqs, k):
    """Exact-arithmetic enumeration of the anchor objective.

    Written independently of the implementation: slices and Fraction sums,
    no incremental bookkeeping. Ties resolve toward the smaller anchor.
    """
    padded = [Fraction(float(f)) for f in freqs]
    padded += [Fraction(0)] * max(0, k + 1 - len(padded))
    best_k, best_score = None, None
    for k_star in range(2, k + 1):
        top = padded[1:k_star]
        tail = padded[k_star : k + 1]
        score = sum(top) / (k_star - 1) - sum(tail) / (k + 1 - k_star)
        if best_score is None or score > best_score:
            best_k, best_score = k_star, score
    return best_k


# ---------------------------------------------------------------------------
# select_anchor


def test_anchor_worked_example():
    freqs = (0.30, 0.25, 0.24, 0.05, 0.04, 0.03)
    assert select_anchor(ranked(freqs), 4) == 3
    assert anchor_oracle(freqs, 4) == 3


def test_anchor_worked_example_scores():
    # Enumerating the objective by hand: k*=2 -> 0.14, k*=3 -> 0.20, k*=4 -> 0.14.
    freqs = [Fraction(x) for x in ("0.30", "0.25", "0.24", "0.05", "0.04", "0.03")]
    scores = {
        k_star: sum(freqs[1:k_star]) / (k_star - 1)
        - sum(freqs[k_star:5]) / (5 - k_star)
        for k_star in (2, 3, 4)
    }
    assert scores[2] == Fraction(14, 100)
    assert scores[3] == Fraction(20, 100)
    assert scores[4] == Fraction(14, 100)


def test_anchor_singleton_range():
    assert select_anchor(ranked((0.5, 0.4, 0.1, 0.0, 0.0)), 2) == 2


def test_anchor_uniform_tie_goes_small():
    assert select_anchor(ranked((0.2, 0.2, 0.2, 0.2, 0.2)), 3) == 2


def test_anchor_pads_short_lists():
    # Two entries, k=4: sentinel zeros fill ranks 3..5.
    assert select_anchor(ranked((0.6, 0.4)), 4) == anchor_oracle((0.6, 0.4), 4) == 2


def test_anchor_rejects_small_k():
    with pytest.raises(ValueError):
        select_anchor(ranked((0.5, 0.5)), 1)


def test_anchor_bruteforce_thousand_instances():
    rng = np.random.default_rng(2024_09)
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        length = int(rng.integers(2, 2 * k + 4))
        freqs = np.sort(rng.random(length))[::-1]
        assert select_anchor(ranked(freqs), k) == anchor_oracle(freqs, k)


# ---------------------------------------------------------------------------
# drift probability: closed form vs quadrature


def _integral_probability(delta_f, sigma):
    """Pr[X_a <= X_b] for X_a ~ N(f_a, sigma^2), X_b ~ N(f_b, sigma^2), via
    quadrature over the difference variable D = X_a - X_b ~ N(delta_f, 2 sigma^2)."""
    var = 2.0 * sigma * sigma

    def density(u):
        return math.exp(-((u - delta_f) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)

    value, _ = integrate.quad(density, -np.inf, 0.0)
    return value


def test_drift_probability_against_quadrature():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        delta_f = float(rng.uniform(-0.5, 0.5))
        sigma = float(rng.uniform(1e-3, 0.5))
        closed = drift_probability(delta_f, sigma)
        worst = max(worst, abs(closed - _integral_probability(delta_f, sigma)))
    assert worst <= 1e-6


def test_normal_cdf_reference_points():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-9)
    assert normal_cdf(-8.0) == pytest.approx(6.22096057427178e-16, rel=1e-6)


# ---------------------------------------------------------------------------
# drift_distance


def test_drift_zero_in_noiseless_limit():
    freqs = [0.9 - 0.1 * i for i in range(8)]
    r = ranked(freqs, sigma=1e-6)
    assert drift_distance(r, 4, select_anchor(r, 4)) == 0


def test_drift_saturates_on_flat_profile():
    # All equal, sigma=0.05, k=4, k*=2, 8 entries: each Pr = 0.5, the x-range
    # is 1..4, E = 0.5 * (1+2+3+4) = 5, so eta caps at k = 4.
    r = ranked([0.2] * 8, sigma=0.05)
    assert drift_distance(r, 4, 2) == 4


def test_drift_empty_range():
    # Nothing ranked beyond the anchor: eta = 0.
    r = ranked((0.6, 0.4), sigma=0.05)
    assert drift_distance(r, 4, 2) == 0


def test_drift_anchor_on_sentinel():
    # k* landed on a zero-frequency sentinel position past the real entries.
    r = ranked((0.9,), sigma=0.05)
    assert drift_distance(r, 4, 3) == 0


def test_drift_hand_sum():
    freqs = (0.30, 0.28, 0.27, 0.26, 0.25)
    sigma = 0.05
    r = ranked(freqs, sigma=sigma)
    expected = 0.0
    for x in (1, 2, 3):  # k*=2, k=3: x ranges over 1..min(3, 5-2)
        expected += x * normal_cdf(-(freqs[1] - freqs[1 + x]) / (math.sqrt(2) * sigma))
    assert drift_distance(r, 3, 2) == min(3, math.floor(expected))


def test_drift_monotone_in_sigma():
    rng = np.random.default_rng(88)
    for _ in range(50):
        freqs = np.sort(rng.random(10))[::-1]
        k = int(rng.integers(2, 7))
        k_star = select_anchor(ranked(freqs), k)
        etas = [
            drift_distance(ranked(freqs, sigma=s), k, k_star)
            for s in (1e-4, 1e-3, 1e-2, 0.1, 0.3, 1.0)
        ]
        assert etas == sorted(etas)


# ---------------------------------------------------------------------------
# extension_number


def test_extension_worked_example():
    assert extension_number(ranked((0.30, 0.25, 0.24, 0.05, 0.04, 0.03)), 4) == 3


def test_extension_saturated_uniform():
    # eta saturates at k, so t = k* + k = 6.
    assert extension_number(ranked([0.125] * 8, sigma=0.05), 4) == 6


def test_extension_capped_by_entry_count():
    assert extension_number(ranked((0.6, 0.4), sigma=0.05), 2) == 2


def test_sigma_must_be_positive():
    with pytest.raises(ValueError):
        ranked((0.5, 0.5), sigma=0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=24),
    st.floats(min_value=1e-6, max_value=2.0),
    st.integers(min_value=2, max_value=12),
)
def test_extension_number_invariant(values, sigma, k):
    """2 <= t <= min(2k, |entries|) whenever at least two entries exist."""
    freqs = sorted(values, reverse=True)
    t = extension_number(ranked(freqs, sigma=sigma), k)
    assert 2 <= t <= min(2 * k, len(freqs))
