"""Frequency oracle probability tables, estimators, and privacy ratio bounds.

The statistical checks are seed-pinned: every empirical quantity is produced
by a generator with a fixed key or seed, so a failure is a regression, not
noise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhh import oracles
from fedhh._rng import derive_key
from fedhh.oracles import OracleConfig

import oracle_reference

LN3 = math.log(3.0)


# ---------------------------------------------------------------------------
# analytic tables


def test_krr_table_ln3():
    config = OracleConfig("krr", LN3, 4)
    assert config.p == pytest.approx(0.5, rel=1e-12)
    assert config.q == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_oue_table_ln3():
    config = OracleConfig("oue", LN3, 4)
    assert config.p == 0.5
    assert config.q == pytest.approx(0.25, rel=1e-12)


def test_olh_table_ln3():
    config = OracleConfig("olh", LN3, 4)
    assert config.d_prime == 4
    assert config.p == pytest.approx(0.5, rel=1e-12)
    assert config.q == pytest.approx(0.25, rel=1e-12)


def test_olh_d_prime_growth():
    # d' = ceil(e^eps + 1) stays >= 2 and grows with the budget.
    assert OracleConfig("olh", 0.1, 8).d_prime == 3
    assert OracleConfig("olh", 2.0, 8).d_prime == 9
    assert OracleConfig("olh", 4.0, 8).d_prime == 56


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig("rr", 1.0, 4)
    with pytest.raises(ValueError):
        OracleConfig("krr", 0.0, 4)
    with pytest.raises(ValueError):
        OracleConfig("krr", 1.0, 1)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1.0, 1e-300, 800.0])
@pytest.mark.parametrize("kind", oracles.KINDS)
def test_config_rejects_epsilon_outside_envelope(kind, eps):
    with pytest.raises(ValueError, match="epsilon"):
        OracleConfig(kind, eps, 4)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(oracles.KINDS),
    eps=st.floats() | st.floats(min_value=1e-13, max_value=710.0),
    d=st.integers(min_value=2, max_value=4096),
)
def test_every_config_is_rejected_or_finite(kind, eps, d):
    """Construction raises ValueError, or every derived quantity is finite."""
    try:
        config = OracleConfig(kind, eps, d)
    except ValueError:
        return
    assert config.p > config.q
    for n in (1, 10**9):
        assert math.isfinite(oracles.variance(config, n))
    assert math.isfinite(config.p) and math.isfinite(config.q)
    assert math.isfinite(oracle_reference.ratio_bound_check(config))
    items = np.arange(50) % d
    counts = oracles.perturb_counts(config, 3, items, items)
    assert counts.shape == (d,)
    assert np.all(np.isfinite(oracles.estimate_from_counts(config, counts, 50)))


def test_olh_runs_at_large_epsilon():
    # d' = ceil(e^50 + 1) exceeds 2^64; the histogram path never forms it as
    # a machine integer.
    config = OracleConfig("olh", 50.0, 16)
    assert config.d_prime > 2**64
    counts = oracles.perturb_counts(config, 5, np.arange(1000), np.full(1000, 3))
    assert counts[3] == pytest.approx(500, abs=100)
    assert counts.sum() - counts[3] <= 1


# ---------------------------------------------------------------------------
# variance formulas


def test_variance_krr_hand_value():
    config = OracleConfig("krr", LN3, 4)
    assert oracles.variance(config, 100) == pytest.approx(0.0125, rel=1e-9)


def test_variance_oue_hand_value():
    config = OracleConfig("oue", LN3, 4)
    assert oracles.variance(config, 100) == pytest.approx(0.03, rel=1e-9)


def test_variance_olh_equals_oue():
    for eps in (0.5, 1.0, 2.0, 4.0):
        oue = oracles.variance(OracleConfig("oue", eps, 32), 5000)
        olh = oracles.variance(OracleConfig("olh", eps, 32), 5000)
        assert olh == oue


def test_variance_krr_depends_on_domain():
    small = oracles.variance(OracleConfig("krr", 1.0, 4), 100)
    large = oracles.variance(OracleConfig("krr", 1.0, 1024), 100)
    assert large > small


def test_variance_rejects_zero_reports():
    with pytest.raises(ValueError):
        oracles.variance(OracleConfig("krr", 1.0, 4), 0)


# ---------------------------------------------------------------------------
# privacy ratio bound


@pytest.mark.parametrize("kind", oracles.KINDS)
@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("d", [2, 16, 1024])
def test_ratio_bound(kind, eps, d):
    ratio = oracle_reference.ratio_bound_check(OracleConfig(kind, eps, d))
    assert ratio <= math.exp(eps) * (1 + 1e-12)


def test_ratio_is_tight():
    # All three mechanisms use their full budget: the max ratio equals e^eps.
    for kind in oracles.KINDS:
        ratio = oracle_reference.ratio_bound_check(OracleConfig(kind, LN3, 4))
        assert ratio == pytest.approx(3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# perturb / aggregate (report-based path)


def test_perturb_krr_empirical_rates():
    config = OracleConfig("krr", LN3, 4)
    rng = np.random.default_rng(11)
    n = 40_000
    hits = sum(oracle_reference.perturb(config, 2, rng).index == 2 for _ in range(n))
    se = math.sqrt(config.p * (1 - config.p) / n)
    assert abs(hits / n - config.p) <= 4 * se


def test_perturb_oue_bit_rates():
    config = OracleConfig("oue", LN3, 8)
    rng = np.random.default_rng(12)
    n = 20_000
    bits = np.array([oracle_reference.perturb(config, 3, rng).bits for _ in range(n)])
    rates = bits.mean(axis=0)
    se_p = math.sqrt(config.p * (1 - config.p) / n)
    se_q = math.sqrt(config.q * (1 - config.q) / n)
    assert abs(rates[3] - config.p) <= 4 * se_p
    others = np.delete(rates, 3)
    assert np.all(np.abs(others - config.q) <= 5 * se_q)


def test_perturb_olh_keeps_true_bucket_at_rate_p():
    config = OracleConfig("olh", LN3, 8)
    rng = np.random.default_rng(13)
    n = 20_000
    kept = 0
    for _ in range(n):
        report = oracle_reference.perturb(config, 5, rng)
        kept += report.bucket == oracle_reference.olh_bucket(report.hash_seed, 5, config.d_prime)
    se = math.sqrt(config.p * (1 - config.p) / n)
    assert abs(kept / n - config.p) <= 4 * se


@pytest.mark.parametrize("eps", [43.0, 50.0, 700.0])
def test_perturb_olh_at_large_epsilon(eps):
    # d' - 1 passes 2**63 from eps ~ 44 on; the replacement bucket must still
    # be drawable, and the true bucket kept at rate p.
    config = OracleConfig("olh", eps, 4)
    rng = np.random.default_rng(int(eps))
    n = 4_000
    kept = 0
    for _ in range(n):
        report = oracle_reference.perturb(config, 1, rng)
        kept += report.bucket == oracle_reference.olh_bucket(report.hash_seed, 1, config.d_prime)
    se = math.sqrt(config.p * (1 - config.p) / n)
    assert abs(kept / n - config.p) <= 4.5 * se


def test_perturb_index_range_checked():
    config = OracleConfig("krr", 1.0, 4)
    with pytest.raises(ValueError):
        oracle_reference.perturb(config, 4, np.random.default_rng(0))


def test_aggregate_noiseless_limit():
    config = OracleConfig("krr", 20.0, 4)
    rng = np.random.default_rng(5)
    reports = [oracle_reference.perturb(config, 2, rng) for _ in range(1000)]
    table = oracle_reference.aggregate(config, reports)
    assert table.n == 1000
    assert table.estimates[2] == pytest.approx(1.0, abs=1e-2)
    assert np.all(np.abs(np.delete(table.estimates, 2)) < 1e-2)


def test_aggregate_rejects_empty_and_mixed():
    config = OracleConfig("oue", 1.0, 4)
    with pytest.raises(ValueError):
        oracle_reference.aggregate(config, [])
    krr_report = oracle_reference.perturb(OracleConfig("krr", 1.0, 4), 0, np.random.default_rng(1))
    with pytest.raises(ValueError):
        oracle_reference.aggregate(config, [krr_report])


def test_aggregate_rejects_wrong_vector_length():
    config = OracleConfig("oue", 1.0, 4)
    bad = oracle_reference.OracleReport("oue", bits=np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError):
        oracle_reference.aggregate(config, [bad])


def test_aggregate_krr_within_five_sigma():
    """Monte-Carlo calibration of the report path against the variance formula."""
    config = OracleConfig("krr", 1.0, 3)
    rng = np.random.default_rng(42)
    true = np.array([0.5, 0.3, 0.2])
    n = 20_000
    items = rng.choice(3, size=n, p=true)
    reports = [oracle_reference.perturb(config, int(x), rng) for x in items]
    table = oracle_reference.aggregate(config, reports)
    sigma = math.sqrt(oracles.variance(config, n))
    assert np.max(np.abs(table.estimates - true)) <= 5 * sigma
    assert table.support_counts.sum() == n  # krr reports exactly one index each


def test_aggregate_olh_within_five_sigma():
    config = OracleConfig("olh", 1.0, 3)
    rng = np.random.default_rng(43)
    true = np.array([0.5, 0.3, 0.2])
    n = 20_000
    items = rng.choice(3, size=n, p=true)
    reports = [oracle_reference.perturb(config, int(x), rng) for x in items]
    table = oracle_reference.aggregate(config, reports)
    sigma = math.sqrt(oracles.variance(config, n))
    assert np.max(np.abs(table.estimates - true)) <= 5 * sigma


# ---------------------------------------------------------------------------
# estimator


def test_estimate_from_counts_hand_values():
    config = OracleConfig("krr", LN3, 4)
    counts = np.array([30, 10, 10, 10])
    est = oracles.estimate_from_counts(config, counts, 60)
    assert est[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(est[1:]) < 1e-12)


def test_estimates_not_clipped():
    # Zero support must land strictly below zero: rank order near the tail
    # depends on signed estimates.
    config = OracleConfig("krr", 1.0, 16)
    est = oracles.estimate_from_counts(config, np.zeros(16), 1000)
    assert np.all(est < 0)


def test_perturb_counts_matches_probabilities():
    """Histogram path: support counts are binomial at the table rates."""
    n = 200_000
    users = np.arange(n)
    for kind in oracles.KINDS:
        config = OracleConfig(kind, 2.0, 16)
        counts = oracles.perturb_counts(
            config, derive_key(909, oracles.KINDS.index(kind)), users, np.full(n, 6)
        )
        p_hat = counts[6] / n
        se_p = math.sqrt(config.p * (1 - config.p) / n)
        assert abs(p_hat - config.p) <= 4 * se_p, kind
        q_pooled = counts[np.arange(16) != 6].sum() / (15 * n)
        se_q = math.sqrt(config.q * (1 - config.q) / (15 * n))
        assert abs(q_pooled - config.q) <= 4 * se_q, kind


def test_perturb_counts_order_invariant():
    """The same users in a different order produce identical support counts."""
    n = 5000
    rng = np.random.default_rng(77)
    users = np.arange(n)
    items = rng.integers(0, 9, size=n)
    perm = rng.permutation(n)
    for kind in oracles.KINDS:
        config = OracleConfig(kind, 1.0, 9)
        a = oracles.perturb_counts(config, 31337, users, items)
        b = oracles.perturb_counts(config, 31337, users[perm], items[perm])
        assert np.array_equal(a, b), kind


def test_unbiasedness_over_trials():
    config = OracleConfig("oue", 1.0, 8)
    true = np.full(8, 0.125)
    n, trials = 50_000, 10
    users = np.arange(n)
    items = np.repeat(np.arange(8), n // 8)
    means = np.zeros(8)
    for trial in range(trials):
        counts = oracles.perturb_counts(config, derive_key(5150, trial), users, items)
        means += oracles.estimate_from_counts(config, counts, n)
    means /= trials
    se = math.sqrt(oracles.variance(config, n) / trials)
    assert np.max(np.abs(means - true)) <= 5 * se


def test_perturb_counts_rejects_bad_indices():
    config = OracleConfig("krr", 1.0, 4)
    with pytest.raises(ValueError):
        oracles.perturb_counts(config, 1, [0], [4])
    with pytest.raises(ValueError):
        oracles.perturb_counts(config, 1, [0], [-1])
    with pytest.raises(ValueError):
        oracles.perturb_counts(config, 1, [0, 1], [0])


@pytest.mark.parametrize("kind", oracles.KINDS)
def test_perturb_counts_held_matches_per_user_indices(kind):
    """Indices with ``held`` users each draw exactly what their expansion draws."""
    d = 12  # indices 1, 2, 4, 5, 6, 8, 9 and 10 are held by nobody
    # Repeated entries: three items share the dummy slot 11, two share index 3.
    idx = np.array([0, 3, 11, 7, 11, 3, 11, 7])
    held = np.array([40, 2, 5, 9, 1, 17, 3, 0])
    n = int(held.sum())
    config = OracleConfig(kind, 1.5, d)
    for trial in range(5):
        key = derive_key(606, oracles.KINDS.index(kind), trial)
        from_held = oracles.perturb_counts(config, key, range(n), idx, held)
        per_user = oracles.perturb_counts(config, key, range(n), np.repeat(idx, held))
        assert from_held.dtype == per_user.dtype
        assert np.array_equal(from_held, per_user), trial


@pytest.mark.parametrize("d", [2, 9, 81, 1025])
@pytest.mark.parametrize("kind", ["oue", "olh"])
def test_perturb_counts_draws_the_two_binomial_calls(kind, d, monkeypatch):
    """The one-call draw equals Bin(hist, p) + Bin(n - hist, q) drawn by two
    calls from the same stream, and leaves the generator where they leave it."""
    made = []
    real_rng = np.random.default_rng

    def spy(seed):
        made.append(real_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    for eps, trial in [(0.5, 0), (2.0, 1), (4.0, 2), (12.0, 3)]:
        source = real_rng(trial)
        true = source.integers(0, d, size=64)
        held = source.integers(0, 4000, size=64)
        config = OracleConfig(kind, eps, d)
        key = derive_key(808, d, trial)
        counts = oracles.perturb_counts(config, key, range(int(held.sum())), true, held)
        hist = np.bincount(true, weights=held, minlength=d).astype(np.int64)
        rng = real_rng(derive_key(key, oracles._STREAM_COUNTS))
        expected = rng.binomial(hist, config.p) + rng.binomial(int(hist.sum()) - hist, config.q)
        assert np.array_equal(counts, expected), (eps, trial)
        assert made[-1].integers(2**63) == rng.integers(2**63)


def test_perturb_counts_rejects_bad_held():
    config = OracleConfig("krr", 1.0, 4)
    with pytest.raises(ValueError, match="shape"):
        oracles.perturb_counts(config, 1, range(3), [0, 1], [1, 1, 1])
    with pytest.raises(ValueError, match="shape"):
        oracles.perturb_counts(config, 1, range(2), [0, 1], [[1], [1]])
    with pytest.raises(ValueError, match="negative"):
        oracles.perturb_counts(config, 1, range(1), [0, 1], [2, -1])
    with pytest.raises(ValueError, match="users"):
        oracles.perturb_counts(config, 1, range(3), [0, 1], [1, 1])
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        oracles.perturb_counts(config, 1, range(2), [0, 4], [1, 1])
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        oracles.perturb_counts(config, 1, range(2), [-1, 0], [1, 1])
    # Non-integer input is rejected, not truncated to [1, 1] or [0, 3].
    with pytest.raises(ValueError, match="held must hold integers"):
        oracles.perturb_counts(config, 1, range(2), [0, 1], [1.5, 1.5])
    with pytest.raises(ValueError, match="true_index must hold integers"):
        oracles.perturb_counts(config, 1, range(2), [0.7, 3.9])


def test_perturb_counts_reads_held_at_any_integer_width():
    config = OracleConfig("olh", 1.0, 5)
    true, held = np.array([0, 3, 4]), np.array([7, 1, 30])
    expected = oracles.perturb_counts(config, 9, range(38), true, held)
    for dtype in (np.int32, np.uint8, np.uint64):
        got = oracles.perturb_counts(config, 9, range(38), true.astype(dtype), held.astype(dtype))
        assert np.array_equal(got, expected), dtype


def test_perturb_counts_krr_sums_to_n():
    rng = np.random.default_rng(21)
    for d in (2, 5, 16, 1025):
        items = rng.integers(0, d, size=3000)
        for trial in range(5):
            config = OracleConfig("krr", 1.0, d)
            counts = oracles.perturb_counts(config, derive_key(77, d, trial), items, items)
            assert counts.sum() == 3000


def test_perturb_counts_olh_non_true_items_uncorrelated():
    """Support counts of two items nobody holds have covariance about zero."""
    config = OracleConfig("olh", 1.0, 3)
    n, trials = 2000, 4000
    items = np.zeros(n, dtype=np.int64)
    counts = np.array(
        [oracles.perturb_counts(config, derive_key(4242, t), items, items) for t in range(trials)]
    )
    corr = np.corrcoef(counts[:, 1], counts[:, 2])[0, 1]
    assert abs(corr) <= 4.5 / math.sqrt(trials)


# Reference-path trials per (oracle, d), their group size, and the |z| bound
# for every per-item comparison of means and of variances.
_REF_TRIALS = 200
_REF_USERS = 100
_Z_BOUND = 4.5


def _mean_z(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
    return np.abs(a.mean(axis=0) - b.mean(axis=0)) / se


def _variance_z(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-sample z of the per-item variances, from each sample's 4th moment."""

    def var_and_se(x):
        centred = x - x.mean(axis=0)
        m2 = (centred**2).mean(axis=0)
        m4 = (centred**4).mean(axis=0)
        return m2 * len(x) / (len(x) - 1), np.sqrt((m4 - m2**2) / len(x))

    va, sa = var_and_se(a)
    vb, sb = var_and_se(b)
    return np.abs(va - vb) / np.sqrt(sa**2 + sb**2)


@pytest.mark.parametrize("d", [2, 5, 16])
@pytest.mark.parametrize("kind", oracles.KINDS)
def test_perturb_counts_matches_per_user_reference(kind, d):
    """Histogram path vs per-user perturb + aggregate: same means and variances."""
    config = OracleConfig(kind, 1.0, d)
    rng = np.random.default_rng(1000 + 10 * oracles.KINDS.index(kind) + d)
    # A skewed group: item 0 is held by about half the users.
    items = np.minimum(rng.geometric(0.5, size=_REF_USERS) - 1, d - 1)
    reference = np.array(
        [
            oracle_reference.aggregate(
                config, [oracle_reference.perturb(config, int(x), rng) for x in items]
            ).support_counts
            for _ in range(_REF_TRIALS)
        ]
    )
    histogram = np.array(
        [
            oracles.perturb_counts(
                config, derive_key(2718, oracles.KINDS.index(kind), d, t), items, items
            )
            for t in range(4 * _REF_TRIALS)
        ]
    )
    assert np.max(_mean_z(histogram, reference)) <= _Z_BOUND
    assert np.max(_variance_z(histogram, reference)) <= _Z_BOUND
