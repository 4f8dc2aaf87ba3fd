"""Every check accepts a correct output and rejects a deliberately corrupted one.

Run with ``python3 -m pytest perfbench/tests``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402


def test_independent_topk_breaks_ties_by_ascending_code():
    codes = np.array([9, 3, 3, 9, 5, 5, 1, 7, 7, 7], dtype=np.uint64)
    top, distinct = checks.independent_topk(codes, 3)
    assert top == [(7, 3), (3, 2), (5, 2)]
    assert distinct == 5


def test_truth_rejects_shuffled_and_off_by_one_lists():
    expected = [(7, 3), (3, 2), (5, 2), (9, 2)]
    assert checks.check_truth([7, 3, 5], expected, 3, 5) == []
    assert checks.check_truth([3, 7, 5], expected, 3, 5)  # shuffled
    assert checks.check_truth([7, 3, 9], expected, 3, 5)  # one item off
    assert checks.check_truth([7, 3], expected, 3, 5)  # one item short


def test_topk_rejects_long_repeated_and_foreign_codes():
    good = [(1, 8), (2, 8)]
    assert checks.check_topk(good, 2, 8) == []
    assert checks.check_topk(good + [(3, 8)], 2, 8)  # more than k
    assert checks.check_topk([(1, 8), (1, 8)], 2, 8)  # repeated
    assert checks.check_topk([(1, 8), (256, 8)], 2, 8)  # does not fit in m bits
    assert checks.check_topk([(1, 8), (1, 7)], 2, 8)  # a prefix, not an item


def test_no_signal_ceiling_shrinks_as_the_domain_grows():
    small, large = checks.no_signal_f1_ceiling(200, 10), checks.no_signal_f1_ceiling(30_000, 10)
    assert 0 < large < small < 1
    # k codes drawn from exactly k items always hit: nothing clears that.
    assert checks.no_signal_f1_ceiling(10, 10) == 1.0


def _row(mechanism, f1=0.9, epsilon="4", oracle="krr", rep="rep000", uploaded=1280, wall="1.0"):
    return {
        "run_id": f"{mechanism}-eps{epsilon}-k10-{rep}",
        "mechanism": mechanism,
        "oracle": oracle,
        "epsilon": epsilon,
        "k": "10",
        "f1": f"{f1:.6f}",
        "ncr": "0.5",
        "avg_local_recall": "0.5",
        "uploaded_bytes": str(uploaded),
        "wall_time_ms": wall,
        "seed": "1",
    }


def test_f1_floor_rejects_a_mechanism_below_the_ceiling():
    rows = [_row("taps", 0.9), _row("pem", 0.8), _row("pem", 0.0, epsilon="2")]
    assert checks.check_f1_floor(rows, 4.0, 0.3) == []
    assert checks.check_f1_floor(rows + [_row("pem", 0.0, rep="rep001")], 4.0, 0.5)
    assert checks.check_f1_floor(rows, 8.0, 0.3)  # nothing measured at that budget


def test_upload_cap_rejects_an_upload_over_the_cap():
    cap = checks.active_level_count(24, 6) * 8 * 4 * 10 * checks.PAIR_BYTES
    assert checks.active_level_count(24, 6) == 13
    fedpem = _row("fedpem", uploaded=1280)
    assert checks.check_upload_cap([fedpem, _row("taps", uploaded=1280 + cap)], 8, 24, 6, 10) == []
    assert checks.check_upload_cap([fedpem, _row("taps", uploaded=1281 + cap)], 8, 24, 6, 10)
    assert checks.check_upload_cap([_row("taps")], 8, 24, 6, 10)  # nothing to compare


def test_rerun_rows_ignore_timing_but_reject_any_other_change():
    timed = [_row("taps", oracle="krr"), _row("taps", oracle="oue", f1=0.5)]
    assert checks.check_rows_match(timed, [_row("taps", oracle="oue", f1=0.5, wall="9.9")]) == []
    assert checks.check_rows_match(timed, [_row("taps", oracle="oue", f1=0.6)])
    assert checks.check_rows_match(timed, [_row("taps", rep="rep001")])
    assert checks.check_rows_match(timed, [])


def test_users_report_once_rejects_a_missing_user():
    assert checks.check_users_report_once({(0, 0): (100, 100), (0, 1): (50, 50)}) == []
    assert checks.check_users_report_once({(0, 0): (100, 99)})
    assert checks.check_users_report_once({})


def test_frequency_term_is_worth_about_nine_percent_for_krr_at_d16():
    freqs = np.arange(1, 17) ** -1.1
    freqs /= freqs.sum()
    full = checks.estimate_variance("krr", 1.0, 50_000, freqs)
    flat = checks.estimate_variance("krr", 1.0, 50_000, np.zeros(16))
    assert 0.08 < full.mean() / flat.mean() - 1 < 0.10


def _simulated(kind, d, trials, scale=1.0, shift=0.0, seed=0):
    """Estimates drawn with exactly the formula's mean and variance."""
    rng = np.random.default_rng(seed)
    counts = np.full(d, 50_000 // d)
    freqs = counts / counts.sum()
    sd = np.sqrt(checks.estimate_variance(kind, 1.0, int(counts.sum()), freqs))
    return counts, freqs + shift * sd + math.sqrt(scale) * sd * rng.standard_normal((trials, d))


@pytest.mark.parametrize("kind, d, trials", [("krr", 16, 24), ("oue", 16, 24), ("olh", 1024, 2)])
def test_oracle_check_rejects_scaled_variance_and_bias(kind, d, trials):
    counts, estimates = _simulated(kind, d, trials)
    assert checks.check_oracle(kind, 1.0, counts, estimates) == []
    counts, estimates = _simulated(kind, d, trials, scale=1.5)
    assert checks.check_oracle(kind, 1.0, counts, estimates)
    counts, estimates = _simulated(kind, d, trials, shift=3.0)
    assert checks.check_oracle(kind, 1.0, counts, estimates)
