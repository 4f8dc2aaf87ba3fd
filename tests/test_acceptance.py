"""Acceptance suite: ten criteria, one test per criterion.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line each.
Criteria 1-4 check the oracle and selection mathematics against independent
computation; 5-8 check end-to-end quality on the synthetic recipe; 9-10 check
determinism and the upload-cost envelope. Tests that compare against
reference quality bands print the measured values when they fail.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from fedhh._rng import derive_key
from fedhh.datagen import PartySpec, exact_topk, generate_syn
from fedhh.extension import RankedEstimates, drift_probability, select_anchor
from fedhh.metrics import f1_score
from fedhh.oracles import OracleConfig, estimate_from_counts, perturb_counts, variance
from fedhh.protocol import ProtocolParams, draw_groups, run_fedpem
from fedhh.pruning import consensus_filter, run_tap, run_taps
from fedhh.runner import CSV_HEADER, ExperimentConfig, _dataset_rng, _scaled_specs, records_to_csv, run_experiment

from oracle_reference import ratio_bound_check

ACC_SEED = 2024
KINDS = ("krr", "oue", "olh")
EPS_SWEEP = (0.5, 1.0, 2.0, 4.0)


# ---------------------------------------------------------------------------
# criterion 1: oracle exactness


def test_criterion_01_oracle_exactness():
    start = time.perf_counter()
    n = 1_000_000
    d = 16
    users = np.arange(n)
    true_idx = np.zeros(n, dtype=np.int64)
    for kind in KINDS:
        for eps in EPS_SWEEP:
            config = OracleConfig(kind, eps, d)
            assert ratio_bound_check(config) <= math.exp(eps) * (1 + 1e-12), (
                f"{kind} eps={eps}: analytic ratio exceeds the budget"
            )
            counts = perturb_counts(config, derive_key(ACC_SEED, 1, KINDS.index(kind), int(eps * 4)), users, true_idx)
            p, q = config.p, config.q
            p_emp = counts[0] / n
            q_emp = counts[1:].sum() / (n * (d - 1))
            p_se = math.sqrt(p * (1 - p) / n)
            q_se = math.sqrt(q * (1 - q) / (n * (d - 1)))
            assert abs(p_emp - p) <= 4 * p_se, f"{kind} eps={eps}: p off ({p_emp} vs {p})"
            assert abs(q_emp - q) <= 4 * q_se, f"{kind} eps={eps}: q off ({q_emp} vs {q})"
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: estimator calibration


def test_criterion_02_estimator_calibration():
    start = time.perf_counter()
    n = 50_000
    trials = 30
    eps = 1.0
    users = np.arange(n)
    true_idx = np.zeros(n, dtype=np.int64)
    for kind in KINDS:
        for d in (16, 1024):
            config = OracleConfig(kind, eps, d)
            estimates = np.empty((trials, d))
            for trial in range(trials):
                key = derive_key(ACC_SEED, 2, KINDS.index(kind), d, trial)
                counts = perturb_counts(config, key, users, true_idx)
                estimates[trial] = estimate_from_counts(config, counts, n)
            zero_cells = estimates[:, 1:]  # items with true frequency zero
            target = variance(config, n)
            emp_var = float(zero_cells.var(axis=0, ddof=1).mean())
            assert 0.8 * target <= emp_var <= 1.2 * target, (
                f"{kind} d={d}: empirical variance {emp_var:.3e} vs formula {target:.3e}"
            )
            bias = float(zero_cells.mean())
            bias_se = math.sqrt(target / (trials * (d - 1)))
            assert abs(bias) <= 4 * bias_se, f"{kind} d={d}: bias {bias:.2e} > 4 SE"
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"criterion 2 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 3: brute-force equivalence of both selection objectives


def _anchor_oracle(freqs, k):
    padded = [Fraction(float(f)) for f in freqs]
    padded += [Fraction(0)] * max(0, k + 1 - len(padded))
    best_k, best_score = None, None
    for k_star in range(2, k + 1):
        score = sum(padded[1:k_star]) / (k_star - 1) - sum(padded[k_star : k + 1]) / (
            k + 1 - k_star
        )
        if best_score is None or score > best_score:
            best_k, best_score = k_star, score
    return best_k


def _consensus_oracle(previous, validated, k, epsilon, gamma):
    eps, gam = Fraction(epsilon), Fraction(gamma)
    best = None
    for k_prime in range(1, k + 1):
        agreed = set(previous[:k_prime]) & set(validated[:k_prime])
        alpha = Fraction(k_prime - len(agreed) + 1, k_prime + 1)
        score = Fraction(len(agreed), k_prime) / (1 + eps) ** k_prime - gam * alpha**2
        if best is None or score > best[0]:
            best = (score, k_prime, agreed)
    return best[1], best[2]


def test_criterion_03_brute_force_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(ACC_SEED + 3)
    mismatches = 0
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        length = int(rng.integers(2, 2 * k + 4))
        freqs = np.sort(rng.uniform(0, 1, size=length))[::-1]
        codes = np.arange(length, dtype=np.uint64)
        ranked = RankedEstimates(codes, freqs, sigma=0.01)
        if select_anchor(ranked, k) != _anchor_oracle(freqs, k):
            mismatches += 1
    pool = list(range(12))
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        previous = [pool[i] for i in rng.permutation(12)[: int(rng.integers(1, 10))]]
        validated = [pool[i] for i in rng.permutation(12)[: int(rng.integers(1, 10))]]
        epsilon = int(rng.integers(1, 64)) / 16.0
        gamma = int(rng.integers(0, 16)) / 16.0
        result = consensus_filter(previous, validated, k, epsilon, gamma)
        k_exp, set_exp = _consensus_oracle(previous, validated, k, epsilon, gamma)
        if (result.k_prime, result.pruned) != (k_exp, set_exp):
            mismatches += 1
    assert mismatches == 0, f"{mismatches} of 2000 instances disagree with enumeration"
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"criterion 3 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 4: drift probability closed form vs quadrature


def test_criterion_04_drift_closed_form():
    rng = np.random.default_rng(ACC_SEED + 4)
    for _ in range(100):
        delta_f = float(rng.uniform(-0.1, 0.5))
        sigma = float(rng.uniform(1e-3, 0.3))
        # X_a - X_b is Gaussian with mean delta_f and variance 2 sigma^2;
        # integrate its density over the negative half-line.
        scale = math.sqrt(2) * sigma
        density = lambda u: math.exp(-((u - delta_f) ** 2) / (2 * scale**2)) / (
            scale * math.sqrt(2 * math.pi)
        )
        numeric, _ = integrate.quad(density, -np.inf, 0.0)
        assert abs(drift_probability(delta_f, sigma) - numeric) <= 1e-6


# ---------------------------------------------------------------------------
# criterion 5: noiseless-limit recovery


def test_criterion_05_noiseless_limit_recovery():
    start = time.perf_counter()
    params = ProtocolParams(m=10, g=5, g_s=1, k=10, epsilon=16.0, oracle="krr")
    f1s = []
    for rep in range(20):
        rng = _dataset_rng(ACC_SEED + 5, rep)
        parties = generate_syn([PartySpec(100_000, "zipf", 1.5)], 1024, 1, rng, m=10)
        truth = exact_topk(parties, 10).codes
        run_key = derive_key(ACC_SEED + 5, rep)
        agg = run_tap(parties, params, run_key, draw_groups(parties, params, run_key, "tap"))
        f1s.append(f1_score(agg.topk, truth))
    perfect = sum(1 for f in f1s if f == 1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"criterion 5 took {elapsed:.1f}s"
    assert perfect >= 19, (
        f"exact recovery in {perfect}/20 runs (mean F1 {np.mean(f1s):.3f}); "
        "the adaptive extension keeps fewer candidates than k at deep levels"
    )


# ---------------------------------------------------------------------------
# shared full-recipe sweep for criteria 6, 7, 8, 10


SYN_EPS = (2.0, 3.0, 4.0)
FIXED_T = (5, 10, 20, 30)
N_REPS = 20
PKG_CAP = 13 * 8 * 4 * 10 * 16  # active levels x parties x 4k pairs x pair bytes


def _syn_rep(rep):
    """One repetition's 13 engine runs. Grouping reads neither epsilon nor
    fixed_t, so each grouping mode's groups are drawn once and shared."""
    parties = generate_syn(
        _scaled_specs(1.0), 33_000, 6, _dataset_rng(ACC_SEED, rep), m=48, dirichlet_beta=0.5
    )
    truth = exact_topk(parties, 10).codes
    run_key = derive_key(ACC_SEED, rep)
    plan = ProtocolParams(m=48, g=24, g_s=6, k=10)
    tap_groups = draw_groups(parties, plan, run_key, "tap")
    pem_groups = draw_groups(parties, plan, run_key, "pem")
    out = {}
    for eps in SYN_EPS:
        for label, runner, groups in (
            ("taps", run_taps, tap_groups),
            ("tap", run_tap, tap_groups),
            ("fedpem", run_fedpem, pem_groups),
        ):
            params = ProtocolParams(
                m=48, g=24, g_s=6, k=10, epsilon=eps, oracle="krr", dividing_ratio=0.1,
            )
            result = runner(parties, params, run_key, groups)
            out[(label, eps)] = (
                f1_score(result.topk, truth),
                result.uploaded_bytes,
                result.package_pairs,
            )
    for t in FIXED_T:
        params = ProtocolParams(
            m=48, g=24, g_s=6, k=10, epsilon=4.0, oracle="krr",
            dividing_ratio=0.1, fixed_t=t,
        )
        result = run_tap(parties, params, run_key, tap_groups)
        out[(f"fixed{t}", 4.0)] = (f1_score(result.topk, truth), result.uploaded_bytes, 0)
    return out


@pytest.fixture(scope="module")
def syn_runs():
    start = time.perf_counter()
    per_rep = [_syn_rep(rep) for rep in range(N_REPS)]
    elapsed = time.perf_counter() - start
    results = {}
    for key in per_rep[0]:
        results[key] = [rep[key] for rep in per_rep]
    return results, elapsed


def _mean_f1(results, label, eps):
    return float(np.mean([cell[0] for cell in results[(label, eps)]]))


def test_criterion_06_syn_reproduction(syn_runs):
    results, elapsed = syn_runs
    taps = _mean_f1(results, "taps", 4.0)
    fedpem = _mean_f1(results, "fedpem", 4.0)
    assert elapsed <= 600, f"sweep took {elapsed:.0f}s"
    assert abs(taps - 0.628) <= 0.10 and abs(fedpem - 0.50) <= 0.10 and taps - fedpem >= 0.05, (
        f"measured mean F1: pruned adaptive {taps:.3f} (band 0.628 +/- 0.10), "
        f"federated baseline {fedpem:.3f} (band 0.50 +/- 0.10), gap {taps - fedpem:+.3f} "
        "(needs >= 0.05)"
    )


def test_criterion_07_pruning_benefit(syn_runs):
    results, _ = syn_runs
    for eps in SYN_EPS:
        taps = _mean_f1(results, "taps", eps)
        tap = _mean_f1(results, "tap", eps)
        assert taps >= tap, f"eps={eps:g}: pruned {taps:.3f} < unpruned {tap:.3f}"


def test_criterion_08_adaptive_vs_fixed_extension(syn_runs):
    results, _ = syn_runs
    adaptive = _mean_f1(results, "tap", 4.0)
    fixed = {t: _mean_f1(results, f"fixed{t}", 4.0) for t in FIXED_T}
    best = max(fixed.values())
    assert adaptive >= best - 0.02, (
        f"adaptive mean F1 {adaptive:.3f} vs best fixed {best:.3f} "
        f"(per t: { {t: round(v, 3) for t, v in fixed.items()} })"
    )


# ---------------------------------------------------------------------------
# criterion 9: determinism across thread counts


def test_criterion_09_determinism_across_threads():
    def csv_for(threads):
        config = ExperimentConfig(
            mechanism="taps", epsilon=(2.0,), k=(10,), scale=0.01,
            repetitions=4, root_seed=ACC_SEED, threads=threads,
        )
        return records_to_csv(run_experiment(config))

    col = CSV_HEADER.index("wall_time_ms")

    def strip(text):
        return "\n".join(
            ",".join(part for i, part in enumerate(line.split(",")) if i != col)
            for line in text.splitlines()
        )

    assert strip(csv_for(1)) == strip(csv_for(8))


# ---------------------------------------------------------------------------
# criterion 10: upload-cost envelope


def test_criterion_10_cost_envelope(syn_runs):
    results, _ = syn_runs
    for eps in SYN_EPS:
        for rep in range(N_REPS):
            _, taps_bytes, package_pairs = results[("taps", eps)][rep]
            _, fedpem_bytes, _ = results[("fedpem", eps)][rep]
            assert taps_bytes <= fedpem_bytes + PKG_CAP, (
                f"eps={eps:g} rep={rep}: {taps_bytes} > {fedpem_bytes} + {PKG_CAP}"
            )
            assert package_pairs * 16 <= PKG_CAP
