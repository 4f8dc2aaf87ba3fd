"""Correctness checks for the benchmark's workloads.

Every check takes plain data (CSV rows, code lists, count arrays) and returns
a list of failure messages; an empty list means it passed. No check calls the
program: each compares the program's outputs with an independent computation
or with a property the method must have. ``tests/test_checks.py`` feeds each
one a deliberately corrupted output that it must reject.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

# CSV columns that a rerun with the same seed must reproduce exactly. Timing
# columns (wall_time_ms today, per-phase times later) are left out by name.
DETERMINISTIC_COLUMNS = (
    "run_id",
    "mechanism",
    "oracle",
    "epsilon",
    "k",
    "f1",
    "ncr",
    "avg_local_recall",
    "uploaded_bytes",
    "seed",
)

PAIR_BYTES = 16  # one (prefix, count) pair on the wire
NO_SIGNAL_TAIL = 1e-6  # chance a selector without signal may clear the F1 floor
Z_BAND = 6.0  # half-width of the oracle bands, in standard errors


def independent_topk(codes: np.ndarray, k: int) -> tuple[list[tuple[int, int]], int]:
    """Top-k (code, count) by descending count, ascending code on ties.

    Counted by sorting and run lengths, with a stable sort on the counts so
    that equal counts keep ascending code order. Also returns the number of
    distinct codes.
    """
    ordered = np.sort(np.asarray(codes, dtype=np.uint64))
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(np.append(starts, len(ordered)))
    distinct = ordered[starts]
    top = np.argsort(-counts, kind="stable")[:k]
    return [(int(distinct[i]), int(counts[i])) for i in top], len(distinct)


def check_truth(truth_codes: list[int], expected: list[tuple[int, int]], k: int, distinct: int) -> list[str]:
    """The top-k the program scored against equals the independent count."""
    want = [code for code, _ in expected[: min(k, distinct)]]
    if list(truth_codes) != want:
        return [f"scored truth {list(truth_codes)} != independent top-{k} {want}"]
    return []


def check_topk(codes: list[tuple[int, int]], k: int, m: int) -> list[str]:
    """A returned top-k holds at most k distinct full-length m-bit codes."""
    failures = []
    if len(codes) > k:
        failures.append(f"top-k holds {len(codes)} codes, more than k={k}")
    if len(set(codes)) != len(codes):
        failures.append(f"top-k repeats a code: {codes}")
    for bits, length in codes:
        if length != m or not 0 <= bits < (1 << m):
            failures.append(f"code {bits} of length {length} is not an {m}-bit item")
    return failures


def no_signal_f1_ceiling(distinct: int, k: int, tail: float = NO_SIGNAL_TAIL) -> float:
    """Largest F1 that a selector without signal reaches with chance above ``tail``.

    Such a selector returns s <= k of the ``distinct`` items present, chosen
    uniformly, so its hits on the true top-k follow Hypergeometric(distinct,
    k, s) and its F1 is 2*hits/(s+k). The ceiling is the maximum over s.
    """
    ceiling = 0.0
    for s in range(1, k + 1):
        total = math.comb(distinct, s)
        upper = 0.0
        for hits in range(s, -1, -1):
            upper += math.comb(k, hits) * math.comb(distinct - k, s - hits) / total
            if upper > tail:
                ceiling = max(ceiling, 2 * hits / (s + k))
                break
    return ceiling


def check_f1_floor(rows: list[dict], epsilon: float, ceiling: float) -> list[str]:
    """Each mechanism's mean F1 at ``epsilon`` clears the no-signal ceiling."""
    by_mechanism = defaultdict(list)
    for row in rows:
        if float(row["epsilon"]) == epsilon and not row["run_id"].endswith("-mean"):
            by_mechanism[row["mechanism"]].append(float(row["f1"]))
    if not by_mechanism:
        return [f"no runs at epsilon={epsilon:g}"]
    failures = []
    for mechanism, scores in sorted(by_mechanism.items()):
        mean = sum(scores) / len(scores)
        if not mean > ceiling:
            failures.append(
                f"{mechanism}: mean F1 {mean:.4f} at epsilon={epsilon:g} does not clear "
                f"the no-signal ceiling {ceiling:.4f}"
            )
    return failures


def active_level_count(g: int, g_s: int) -> int:
    """Phase-II levels at which pruning packages may travel: the g_s+1 levels
    nearest the leaves and the g_s levels just after the shared trie."""
    window = set(range(g - g_s, g + 1)) | set(range(g_s + 1, 2 * g_s + 1))
    return sum(1 for h in window if g_s + 1 <= h <= g)


def check_upload_cap(rows: list[dict], n_parties: int, g: int, g_s: int, k: int) -> list[str]:
    """``taps`` uploads at most ``fedpem`` plus the package cap per (oracle, epsilon, k, repetition).

    The cap is active levels x parties x 4k pairs x 16 bytes.
    """
    cap = active_level_count(g, g_s) * n_parties * 4 * k * PAIR_BYTES
    uploads = {}
    for row in rows:
        if row["run_id"].endswith("-mean"):
            continue
        rep = row["run_id"].rsplit("-", 1)[1]
        point = (row["oracle"], row["epsilon"], row["k"], rep)
        uploads[(row["mechanism"],) + point] = float(row["uploaded_bytes"])
    failures = []
    compared = 0
    for (mechanism, *point), taps_bytes in sorted(uploads.items()):
        if mechanism != "taps" or ("fedpem", *point) not in uploads:
            continue
        compared += 1
        limit = uploads[("fedpem", *point)] + cap
        if taps_bytes > limit:
            failures.append(
                f"{' '.join(point)}: taps uploaded {taps_bytes:g} B, over fedpem + cap = {limit:g} B"
            )
    if compared == 0:
        failures.append("no (taps, fedpem) pair to compare")
    return failures


def check_rows_match(timed: list[dict], rerun: list[dict]) -> list[str]:
    """Per-run rows of a rerun equal the timed rows of the same run and oracle, timing aside."""
    by_id = {(row["run_id"], row["oracle"]): row for row in timed}
    failures = []
    for row in rerun:
        if row["run_id"].endswith("-mean"):
            continue
        other = by_id.get((row["run_id"], row["oracle"]))
        if other is None:
            failures.append(f"rerun row {row['run_id']}/{row['oracle']} missing from the timed rows")
            continue
        for column in DETERMINISTIC_COLUMNS:
            if row[column] != other[column]:
                failures.append(f"{row['run_id']}/{row['oracle']}: {column} {other[column]} then {row[column]}")
    if not rerun:
        failures.append("the rerun produced no rows")
    return failures


def check_users_report_once(per_party: dict) -> list[str]:
    """Users passed to the level estimate, per party and engine run, equal the party size.

    ``per_party`` maps (engine run, party) to (party size, users estimated).
    """
    if not per_party:
        return ["no level estimate was observed inside an engine run"]
    return [
        f"engine run {run}, party {party}: {used} users reported, party holds {size}"
        for (run, party), (size, used) in sorted(per_party.items())
        if size != used
    ]


def support_probabilities(kind: str, epsilon: float, d: int) -> tuple[float, float]:
    """(p, q) of Wang, Blocki, Li and Jha (USENIX Security 2017).

    OLH hashes into g = ceil(e^eps + 1) buckets, the program's stated choice.
    """
    e = math.exp(epsilon)
    if kind == "krr":
        return e / (e + d - 1), 1 / (e + d - 1)
    if kind == "oue":
        return 0.5, 1 / (e + 1)
    if kind == "olh":
        g = max(2, math.ceil(e + 1))
        return e / (e + g - 1), 1 / g
    raise ValueError(f"unknown oracle {kind!r}")


def estimate_variance(kind: str, epsilon: float, n: int, freqs: np.ndarray) -> np.ndarray:
    """Var[f_x] = q(1-q)/(n(p-q)^2) + f_x(1-p-q)/(n(p-q)), per item x."""
    p, q = support_probabilities(kind, epsilon, len(freqs))
    return q * (1 - q) / (n * (p - q) ** 2) + freqs * (1 - p - q) / (n * (p - q))


def oracle_statistics(kind: str, epsilon: float, true_counts: np.ndarray, estimates: np.ndarray) -> tuple[float, float]:
    """(variance ratio, bias statistic) of ``estimates`` (trials x items) under Wang et al.

    With z = (estimate - f) / sd, the variance ratio is the mean of z^2 over
    trials and items, and the bias statistic the mean over items of the
    squared z-score of each item's trial mean. Both are 1 in expectation.
    """
    trials = estimates.shape[0]
    n = int(true_counts.sum())
    freqs = true_counts / n
    var = estimate_variance(kind, epsilon, n, freqs)
    spread = float(np.mean((estimates - freqs) ** 2 / var))
    bias = float(np.mean((estimates.mean(axis=0) - freqs) ** 2 / (var / trials)))
    return spread, bias


def check_oracle(kind: str, epsilon: float, true_counts: np.ndarray, estimates: np.ndarray) -> list[str]:
    """Empirical variance and bias of ``estimates`` (trials x items) agree with Wang et al.

    The variance ratio has standard error sqrt(2/(T d)) and the bias statistic
    sqrt(2/d); both must lie within Z_BAND standard errors of 1 (the bias
    statistic only from above).
    """
    trials, d = estimates.shape
    spread, bias = oracle_statistics(kind, epsilon, true_counts, estimates)
    spread_band = Z_BAND * math.sqrt(2 / (trials * d))
    bias_band = Z_BAND * math.sqrt(2 / d)
    failures = []
    if abs(spread - 1) > spread_band:
        failures.append(
            f"{kind} d={d}: variance ratio {spread:.3f} to the formula, outside 1 +- {spread_band:.3f}"
        )
    if bias - 1 > bias_band:
        failures.append(f"{kind} d={d}: bias statistic {bias:.3f}, over 1 + {bias_band:.3f}")
    return failures
