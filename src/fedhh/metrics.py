"""Evaluation metrics against exact ground truth: F1, NCR, average local recall."""

from __future__ import annotations

from typing import Iterable, Sequence


def f1_score(estimated: Iterable, truth: Iterable) -> float:
    """Harmonic mean of set precision and recall; 0 when either side is empty."""
    truth_set = set(truth)
    if not truth_set:
        raise ValueError("ground truth must be non-empty")
    est_set = set(estimated)
    hits = len(truth_set & est_set)
    if hits == 0:  # an empty estimate included
        return 0.0
    precision = hits / len(est_set)
    recall = hits / len(truth_set)
    return 2 * precision * recall / (precision + recall)


def ncr_score(
    estimated: Sequence, truth: Sequence, k: int, quality: str = "k-rank"
) -> float:
    """Rank-weighted hit score normalized by the best attainable total.

    Each truth item at (1-based) rank r carries quality k - r; items outside
    the truth's top-k carry 0. The default follows the source formula
    literally, which zero-weights the k-th truth item; quality="k-rank+1"
    selects the conventional alternative for cross-checking.
    """
    if k < 2:
        raise ValueError("k must be at least 2 (the quality denominator vanishes)")
    if len(truth) < k:
        raise ValueError(f"ground truth has {len(truth)} entries, need {k}")
    if quality == "k-rank":
        weights = {item: k - rank for rank, item in enumerate(truth[:k], start=1)}
        denominator = k * (k - 1) / 2
    elif quality == "k-rank+1":
        weights = {item: k - rank + 1 for rank, item in enumerate(truth[:k], start=1)}
        denominator = k * (k + 1) / 2
    else:
        raise ValueError(f"unknown quality rule {quality!r}")
    gained = sum(weights.get(item, 0) for item in set(estimated))
    return gained / denominator


def avg_local_recall(
    per_party_local_topk: Sequence[Iterable], truth: Iterable, k: int
) -> float:
    """Mean over parties of |truth ∩ local top-k| / k."""
    if not per_party_local_topk:
        raise ValueError("need at least one party")
    truth_set = set(truth)
    overlaps = [len(truth_set & set(local)) / k for local in per_party_local_topk]
    return sum(overlaps) / len(overlaps)
