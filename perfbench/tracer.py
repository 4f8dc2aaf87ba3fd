"""Spans and counts recorded around the program's functions, from outside.

Only the traced run imports this module. While a traced round runs, each
function in ``TRACED`` is wrapped where its callers look it up; the wrapper
records a span (name, start, end, parent, thread) and counts derived from
the call's arguments and result. Spans stay in memory and are written out
when the run ends. A layer's time is its self time: the span minus the time
its child spans cover. A function that no longer exists under its name is
reported as missing, and the metrics that need it read null.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from hooks import replaced


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _one_dataset(args, kwargs, result):
    return {"datasets": 1}


def _report_pairs(args, kwargs, result):
    return {"pairs": sum(len(entries) for _, entries in _arg(args, kwargs, 0, "reports"))}


def _users(args, kwargs, result):
    party = _arg(args, kwargs, 0, "party")
    return {
        "party": party.party_id,
        "party_users": party.n_users,
        "users": len(_arg(args, kwargs, 2, "group_user_index")),
    }


def _candidates(args, kwargs, result):
    return {"candidates": len(result.prefixes)}


def _cells(args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    n = len(_arg(args, kwargs, 2, "user_index"))
    return {"cells": n if config.kind == "krr" else n * config.domain_size}


def _pruned(args, kwargs, result):
    if _arg(args, kwargs, 2, "package") is None:
        return {}
    before = len(_arg(args, kwargs, 1, "domain").prefixes)
    return {"packages": 1, "pruned": before - len(result[0].prefixes)}


def _package_pairs(args, kwargs, result):
    return {"pairs": 0 if result is None else result.n_pairs}


# Span name, attribute, modules whose code looks the attribute up, counter.
TRACED = (
    ("datagen.generate_syn", "generate_syn", ("fedhh.runner",), _one_dataset),
    ("datagen.exact_topk", "exact_topk", ("fedhh.runner",), None),
    ("protocol.assign_groups", "assign_groups", ("fedhh.protocol",), None),
    ("protocol.estimate_level", "estimate_level", ("fedhh.protocol", "fedhh.pruning"), _users),
    ("protocol.merge_reports", "_merge_reports", ("fedhh.protocol", "fedhh.pruning", "fedhh.runner"), _report_pairs),
    ("protocol.run_pem_single", "run_pem_single", ("fedhh.protocol", "fedhh.runner"), None),
    ("protocol.run_fedpem", "run_fedpem", ("fedhh.runner",), None),
    ("protocol.run_tap", "run_tap", ("fedhh.runner",), None),
    ("pruning.run_taps", "run_taps", ("fedhh.runner",), None),
    ("prefix_codec.construct_domain", "construct_domain", ("fedhh.protocol", "fedhh.pruning"), _candidates),
    ("oracles.perturb_counts", "perturb_counts", ("fedhh.oracles",), _cells),
    ("extension.extension_number", "extension_number", ("fedhh.protocol",), None),
    ("pruning.consensus_prune_level", "consensus_prune_level", ("fedhh.pruning",), _pruned),
    ("pruning.select_pruning_candidates", "select_pruning_candidates", ("fedhh.pruning",), _package_pairs),
)

ENGINES = ("protocol.run_pem_single", "protocol.run_fedpem", "protocol.run_tap", "pruning.run_taps")

# Per-layer metric: unit, then the spans it is computed from.
LAYER_METRICS = {
    "runner.datasets_built": ("count", ("datagen.generate_syn",)),
    "runner.cpu_util": ("CPU-s/s", ()),
    "datagen.generate_syn_s": ("s", ("datagen.generate_syn",)),
    "datagen.exact_topk_s": ("s", ("datagen.exact_topk",)),
    "protocol.assign_groups_s": ("s", ("protocol.assign_groups",)),
    "protocol.estimate_level_s": ("s", ("protocol.estimate_level",)),
    "protocol.merge_reports_s": ("s", ("protocol.merge_reports",)),
    "protocol.report_pairs": ("count", ("protocol.merge_reports",)),
    "protocol.run_pem_single_s": ("s", ("protocol.run_pem_single",)),
    "protocol.run_fedpem_s": ("s", ("protocol.run_fedpem",)),
    "protocol.run_tap_s": ("s", ("protocol.run_tap",)),
    "pruning.run_taps_s": ("s", ("pruning.run_taps",)),
    "prefix_codec.construct_domain_s": ("s", ("prefix_codec.construct_domain",)),
    "prefix_codec.candidates_built": ("count", ("prefix_codec.construct_domain",)),
    "oracles.perturb_counts_s": ("s", ("oracles.perturb_counts",)),
    "oracles.cells_simulated": ("count", ("oracles.perturb_counts",)),
    "oracles.cells_per_s": ("cells/s", ("oracles.perturb_counts",)),
    "extension.extension_number_s": ("s", ("extension.extension_number",)),
    "pruning.consensus_prune_level_s": ("s", ("pruning.consensus_prune_level",)),
    "pruning.package_pairs": ("count", ("pruning.select_pruning_candidates",)),
    "pruning.pruned_per_package": ("prefixes/package", ("pruning.consensus_prune_level",)),
    "bench.trace_overhead_s": ("s", ()),
}


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans of traced rounds; one list of spans per round."""

    def __init__(self):
        self.rounds: list[list[Span]] = []
        self.missing: set[str] = set()
        self.broken: set[str] = set()  # counters that could not read a call
        self._lock = threading.Lock()
        self._local = threading.local()

    def _wrap(self, name, original, counter):
        spans = self.rounds[-1]
        local, lock, broken = self._local, self._lock, self.broken

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except Exception:  # a changed signature must not stop the workload
                    broken.add(name)
            return result

        return wrapper

    @contextmanager
    def round(self):
        """A new round of spans, with every wrapper installed while it runs."""
        self.rounds.append([])
        counters = {name: counter for name, _, _, counter in TRACED}
        targets = [
            (name, attribute, modules, lambda key, fn: self._wrap(key, fn, counters[key]))
            for name, attribute, modules, _ in TRACED
        ]
        with replaced(targets) as missing:
            self.missing |= missing
            yield

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for number, spans in enumerate(self.rounds):
                for index, span in enumerate(spans):
                    handle.write(
                        json.dumps(
                            {
                                "round": number,
                                "span": index,
                                "name": span.name,
                                "start": span.start,
                                "end": span.end,
                                "parent": span.parent,
                                "thread": span.thread,
                                "counts": span.counts,
                            }
                        )
                        + "\n"
                    )


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the summed span time minus the time of direct children."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span.name] += span.end - span.start - child_time[index]
    return totals


def _count(spans, name, key):
    return sum(span.counts.get(key, 0) for span in spans if span.name == name)


def round_metrics(spans: list[Span], wall: float, cpu: float) -> dict[str, float]:
    """Per-layer values of one traced round (trace overhead excluded)."""
    own = self_times(spans)
    cells = _count(spans, "oracles.perturb_counts", "cells")
    packages = _count(spans, "pruning.consensus_prune_level", "packages")
    pruned = _count(spans, "pruning.consensus_prune_level", "pruned")
    values = {
        "runner.datasets_built": _count(spans, "datagen.generate_syn", "datasets"),
        "runner.cpu_util": cpu / wall,
        "protocol.report_pairs": _count(spans, "protocol.merge_reports", "pairs"),
        "prefix_codec.candidates_built": _count(spans, "prefix_codec.construct_domain", "candidates"),
        "oracles.cells_simulated": cells,
        "oracles.cells_per_s": cells / own["oracles.perturb_counts"] if own["oracles.perturb_counts"] else 0.0,
        "pruning.package_pairs": _count(spans, "pruning.select_pruning_candidates", "pairs"),
        "pruning.pruned_per_package": pruned / packages if packages else 0.0,
    }
    for metric, (unit, sources) in LAYER_METRICS.items():
        if unit == "s" and sources:
            values[metric] = own[sources[0]]
    return values


def layer_metrics(tracer: Tracer, walls, cpus, overhead: float) -> dict[str, float | None]:
    """Median over traced rounds of every per-layer metric; null where unmeasurable."""
    per_round = [round_metrics(spans, wall, cpu) for spans, wall, cpu in zip(tracer.rounds, walls, cpus)]
    unmeasurable = tracer.missing | tracer.broken
    result = {}
    for metric, (unit, sources) in LAYER_METRICS.items():
        if metric == "bench.trace_overhead_s":
            result[metric] = overhead
        elif unmeasurable.intersection(sources):
            result[metric] = None
        else:
            # Counts repeat exactly from round to round; keep them whole.
            median = statistics.median_low if unit == "count" else statistics.median
            result[metric] = median(values[metric] for values in per_round)
    return result


def users_per_party(spans: list[Span]) -> dict:
    """(engine run, party) -> (party size, users passed to estimate_level)."""
    result = {}
    for span in spans:
        if span.name != "protocol.estimate_level" or "party" not in span.counts:
            continue
        run, parent = None, span.parent
        while parent is not None:
            if spans[parent].name in ENGINES:
                run = parent
            parent = spans[parent].parent
        if run is None:
            continue
        key = (run, span.counts["party"])
        size, used = result.get(key, (span.counts["party_users"], 0))
        result[key] = (size, used + span.counts["users"])
    return result
