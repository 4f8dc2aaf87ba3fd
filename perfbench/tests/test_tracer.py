"""Self time, counts and missing functions in the tracer."""

import csv
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import tracer  # noqa: E402
from fedhh import runner  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        tracer.Span("engine", None, 1, 0.0, 10.0),
        tracer.Span("estimate", 0, 1, 1.0, 5.0),
        tracer.Span("oracle", 1, 1, 2.0, 4.0),
        tracer.Span("estimate", 0, 1, 6.0, 7.0),
    ]
    own = tracer.self_times(spans)
    assert own == {"engine": 5.0, "estimate": 3.0, "oracle": 2.0}


def _tiny_config(**changes):
    settings = dict(mechanism="taps", oracle="krr", epsilon=(4.0,), scale=0.01, repetitions=1, fixed_t=20)
    settings.update(changes)
    return runner.ExperimentConfig(**settings)


def _untimed_rows(config):
    rows = list(csv.DictReader(io.StringIO(runner.records_to_csv(runner.run_experiment(config)))))
    for row in rows:
        del row["wall_time_ms"]
    return rows


def test_traced_round_counts_and_leaves_the_program_unchanged():
    config = _tiny_config()
    plain = _untimed_rows(config)
    trace = tracer.Tracer()
    with trace.round():
        traced = _untimed_rows(config)
    assert traced == plain
    values = tracer.layer_metrics(trace, [1.0], [1.0], 0.0)
    assert values["runner.datasets_built"] == 1
    assert values["pruning.package_pairs"] > 0
    assert values["oracles.cells_simulated"] == 7800  # KRR: one cell per user at scale 0.01
    assert all(value is not None for value in values.values())
    sizes = tracer.users_per_party(trace.rounds[0])
    assert sizes and all(size == used for size, used in sizes.values())


def test_renamed_function_reads_missing_and_the_round_still_runs(monkeypatch):
    renamed = [
        entry if entry[0] != "protocol.assign_groups" else (entry[0], "assign_groups_renamed") + entry[2:]
        for entry in tracer.TRACED
    ]
    monkeypatch.setattr(tracer, "TRACED", tuple(renamed))
    trace = tracer.Tracer()
    with trace.round():
        runner.run_experiment(_tiny_config())
    values = tracer.layer_metrics(trace, [1.0], [1.0], 0.0)
    assert trace.missing == {"protocol.assign_groups"}
    assert values["protocol.assign_groups_s"] is None
    assert values["protocol.estimate_level_s"] > 0


@pytest.mark.parametrize("name", sorted(tracer.LAYER_METRICS))
def test_every_layer_metric_has_a_unit(name):
    unit, sources = tracer.LAYER_METRICS[name]
    traced = {entry[0] for entry in tracer.TRACED}
    assert unit and set(sources) <= traced
