"""The benchmark command end to end, at the smoke size.

Each test starts ``run.py`` as its own process, as a user would; together
they take about a minute on two cores.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "user_reports_per_s": "reports/s", "peak_rss_mb": "MB"}
COUNTS = (
    "runner.datasets_built",
    "prefix_codec.candidates_built",
    "oracles.cells_simulated",
    "protocol.report_pairs",
    "pruning.package_pairs",
)


def _bench(workload, trace, cwd=ROOT, env=None, seed=5):
    command = [
        sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke",
    ]
    proc = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS + run.DIAGNOSTIC)
def test_untraced_smoke_prints_every_end_to_end_metric(workload):
    result = _result(_bench(workload, 0))
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS + run.DIAGNOSTIC)
def test_traced_outputs_and_counts_do_not_depend_on_the_hash_seed(workload):
    records = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        result = _result(_bench(workload, 1, env=env))
        assert set(result["metrics"]) == set(tracer.LAYER_METRICS)
        assert all(entry["value"] is not None for entry in result["metrics"].values())
        path = BENCH / "out" / f"{workload}-smoke-seed5-trace1.json"
        records.append(json.loads(path.read_text()))
    first, second = records
    assert first["outputs_digest"] == second["outputs_digest"]
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_a_result_where_the_program_is_absent():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _bench("wide-domain-oracles", 0, cwd=bare, env={**os.environ, "PYTHONPATH": ""})
        assert proc.returncode != 0
        assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    finally:
        shutil.rmtree(bare)
