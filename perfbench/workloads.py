"""One benchmark workload in its own process: set up, time whole rounds, audit, check.

``run.py`` starts this file as a child process; README.md describes the
workloads, their seeds and their metrics. The last line of standard output is
the result as one JSON object; the full record, with the machine facts, goes
to ``out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from hooks import replaced  # noqa: E402

import fedhh  # noqa: E402

if not Path(fedhh.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"fedhh was imported from {fedhh.__file__}, not from this checkout's src/")

from fedhh import datagen, oracles, runner  # noqa: E402

# Integer tags that, with the command's --seed, derive every seed a workload uses.
WORKLOAD_TAGS = {
    "syn-sweep": 1,
    "population-scale": 2,
    "wide-domain-oracles": 3,
}

# Workload sizes: "full" is the benchmark, "smoke" runs every workload and
# every check in seconds for the benchmark's own tests.
SIZES = {
    "syn-sweep": {"full": {"scale": 1.0, "repetitions": 1}, "smoke": {"scale": 0.05, "repetitions": 1}},
    # syn-sweep's untimed oracle audit: trials checked against the variance formula.
    "oracle-audit": {
        "full": {"n": 50_000, "trials": {16: 24, 256: 4}},
        "smoke": {"n": 4_000, "trials": {16: 24, 128: 2}},
    },
    "population-scale": {"full": {"scale": 10.0}, "smoke": {"scale": 0.1}},
    "wide-domain-oracles": {
        "full": {"n": 50_000, "trials": {16: 24, 1024: 2}},
        "smoke": {"n": 4_000, "trials": {16: 24, 128: 2}},
    },
}

K = 10
M = 48
G = 24
F1_EPSILON = 4.0  # budget at which the F1 floor applies
ORACLE_EPSILON = 1.0
ORACLE_ZIPF = 1.1  # skew of the oracle workload's true frequencies


def derive_seed(seed: int, *parts: int) -> int:
    """A 63-bit seed from the command's seed and integer constants."""
    state = np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


def csv_rows(records) -> list[dict]:
    """The runner's CSV rows as dicts keyed by column name."""
    return list(csv.DictReader(io.StringIO(runner.records_to_csv(records))))


def recipe_users(scale: float) -> int:
    """Users in the 8-party recipe at ``scale``: each reports once per engine run."""
    return sum(max(1, round(spec.n_users * scale)) for spec in datagen.syn_default_specs())


@dataclass
class Round:
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: object = None


@dataclass
class Audit:
    rows: list[dict] = field(default_factory=list)
    datasets: list[dict] = field(default_factory=list)
    scored: list[tuple] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    oracle: Round | None = None


class TrieWorkload:
    """Sweeps through ``runner.run_experiment``; one operation is one engine run (CSV row)."""

    def __init__(self, configs, audit_configs, oracle_audit=None):
        self.configs = configs
        self.audit_configs = audit_configs
        self.oracle_audit = oracle_audit
        self.jobs = [len(c.epsilon) * len(c.k) * c.repetitions for c in configs]
        self.ops_per_round = sum(self.jobs)
        self.reports_per_round = sum(
            jobs * recipe_users(c.scale) for jobs, c in zip(self.jobs, configs)
        )

    def run_round(self) -> Round:
        result = Round(outputs=[])
        for config, jobs in zip(self.configs, self.jobs):
            try:
                records = runner.run_experiment(config)
            except Exception as exc:  # one failed sweep must not stop the workload
                result.failed += jobs
                result.errors.append(f"{config.mechanism}/{config.oracle}: {exc!r}")
                continue
            result.outputs.extend(csv_rows(records))
        return result

    def audit(self) -> Audit:
        """Re-run the audit configs single-threaded with two capture hooks.

        ``runner.generate_syn`` is wrapped to count each dataset independently
        as it is built; ``metrics.f1_score`` to see the top-k each run returns
        and the truth it is scored against. With an oracle audit, one round of
        its trials follows, for the variance check.
        """
        audit = Audit()
        local = threading.local()

        def on_generate(_, generate):
            def wrapper(*args, **kwargs):
                parties = generate(*args, **kwargs)
                users = np.concatenate([party.users for party in parties])
                top, distinct = checks.independent_topk(users, K)
                local.dataset = {"top": top, "distinct": distinct, "parties": len(parties)}
                audit.datasets.append(local.dataset)
                return parties

            return wrapper

        def on_f1(_, f1_score):
            def wrapper(estimated, truth, *args, **kwargs):
                codes = [(code.bits, code.length) for code in estimated]
                truth_bits = [code.bits for code in truth]
                audit.scored.append((codes, truth_bits, getattr(local, "dataset", None)))
                return f1_score(estimated, truth, *args, **kwargs)

            return wrapper

        targets = [
            ("runner.generate_syn", "generate_syn", ("fedhh.runner",), on_generate),
            ("metrics.f1_score", "f1_score", ("fedhh.metrics",), on_f1),
        ]
        with replaced(targets) as missing:
            audit.failures += [f"{name} not found" for name in sorted(missing)]
            for config in self.audit_configs:
                try:
                    audit.rows += csv_rows(runner.run_experiment(config))
                except Exception as exc:  # reported as a failed check
                    audit.failures.append(f"{config.mechanism}/{config.oracle}: {exc!r}")
        if self.oracle_audit is not None:
            audit.oracle = self.oracle_audit.run_round()
            audit.failures += audit.oracle.errors
        return audit

    def check(self, rounds: list[Round], audit: Audit, tracer=None) -> dict[str, list[str]]:
        timed = rounds[0].outputs
        truth, topk = [], []
        for codes, truth_bits, dataset in audit.scored:
            if dataset is None:
                truth.append("a run was scored before any dataset was built")
                continue
            truth += checks.check_truth(truth_bits, dataset["top"], K, dataset["distinct"])
            topk += checks.check_topk(codes, K, M)
        if not audit.scored:
            truth.append("the audit saw no scored run")
        results = {"audit": audit.failures, "truth": truth, "topk": topk}
        if audit.datasets:
            distinct = min(dataset["distinct"] for dataset in audit.datasets)
            ceiling = checks.no_signal_f1_ceiling(distinct, K)
            results["f1_floor"] = checks.check_f1_floor(timed, F1_EPSILON, ceiling)
        else:
            results["f1_floor"] = ["the audit saw no dataset to size the floor"]
        results["rerun_rows"] = checks.check_rows_match(timed, audit.rows)
        mechanisms = {config.mechanism for config in self.configs}
        if {"taps", "fedpem"} <= mechanisms and audit.datasets:
            config = self.configs[0]
            results["upload_cap"] = checks.check_upload_cap(
                timed, audit.datasets[0]["parties"], config.g, config.g_s_resolved, K
            )
        if audit.oracle is not None:
            results.update(self.oracle_audit.check([audit.oracle], audit))
        if tracer is not None:
            results["users_report_once"] = users_report_once(tracer)
        return results

    def quality(self, rounds: list[Round]) -> list[dict]:
        """Mean F1 and uploaded bytes per mechanism, oracle and epsilon."""
        columns = ("mechanism", "oracle", "epsilon", "f1", "uploaded_bytes")
        return [
            {column: row[column] for column in columns}
            for row in rounds[0].outputs
            if row["run_id"].endswith("-mean")
        ]

    def digest(self, rounds: list[Round]) -> str:
        rows = sorted(
            [row[column] for column in checks.DETERMINISTIC_COLUMNS] for row in rounds[0].outputs
        )
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def zipf_counts(n: int, d: int, exponent: float) -> np.ndarray:
    """Exactly n users spread over d items in proportion to (i+1)**-exponent."""
    weights = np.arange(1, d + 1, dtype=np.float64) ** -exponent
    share = weights / weights.sum() * n
    counts = np.floor(share).astype(np.int64)
    counts[np.argsort(counts - share, kind="stable")[: n - counts.sum()]] += 1
    return counts


class OracleWorkload:
    """The oracle layer alone: seeded trials of perturb_counts and estimate_from_counts.

    One operation is one trial: n reports under one oracle at one domain size.
    """

    def __init__(self, seed: int, n: int, trials: dict[int, int]):
        tag = WORKLOAD_TAGS["wide-domain-oracles"]
        rng = np.random.default_rng(derive_seed(seed, tag, 0))
        self.n = n
        self.users = np.arange(n)
        self.inputs = {}
        for d in trials:
            counts = zipf_counts(n, d, ORACLE_ZIPF)
            self.inputs[d] = (counts, rng.permutation(np.repeat(np.arange(d), counts)))
        self.trials = [
            (kind, d, derive_seed(seed, tag, 1 + index, d, trial))
            for index, kind in enumerate(oracles.KINDS)
            for d, count in trials.items()
            for trial in range(count)
        ]
        self.ops_per_round = len(self.trials)
        self.reports_per_round = n * len(self.trials)

    def run_round(self) -> Round:
        result = Round(outputs={})
        for kind, d, key in self.trials:
            config = oracles.OracleConfig(kind, ORACLE_EPSILON, d)
            try:
                counts = oracles.perturb_counts(config, key, self.users, self.inputs[d][1])
                estimates = oracles.estimate_from_counts(config, counts, self.n)
            except Exception as exc:  # one failed trial must not stop the workload
                result.failed += 1
                result.errors.append(f"{kind} d={d}: {exc!r}")
                continue
            result.outputs.setdefault((kind, d), []).append(np.asarray(estimates, dtype=np.float64))
        return result

    def audit(self) -> Audit:
        return Audit()

    def check(self, rounds: list[Round], audit: Audit, tracer=None) -> dict[str, list[str]]:
        failures = []
        for (kind, d), estimates in sorted(rounds[0].outputs.items()):
            failures += checks.check_oracle(kind, ORACLE_EPSILON, self.inputs[d][0], np.array(estimates))
        if not rounds[0].outputs:
            failures.append("no trial produced estimates")
        return {"oracle_variance": failures}

    def quality(self, rounds: list[Round]) -> list[dict]:
        """Variance ratio and bias statistic to the formula per oracle and domain size."""
        summary = []
        for (kind, d), estimates in sorted(rounds[0].outputs.items()):
            counts = self.inputs[d][0]
            ratio, bias = checks.oracle_statistics(kind, ORACLE_EPSILON, counts, np.array(estimates))
            summary.append({"oracle": kind, "d": d, "variance_ratio": ratio, "bias_statistic": bias})
        return summary

    def digest(self, rounds: list[Round]) -> str:
        sha = hashlib.sha256()
        for key, estimates in sorted(rounds[0].outputs.items()):
            sha.update(repr(key).encode())
            sha.update(np.array(estimates).tobytes())
        return sha.hexdigest()


def build(name: str, seed: int, size: str):
    """The workload's inputs, all derived from ``seed`` and integer constants."""
    params = SIZES[name][size]
    root_seed = derive_seed(seed, WORKLOAD_TAGS[name])
    common = {"k": (K,), "m": M, "g": G, "root_seed": root_seed}
    if name == "syn-sweep":
        configs = [
            runner.ExperimentConfig(
                mechanism=mechanism,
                oracle=oracle,
                epsilon=(2.0, 4.0),
                scale=params["scale"],
                repetitions=params["repetitions"],
                threads=len(os.sched_getaffinity(0)),
                **common,
            )
            for mechanism in runner.MECHANISMS
            for oracle in oracles.KINDS
        ]
        audit = [replace(c, threads=1) for c in configs if c.oracle == "krr"]
        return TrieWorkload(configs, audit, OracleWorkload(seed, **SIZES["oracle-audit"][size]))
    if name == "population-scale":
        configs = [
            runner.ExperimentConfig(
                mechanism=mechanism, oracle="krr", epsilon=(4.0,), scale=params["scale"],
                repetitions=1, threads=1, **common,
            )
            for mechanism in ("pem", "fedpem", "taps")
        ]
        return TrieWorkload(configs, configs)
    if name == "wide-domain-oracles":
        return OracleWorkload(seed, params["n"], params["trials"])
    raise ValueError(f"unknown workload {name!r}")


def machine_facts(name: str, seed: int) -> dict:
    """Facts that make results comparable only with results of the same kind."""
    try:
        from fedhh import _kernels

        backend = getattr(_kernels, "backend_name", "unknown")
    except ImportError:
        backend = "none"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend,
        "commit": git_commit(),
        "workload_seed": derive_seed(seed, WORKLOAD_TAGS[name]),
    }


def git_commit() -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_rounds(workload, seconds: float, tracer=None):
    """Whole rounds until the next would pass ``seconds``; at least one.

    A traced run alternates untraced and traced rounds, at least one of each.
    Returns (round, traced, wall, cpu) per round.
    """
    timed = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(timed) % 2 == 1
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if traced:
            with tracer.round():
                result = workload.run_round()
        else:
            result = workload.run_round()
        wall = time.perf_counter() - wall0
        timed.append((result, traced, wall, time.process_time() - cpu0))
        enough = tracer is None or len(timed) >= 2
        if enough and time.perf_counter() - start + wall > seconds:
            return timed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_TAGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    parser.add_argument("--probe", action="store_true", help="set up, report setup_s and exit")
    args = parser.parse_args(argv)

    workload = build(args.workload, args.seed, args.size)
    setup_s = time.monotonic() - args.t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    timed = time_rounds(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = [result for result, _, _, _ in timed]
    audit = workload.audit()
    results = workload.check(rounds, audit, tracer)

    facts = machine_facts(args.workload, args.seed)
    print("facts " + json.dumps(facts))
    for result in rounds:
        for error in result.errors:
            print(f"failed operation: {error}")
    for name, failures in results.items():
        print(f"check {name}: " + ("ok" if not failures else "FAILED"))
        for failure in failures:
            print(f"  {failure}")
    correct = not any(results.values())
    attempted = workload.ops_per_round * len(rounds)
    failed = sum(result.failed for result in rounds)

    untraced = [wall for _, traced, wall, _ in timed if not traced]
    if tracer is None:
        wall_s = statistics.median(untraced)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "user_reports_per_s": (workload.reports_per_round / wall_s, "reports/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_walls = [wall for _, traced, wall, _ in timed if traced]
        traced_cpus = [cpu for _, traced, _, cpu in timed if traced]
        overhead = statistics.median(traced_walls) - statistics.median(untraced)
        layers = tracing.layer_metrics(tracer, traced_walls, traced_cpus, overhead)
        for name in sorted(tracer.missing | tracer.broken):
            print(f"missing: {name} could not be traced; its metrics read null")
        metrics = {name: (layers[name], unit) for name, (unit, _) in tracing.LAYER_METRICS.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "facts": facts,
        "round_walls": [wall for _, _, wall, _ in timed],
        "round_traced": [traced for _, traced, _, _ in timed],
        "checks": results,
        "outputs_digest": workload.digest(rounds),
        "quality": workload.quality(rounds),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if tracer is not None:
        record["layer_shares"] = layer_shares(tracer)
        tracer.write(OUT / f"{stem}-spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


def users_report_once(tracer) -> list[str]:
    """In every traced round, each party's users reach estimate_level exactly once per engine run."""
    import tracer as tracing

    if "protocol.estimate_level" in tracer.missing or tracer.missing.issuperset(tracing.ENGINES):
        print("note: users_report_once skipped, the level estimate or every engine is missing")
        return []
    failures = []
    for spans in tracer.rounds:
        failures += checks.check_users_report_once(tracing.users_per_party(spans))
    return failures


def layer_shares(tracer) -> dict[str, float]:
    """Each span name's share of all traced self time, over every traced round."""
    import tracer as tracing

    totals = {}
    for spans in tracer.rounds:
        for name, seconds in tracing.self_times(spans).items():
            totals[name] = totals.get(name, 0.0) + seconds
    whole = sum(totals.values()) or 1.0
    return {name: seconds / whole for name, seconds in sorted(totals.items(), key=lambda item: -item[1])}


if __name__ == "__main__":
    sys.exit(main())
