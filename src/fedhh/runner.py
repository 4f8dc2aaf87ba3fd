"""Experiment orchestration: configs, seeded repetitions, dispatch, CSV.

A config is a flat key=value text file whose keys mirror the field names
below; CLI flags override file values. Epsilon and k accept comma lists and
the cross product is enumerated. A config is checked when it is built, so a
bad combination of fields raises ValueError there rather than inside a job.
Every repetition derives its own key from the root seed and builds its
dataset (for the synthetic recipe) and exact top-k once; each (epsilon, k)
job of the repetition runs the chosen mechanism on it and scores its
:class:`~fedhh.protocol.RunResult` against the truth: F1 and NCR from the
result's top-k, average local recall from each party's upload and uploaded
bytes from its pair totals. The root seed fully determines every output
column except wall_time_ms.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from fedhh import metrics, oracles
from fedhh._rng import derive_key
from fedhh.datagen import (
    GroundTruth,
    PartySpec,
    exact_topk,
    generate_syn,
    ingest_party_file,
    load_vocabulary,
    syn_default_specs,
)
from fedhh.protocol import (
    PARTY_USERS_LIMIT,
    PartyState,
    ProtocolParams,
    RunResult,
    pool_counts,
    run_fedpem,
    run_pem_single,
)
from fedhh.pruning import run_tap, run_taps

MECHANISMS = ("pem", "fedpem", "tap", "taps")
CSV_HEADER = [
    "run_id",
    "mechanism",
    "oracle",
    "epsilon",
    "k",
    "f1",
    "ncr",
    "avg_local_recall",
    "uploaded_bytes",
    "wall_time_ms",
    "seed",
]

_TAG_DATASET = 7


@dataclass
class ExperimentConfig:
    mechanism: str = "taps"
    oracle: str = "krr"
    epsilon: tuple[float, ...] = (4.0,)
    k: tuple[int, ...] = (10,)
    m: int = 48
    g: int = 24
    g_s: int | None = None  # None: floor(0.25 g)
    dividing_ratio: float = 0.1
    phase1_user_fraction: float = 0.10
    fixed_t: int | None = None
    dataset: str = "syn"  # "syn" or a manifest path
    pool_size: int = 33_000
    n_groups: int = 6
    dirichlet_beta: float = 0.5
    scale: float = 1.0
    repetitions: int = 50
    root_seed: int = 12345
    output: str | None = None
    threads: int = 1
    ncr_quality: str = "k-rank"

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"mechanism must be one of {MECHANISMS}, got {self.mechanism!r}")
        if isinstance(self.epsilon, (int, float)):
            self.epsilon = (float(self.epsilon),)
        if isinstance(self.k, int):
            self.k = (self.k,)
        self.epsilon = tuple(oracles.check_epsilon(e) for e in self.epsilon)
        self.k = tuple(int(k) for k in self.k)
        if not self.epsilon:
            raise ValueError("need at least one epsilon value")
        if not self.k or any(k < 2 for k in self.k):
            raise ValueError("k values must be at least 2")
        # Repeats would give rows the same run_id and double-count mean rows.
        if len(set(self.epsilon)) < len(self.epsilon) or len(set(self.k)) < len(self.k):
            raise ValueError(f"epsilon and k values must not repeat, got {self.epsilon} and {self.k}")
        self.protocol_params(self.epsilon[0], max(self.k))  # raises on bad protocol fields
        if self.dirichlet_beta <= 0:
            raise ValueError("dirichlet_beta must be positive")
        if not 1 <= self.n_groups <= self.pool_size:
            raise ValueError(f"need 1 <= n_groups <= pool_size, got {self.n_groups} and {self.pool_size}")
        if self.dataset == "syn" and self.pool_size > 2**self.m:
            raise ValueError(f"a pool of {self.pool_size} items does not fit in m={self.m} bits")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.dataset == "syn":
            # pem pools every user into one party.
            sizes = [spec.n_users for spec in _scaled_specs(self.scale)]
            largest = sum(sizes) if self.mechanism == "pem" else max(sizes)
            if largest >= PARTY_USERS_LIMIT:
                raise ValueError(
                    f"scale {self.scale:g} gives a {self.mechanism} party of {largest} users; "
                    "parties must hold fewer than 10**9"
                )
        if self.ncr_quality not in ("k-rank", "k-rank+1"):
            raise ValueError(f"ncr_quality must be 'k-rank' or 'k-rank+1', got {self.ncr_quality!r}")

    @property
    def g_s_resolved(self) -> int:
        return self.g_s if self.g_s is not None else max(1, int(0.25 * self.g))

    def protocol_params(self, epsilon: float, k: int) -> ProtocolParams:
        return ProtocolParams(
            m=self.m,
            g=self.g,
            g_s=self.g_s_resolved,
            k=k,
            epsilon=epsilon,
            oracle=self.oracle,
            phase1_user_fraction=self.phase1_user_fraction,
            dividing_ratio=self.dividing_ratio,
            fixed_t=self.fixed_t,
        )


@dataclass
class RunRecord:
    run_id: str
    mechanism: str
    oracle: str
    epsilon: float
    k: int
    f1: float
    ncr: float
    avg_local_recall: float
    uploaded_bytes: float
    wall_time_ms: float
    seed: int

    def to_row(self) -> list[str]:
        return [
            self.run_id,
            self.mechanism,
            self.oracle,
            f"{self.epsilon:g}",
            str(self.k),
            f"{self.f1:.6f}",
            f"{self.ncr:.6f}",
            f"{self.avg_local_recall:.6f}",
            f"{self.uploaded_bytes:g}",
            f"{self.wall_time_ms:.3f}",
            str(self.seed),
        ]


# ---------------------------------------------------------------------------
# config parsing

_LIST_FLOAT_KEYS = {"epsilon"}
_LIST_INT_KEYS = {"k"}
_INT_KEYS = {"m", "g", "g_s", "pool_size", "n_groups", "repetitions", "root_seed", "threads", "fixed_t"}
_FLOAT_KEYS = {"dividing_ratio", "phase1_user_fraction", "dirichlet_beta", "scale"}
_STR_KEYS = {"mechanism", "oracle", "dataset", "output", "ncr_quality"}
_OPTIONAL_KEYS = {"g_s", "fixed_t", "output"}


def parse_config_file(path: str) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line.rstrip()!r}")
            key, value = stripped.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _coerce(key: str, raw: str):
    if raw.lower() in ("none", "") and key in _OPTIONAL_KEYS:
        return None
    if key in _LIST_FLOAT_KEYS:
        return tuple(float(part) for part in raw.split(","))
    if key in _LIST_INT_KEYS:
        return tuple(int(part) for part in raw.split(","))
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    if key in _STR_KEYS:
        return raw
    raise ValueError(f"unknown config key {key!r}")


def build_config(file_values: dict[str, str] | None = None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Merge file values and CLI overrides (overrides win) into a config."""
    merged: dict[str, object] = {}
    for source in (file_values or {}), (overrides or {}):
        for key, raw in source.items():
            if raw is None:
                continue
            merged[key] = _coerce(key, raw) if isinstance(raw, str) else raw
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(merged) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**merged)


# ---------------------------------------------------------------------------
# datasets

def _scaled_specs(scale: float) -> list[PartySpec]:
    return [
        PartySpec(max(1, round(spec.n_users * scale)), spec.law, spec.param)
        for spec in syn_default_specs()
    ]


def _dataset_rng(root_seed: int, repetition: int) -> np.random.Generator:
    return np.random.default_rng(derive_key(derive_key(root_seed, repetition), _TAG_DATASET))


def load_manifest(path: str, m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read a dataset manifest: m=, vocabulary=, and one party= line per file.

    Returns each party's (ascending codes, users holding each).
    """
    base = Path(path).parent
    vocab_path: str | None = None
    party_paths: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key == "m":
                if int(value) != m:
                    raise ValueError(f"manifest declares m={value} but the run uses m={m}")
            elif key == "vocabulary":
                vocab_path = value
            elif key == "party":
                party_paths.append(value)
            else:
                raise ValueError(f"{path}:{line_no}: unknown manifest key {key!r}")
    if vocab_path is None:
        raise ValueError(f"manifest {path} has no vocabulary line")
    if not party_paths:
        raise ValueError(f"manifest {path} lists no parties")
    vocabulary = load_vocabulary(str(base / vocab_path))
    return [ingest_party_file(str(base / p), vocabulary, m) for p in party_paths]


def _manifest_parties(path: str, m: int) -> list[PartyState]:
    histograms = load_manifest(path, m)
    return [PartyState(i, codes, counts, m) for i, (codes, counts) in enumerate(histograms)]


def _syn_parties(recipe, repetition: int) -> list[PartyState]:
    """The synthetic recipe's parties for one repetition.

    ``recipe`` is an :class:`ExperimentConfig` or parsed CLI arguments: any
    object with root_seed, scale, pool_size, n_groups, m and dirichlet_beta.
    """
    return generate_syn(
        _scaled_specs(recipe.scale),
        recipe.pool_size,
        recipe.n_groups,
        _dataset_rng(recipe.root_seed, repetition),
        m=recipe.m,
        dirichlet_beta=recipe.dirichlet_beta,
    )


# ---------------------------------------------------------------------------
# execution

def _execute(
    mechanism: str, parties: list[PartyState], params: ProtocolParams, run_key: int
) -> RunResult:
    if mechanism == "tap":
        return run_tap(parties, params, run_key)
    if mechanism == "taps":
        return run_taps(parties, params, run_key)
    if mechanism == "fedpem":
        return run_fedpem(parties, params, run_key)
    # pem: the centralized baseline pools every user into one population
    pooled = PartyState(0, *pool_counts(parties), parties[0].item_length)
    return run_pem_single(pooled, params, run_key)


def _run_one(
    config: ExperimentConfig,
    epsilon: float,
    k: int,
    repetition: int,
    parties: list[PartyState],
    truth: GroundTruth,
) -> RunRecord:
    """One job; ``truth`` is the dataset's exact top-k' for some k' >= k."""
    run_key = derive_key(config.root_seed, repetition)
    if len(truth.topk) < k:
        raise ValueError(f"dataset holds only {len(truth.topk)} distinct items, need k={k}")
    params = config.protocol_params(epsilon, k)
    start = time.perf_counter()
    result = _execute(config.mechanism, parties, params, run_key)
    wall_ms = (time.perf_counter() - start) * 1000.0
    truth_codes = truth.codes[:k]
    local_lists = [[code for code, _ in entries[:k]] for _, entries in result.uploads]
    return RunRecord(
        run_id=f"{config.mechanism}-eps{epsilon:g}-k{k}-rep{repetition:03d}",
        mechanism=config.mechanism,
        oracle=config.oracle,
        epsilon=epsilon,
        k=k,
        f1=metrics.f1_score(result.topk, truth_codes),
        ncr=metrics.ncr_score(result.topk, truth_codes, k, quality=config.ncr_quality),
        avg_local_recall=metrics.avg_local_recall(local_lists, truth_codes, k),
        uploaded_bytes=result.uploaded_bytes,
        wall_time_ms=wall_ms,
        seed=run_key,
    )


def run_experiment(config: ExperimentConfig) -> list[RunRecord]:
    """All repetitions for every (epsilon, k) point, plus one mean row each.

    Returns the per-run records followed by the mean rows; writes the CSV to
    ``config.output`` when set.
    """
    manifest = None if config.dataset == "syn" else _manifest_parties(config.dataset, config.m)
    points = [(eps, k) for eps in config.epsilon for k in config.k]
    # A repetition's jobs are queued together, and the first of them to run
    # builds its dataset and exact top-max(k) on its own thread.
    jobs = [(rep, eps, k) for rep in range(config.repetitions) for eps, k in points]
    datasets: dict[int, tuple[list[PartyState], GroundTruth]] = {}
    locks = [threading.Lock() for _ in range(config.repetitions)]

    def one(job):
        rep, eps, k = job
        with locks[rep]:
            if rep not in datasets:
                parties = manifest or _syn_parties(config, rep)
                datasets[rep] = parties, exact_topk(parties, max(config.k))
            parties, truth = datasets[rep]
        return _run_one(config, eps, k, rep, parties, truth)

    if config.threads == 1:
        results = [one(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(one, jobs))
    by_job = dict(zip(jobs, results))
    records = [by_job[(rep, eps, k)] for eps, k in points for rep in range(config.repetitions)]

    mean_rows = []
    for eps, k in points:
        group = [r for r in records if r.epsilon == eps and r.k == k]
        mean_rows.append(
            RunRecord(
                run_id=f"{config.mechanism}-eps{eps:g}-k{k}-mean",
                mechanism=config.mechanism,
                oracle=config.oracle,
                epsilon=eps,
                k=k,
                f1=float(np.mean([r.f1 for r in group])),
                ncr=float(np.mean([r.ncr for r in group])),
                avg_local_recall=float(np.mean([r.avg_local_recall for r in group])),
                uploaded_bytes=float(np.mean([r.uploaded_bytes for r in group])),
                wall_time_ms=float(np.mean([r.wall_time_ms for r in group])),
                seed=config.root_seed,
            )
        )
    records = records + mean_rows
    if config.output:
        write_csv(records, config.output)
    return records


def write_csv(records: list[RunRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(records_to_csv(records))


def records_to_csv(records: list[RunRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for record in records:
        writer.writerow(record.to_row())
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# CLI

def _add_override_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mechanism", choices=MECHANISMS)
    parser.add_argument("--oracle", choices=oracles.KINDS)
    parser.add_argument("--epsilon", help="comma list, e.g. 2,3,4")
    parser.add_argument("--k", help="comma list, e.g. 10,20")
    parser.add_argument("--m")
    parser.add_argument("--g")
    parser.add_argument("--g-s", dest="g_s")
    parser.add_argument("--dividing-ratio", dest="dividing_ratio")
    parser.add_argument("--phase1-user-fraction", dest="phase1_user_fraction")
    parser.add_argument("--fixed-t", dest="fixed_t")
    parser.add_argument("--dataset")
    parser.add_argument("--pool-size", dest="pool_size")
    parser.add_argument("--n-groups", dest="n_groups")
    parser.add_argument("--dirichlet-beta", dest="dirichlet_beta")
    parser.add_argument("--scale")
    parser.add_argument("--repetitions")
    parser.add_argument("--root-seed", dest="root_seed")
    parser.add_argument("--output")
    parser.add_argument("--threads")
    parser.add_argument("--ncr-quality", dest="ncr_quality")


def _overrides_from_args(args: argparse.Namespace) -> dict[str, str]:
    keys = _LIST_FLOAT_KEYS | _LIST_INT_KEYS | _INT_KEYS | _FLOAT_KEYS | _STR_KEYS
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def _cmd_run(args, parser: argparse.ArgumentParser) -> int:
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        config = build_config(file_values, _overrides_from_args(args))
    except (OSError, ValueError) as exc:  # an unreadable or bad config is a usage error
        parser.error(str(exc))
    records = run_experiment(config)
    if not config.output:
        sys.stdout.write(records_to_csv(records))
    else:
        means = [r for r in records if r.run_id.endswith("-mean")]
        for record in means:
            print(
                f"{record.run_id}: f1={record.f1:.4f} ncr={record.ncr:.4f} "
                f"avg_local_recall={record.avg_local_recall:.4f} bytes={record.uploaded_bytes:g}"
            )
        print(f"wrote {config.output}")
    return 0


def _cmd_generate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    parties = _syn_parties(args, 0)
    width = len(str(args.pool_size - 1))
    with open(out / "vocabulary.txt", "w", encoding="utf-8") as handle:
        for item in range(args.pool_size):
            handle.write(f"item{item:0{width}d}\n")
    manifest_lines = [f"m={args.m}", "vocabulary=vocabulary.txt"]
    for party in parties:
        name = f"party{party.party_id}.txt"
        with open(out / name, "w", encoding="utf-8") as handle:
            for code, count in zip(party.codes.tolist(), party.counts.tolist()):
                handle.write(f"item{code:0{width}d}\n" * count)
        manifest_lines.append(f"party={name}")
    (out / "manifest.txt").write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    total = sum(p.n_users for p in parties)
    print(f"wrote {len(parties)} parties ({total} users) under {out}")
    return 0


def _cmd_truth(args) -> int:
    if args.dataset == "syn":
        parties = _syn_parties(args, args.repetition)
    else:
        parties = _manifest_parties(args.dataset, args.m)
    truth = exact_topk(parties, args.k)
    for rank, (code, freq) in enumerate(truth.topk, start=1):
        print(f"{rank:3d} {code} {freq:.6f}")
    return 0


def _cmd_oracle_bench(args) -> int:
    kinds = oracles.KINDS if args.oracle == "all" else (args.oracle,)
    rng = np.random.default_rng(args.seed)
    domain = np.arange(args.domain_size)
    print(f"n={args.n} domain={args.domain_size} epsilon={args.epsilon:g} trials={args.trials}")
    print(f"{'oracle':<6} {'mean |bias|':>12} {'max |bias|':>12} {'emp var':>12} {'theory var':>12} {'ratio':>8}")
    for kind in kinds:
        config = oracles.OracleConfig(kind, args.epsilon, args.domain_size)
        true_freqs = rng.dirichlet(np.ones(args.domain_size))
        estimates = np.empty((args.trials, args.domain_size))
        for trial in range(args.trials):
            held = rng.multinomial(args.n, true_freqs)  # n iid draws, as a histogram
            counts = oracles.perturb_counts(
                config, derive_key(args.seed, trial), range(args.n), domain, held
            )
            estimates[trial] = oracles.estimate_from_counts(config, counts, args.n)
        bias = estimates.mean(axis=0) - true_freqs
        emp_var = float(estimates.var(axis=0, ddof=1).mean())
        theory = oracles.variance(config, args.n)
        print(
            f"{kind:<6} {np.abs(bias).mean():12.3e} {np.abs(bias).max():12.3e} "
            f"{emp_var:12.3e} {theory:12.3e} {emp_var / theory:8.3f}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedhh",
        description="Federated heavy-hitter identification under local differential privacy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute an experiment config")
    run_parser.add_argument("--config", help="key=value config file")
    _add_override_args(run_parser)
    run_parser.set_defaults(func=lambda args: _cmd_run(args, run_parser))

    gen_parser = sub.add_parser("generate", help="emit a synthetic dataset plus manifest")
    gen_parser.add_argument("--out", required=True)
    gen_parser.add_argument("--root-seed", dest="root_seed", type=int, default=12345)
    gen_parser.add_argument("--pool-size", dest="pool_size", type=int, default=33_000)
    gen_parser.add_argument("--n-groups", dest="n_groups", type=int, default=6)
    gen_parser.add_argument("--dirichlet-beta", dest="dirichlet_beta", type=float, default=0.5)
    gen_parser.add_argument("--scale", type=float, default=1.0)
    gen_parser.add_argument("--m", type=int, default=48)
    gen_parser.set_defaults(func=_cmd_generate)

    truth_parser = sub.add_parser("truth", help="print the exact population top-k")
    truth_parser.add_argument("--dataset", default="syn", help="'syn' or a manifest path")
    truth_parser.add_argument("--k", type=int, default=10)
    truth_parser.add_argument("--m", type=int, default=48)
    truth_parser.add_argument("--root-seed", dest="root_seed", type=int, default=12345)
    truth_parser.add_argument("--repetition", type=int, default=0)
    truth_parser.add_argument("--pool-size", dest="pool_size", type=int, default=33_000)
    truth_parser.add_argument("--n-groups", dest="n_groups", type=int, default=6)
    truth_parser.add_argument("--dirichlet-beta", dest="dirichlet_beta", type=float, default=0.5)
    truth_parser.add_argument("--scale", type=float, default=1.0)
    truth_parser.set_defaults(func=_cmd_truth)

    bench_parser = sub.add_parser("oracle-bench", help="oracle bias and variance report")
    bench_parser.add_argument("--oracle", choices=oracles.KINDS + ("all",), default="all")
    bench_parser.add_argument("--epsilon", type=float, default=2.0)
    bench_parser.add_argument("--n", type=int, default=20_000)
    bench_parser.add_argument("--domain-size", dest="domain_size", type=int, default=32)
    bench_parser.add_argument("--trials", type=int, default=30)
    bench_parser.add_argument("--seed", type=int, default=7)
    bench_parser.set_defaults(func=_cmd_oracle_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
