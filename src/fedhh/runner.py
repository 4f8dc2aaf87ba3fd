"""Experiment orchestration: configs, seeded repetitions, dispatch, CSV.

A config is a flat key=value text file whose keys are the fields of
:class:`ExperimentConfig`, which declares each one's type and default; the
``run`` flags are generated from those fields and override file values.
Epsilon and k accept comma lists and the cross product is enumerated. A config
is checked when it is built, so a bad combination of fields raises ValueError
there rather than inside a job.

Each repetition is one task, and tasks share no state. A sweep maps its
tasks in the calling thread when ``min(threads, repetitions, usable CPUs)``
is 1 and on a pool of that many threads otherwise. A task derives its key
from the root seed and, before its jobs, builds once what its (epsilon, k)
jobs share: its dataset (for the synthetic recipe), the pooled party for
``pem``, the exact top-max(k) and every party's level groups, which read
neither epsilon nor k. It scores each job's
:class:`~fedhh.protocol.RunResult` against the truth: F1 and NCR from the
result's top-k, average local recall from each party's upload and uploaded
bytes from its pair totals. The root seed fully determines every output
column except wall_time_ms, a job's engine time.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import math
import os
import sys
import time
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from fedhh import metrics, oracles
from fedhh._rng import derive_key
from fedhh.datagen import (
    PartySpec,
    exact_topk,
    generate_syn,
    ingest_party_file,
    load_vocabulary,
    syn_default_specs,
)
from fedhh.prefix_codec import PrefixCode
from fedhh.protocol import (
    PARTY_USERS_LIMIT,
    LevelGroups,
    PartyState,
    ProtocolParams,
    RunResult,
    draw_groups,
    pool_counts,
    run_fedpem,
    run_pem_single,
)
from fedhh.pruning import run_tap, run_taps

MECHANISMS = ("pem", "fedpem", "tap", "taps")
# How each mechanism splits a party's users across the trie levels.
_GROUPING_MODES = {"pem": "pem", "fedpem": "pem", "tap": "tap", "taps": "tap"}

_TAG_DATASET = 7

# The fields that build a dataset, which generate and truth take as flags.
_RECIPE_FIELDS = ("m", "pool_size", "n_groups", "dirichlet_beta", "scale", "root_seed")


@dataclass
class ExperimentConfig:
    """One experiment; a field's metadata are argparse keywords (help, choices) for its flag."""

    mechanism: str = field(default="taps", metadata={"choices": MECHANISMS})
    oracle: str = field(default="krr", metadata={"choices": oracles.KINDS})
    epsilon: tuple[float, ...] = field(default=(4.0,), metadata={"help": "comma list, e.g. 2,3,4"})
    k: tuple[int, ...] = field(default=(10,), metadata={"help": "comma list, e.g. 10,20"})
    m: int = 48
    g: int = 24
    g_s: int | None = None  # None: floor(0.25 g)
    dividing_ratio: float = 0.1
    phase1_user_fraction: float = 0.10
    fixed_t: int | None = None
    dataset: str = field(default="syn", metadata={"help": "'syn' or a manifest path"})
    pool_size: int = 33_000
    n_groups: int = 6
    dirichlet_beta: float = 0.5
    scale: float = 1.0
    repetitions: int = 50
    root_seed: int = 12345
    output: str | None = None
    threads: int = field(default=1, metadata={"help": "repetitions run at once on a thread pool of at most "
                                              "one thread per usable CPU; a pool of 1 runs in the calling thread"})
    ncr_quality: str = field(default="k-rank", metadata={"choices": ("k-rank", "k-rank+1")})

    def __post_init__(self):
        for f in fields(self):
            value, choices = getattr(self, f.name), f.metadata.get("choices")
            if choices is not None and value not in choices:
                raise ValueError(f"{f.name} must be one of {choices}, got {value!r}")
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
        # pem pools every user into one party.
        _check_recipe(self, pooled=self.mechanism == "pem")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")

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


# Field name -> resolved type, such as tuple[float, ...] or int | None.
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _check_recipe(recipe, pooled: bool = False) -> None:
    """Raise ValueError unless ``recipe``'s dataset fields can build a dataset.

    ``recipe`` is a config or parsed CLI arguments (see ``_syn_parties``);
    ``pooled`` bounds the parties' total rather than the largest party.
    """
    if recipe.dirichlet_beta <= 0:
        raise ValueError("dirichlet_beta must be positive")
    if not 1 <= recipe.n_groups <= recipe.pool_size:
        raise ValueError(f"need 1 <= n_groups <= pool_size, got {recipe.n_groups} and {recipe.pool_size}")
    if not 0 < recipe.scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {recipe.scale}")
    if recipe.dataset == "syn":
        if recipe.pool_size > 2**recipe.m:
            raise ValueError(f"a pool of {recipe.pool_size} items does not fit in m={recipe.m} bits")
        sizes = [spec.n_users for spec in _scaled_specs(recipe.scale)]
        largest = sum(sizes) if pooled else max(sizes)
        if largest >= PARTY_USERS_LIMIT:
            raise ValueError(
                f"scale {recipe.scale:g} gives a {'pooled ' if pooled else ''}party of {largest} users; "
                "parties must hold fewer than 10**9"
            )


@dataclass
class RunRecord:
    """One CSV row; a field's ``fmt`` metadata formats its column."""

    run_id: str
    mechanism: str
    oracle: str
    epsilon: float = field(metadata={"fmt": "g"})
    k: int
    f1: float = field(metadata={"fmt": ".6f"})
    ncr: float = field(metadata={"fmt": ".6f"})
    avg_local_recall: float = field(metadata={"fmt": ".6f"})
    uploaded_bytes: float = field(metadata={"fmt": "g"})
    wall_time_ms: float = field(metadata={"fmt": ".3f"})
    seed: int


CSV_HEADER = [f.name for f in fields(RunRecord)]
# A mean row averages every column except those that name a run and its (epsilon, k) point.
_MEAN_COLUMNS = [name for name in CSV_HEADER if name not in ("run_id", "mechanism", "oracle", "epsilon", "k", "seed")]


# ---------------------------------------------------------------------------
# config parsing


def _key_values(path: str):
    """Yield (key, value, "path:line") for each key=value line of a text file.

    Text after ``#`` is a comment, and blank lines are skipped.
    """
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line.rstrip()!r}")
            key, value = stripped.split("=", 1)
            yield key.strip(), value.strip(), f"{path}:{line_no}"


def parse_config_file(path: str) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    return {key: value for key, value, _ in _key_values(path)}


def _coerce(key: str, raw: str):
    """Parse one raw config value by the type of its ExperimentConfig field."""
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    if type(None) in typing.get_args(kind):  # optional: "none" or empty unsets it
        if raw.lower() in ("none", ""):
            return None
        kind = typing.get_args(kind)[0]
    try:
        if typing.get_origin(kind) is tuple:  # a comma list
            return tuple(typing.get_args(kind)[0](part) for part in raw.split(","))
        return kind(raw)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def build_config(file_values: dict[str, str] | None = None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Merge raw file values and CLI overrides (overrides win; None is unset) into a config."""
    merged = dict(file_values or {})
    merged.update((key, raw) for key, raw in (overrides or {}).items() if raw is not None)
    return ExperimentConfig(**{key: _coerce(key, raw) for key, raw in merged.items()})


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
    for key, value, where in _key_values(path):
        if key == "m":
            try:
                declared = int(value)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if declared != m:
                raise ValueError(f"{where}: manifest declares m={value} but the run uses m={m}")
        elif key == "vocabulary":
            vocab_path = value
        elif key == "party":
            party_paths.append(value)
        else:
            raise ValueError(f"{where}: unknown manifest key {key!r}")
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
    object with the ``_RECIPE_FIELDS``.
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
    mechanism: str,
    parties: list[PartyState],
    params: ProtocolParams,
    run_key: int,
    groups: dict[int, LevelGroups],
) -> RunResult:
    if mechanism == "tap":
        return run_tap(parties, params, run_key, groups)
    if mechanism == "taps":
        return run_taps(parties, params, run_key, groups)
    if mechanism == "fedpem":
        return run_fedpem(parties, params, run_key, groups)
    return run_pem_single(parties[0], params, run_key, groups)  # pem: the one pooled party


def _run_repetition(
    config: ExperimentConfig, manifest: list[PartyState] | None, repetition: int
) -> list[RunRecord]:
    """One repetition's records, one per (epsilon, k) job in config order.

    The repetition's dataset, pooled party (``pem``), exact top-max(k) and
    level groups are built before its jobs, so a job times its engine alone.
    """
    parties = manifest or _syn_parties(config, repetition)
    if config.mechanism == "pem":
        # The centralized baseline pools every user into one population.
        parties = [PartyState(0, *pool_counts(parties), parties[0].item_length)]
    truth = exact_topk(parties, max(config.k))
    if len(truth.codes) < max(config.k):
        raise ValueError(f"dataset holds only {len(truth.codes)} distinct items, need k={max(config.k)}")
    run_key = derive_key(config.root_seed, repetition)
    # Grouping reads neither epsilon nor k, so the first point's params serve every job.
    first = config.protocol_params(config.epsilon[0], config.k[0])
    groups = draw_groups(parties, first, run_key, _GROUPING_MODES[config.mechanism])
    records = []
    for epsilon, k in itertools.product(config.epsilon, config.k):
        params = config.protocol_params(epsilon, k)
        start = time.perf_counter()
        result = _execute(config.mechanism, parties, params, run_key, groups)
        wall_ms = (time.perf_counter() - start) * 1000.0
        truth_codes = truth.codes[:k].tolist()
        local_lists = [entries["prefix"][:k].tolist() for _, entries in result.uploads]
        # F1 and NCR score PrefixCode objects: perfbench's f1_score hook reads .bits and .length.
        scored_topk = [PrefixCode(code, params.m) for code in result.topk.tolist()]
        scored_truth = [PrefixCode(code, params.m) for code in truth_codes]
        records.append(RunRecord(
            run_id=f"{config.mechanism}-eps{epsilon:g}-k{k}-rep{repetition:03d}",
            mechanism=config.mechanism,
            oracle=config.oracle,
            epsilon=epsilon,
            k=k,
            f1=metrics.f1_score(scored_topk, scored_truth),
            ncr=metrics.ncr_score(scored_topk, scored_truth, k, quality=config.ncr_quality),
            avg_local_recall=metrics.avg_local_recall(local_lists, truth_codes, k),
            uploaded_bytes=result.uploaded_bytes,
            wall_time_ms=wall_ms,
            seed=run_key,
        ))
    return records


class InputError(ValueError):
    """A run's dataset or output path is unusable; raised before any job runs."""


def run_experiment(config: ExperimentConfig) -> list[RunRecord]:
    """All repetitions for every (epsilon, k) point, plus one mean row each.

    Returns the per-run records, by point and then repetition, followed by
    the mean rows; writes the CSV to ``config.output`` when set. An
    unreadable manifest, a missing output directory or an output path that
    names a directory raises :class:`InputError` before any job runs.
    """
    try:
        manifest = None if config.dataset == "syn" else _manifest_parties(config.dataset, config.m)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    if config.output and not Path(config.output).parent.is_dir():
        raise InputError(f"no directory to write {config.output} to")
    if config.output and Path(config.output).is_dir():
        raise InputError(f"{config.output} is a directory, not a file to write")
    task = functools.partial(_run_repetition, config, manifest)
    # No config value starts more threads than the process has CPUs to run them on.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(config.threads, config.repetitions, cpus)
    if workers == 1:
        # A pool thread would add only its start-up and its malloc arena (5-11% peak RSS).
        by_repetition = list(map(task, range(config.repetitions)))
    else:
        from concurrent.futures import ThreadPoolExecutor  # imported here: a serial run never needs it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            by_repetition = list(pool.map(task, range(config.repetitions)))
    by_point = list(zip(*by_repetition))  # each point's records, in repetition order
    records = [record for runs in by_point for record in runs]
    for runs in by_point:
        means = {name: float(np.mean([getattr(r, name) for r in runs])) for name in _MEAN_COLUMNS}
        run_id = f"{config.mechanism}-eps{runs[0].epsilon:g}-k{runs[0].k}-mean"
        records.append(replace(runs[0], run_id=run_id, seed=config.root_seed, **means))
    if config.output:
        write_csv(records, config.output)
    return records


def write_csv(records: list[RunRecord], path: str) -> None:
    Path(path).write_text(records_to_csv(records), encoding="utf-8", newline="")


def records_to_csv(records: list[RunRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for record in records:
        writer.writerow(format(getattr(record, f.name), f.metadata.get("fmt", "")) for f in fields(record))
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# CLI

def _add_field_flags(parser: argparse.ArgumentParser, names: tuple[str, ...] | None = None, typed: bool = False) -> None:
    """Add a --flag for each ExperimentConfig field (or each in ``names``).

    Untyped flags keep the raw string, for ``build_config`` to merge over a
    config file; typed flags parse to the field's type and default.
    """
    for f in fields(ExperimentConfig):
        if names is None or f.name in names:
            typing_kw = {"type": _FIELD_TYPES[f.name], "default": f.default} if typed else {}
            parser.add_argument("--" + f.name.replace("_", "-"), **f.metadata, **typing_kw)


def _cmd_run(args, parser: argparse.ArgumentParser) -> int:
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        config = build_config(file_values, {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)})
    except (OSError, ValueError) as exc:  # an unreadable or bad config is a usage error
        parser.error(str(exc))
    try:
        records = run_experiment(config)
    except InputError as exc:  # only the dataset and output checks; job errors propagate
        parser.error(str(exc))
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


def _cmd_generate(args, parser: argparse.ArgumentParser) -> int:
    out = Path(args.out)
    try:
        # Checked before the build, so a bad --out writes nothing.
        if any(path.exists() and not path.is_dir() for path in (out, *out.parents)):
            raise ValueError(f"{out} is a file or lies under one, not a directory to write to")
        _check_recipe(args)
        parties = _syn_parties(args, 0)
    except ValueError as exc:
        parser.error(str(exc))
    out.mkdir(parents=True, exist_ok=True)
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


def _cmd_truth(args, parser: argparse.ArgumentParser) -> int:
    # Each step checks or reads the command's input, so any failure is a usage error.
    try:
        _check_recipe(args)
        if args.dataset == "syn":
            parties = _syn_parties(args, args.repetition)
        else:
            parties = _manifest_parties(args.dataset, args.m)
        truth = exact_topk(parties, args.k)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    for rank, (code, freq) in enumerate(zip(truth.codes.tolist(), truth.frequencies.tolist()), start=1):
        print(f"{rank:3d} {code:0{args.m}b} {freq:.6f}")
    return 0


def _cmd_oracle_bench(args, parser: argparse.ArgumentParser) -> int:
    kinds = oracles.KINDS if args.oracle == "all" else (args.oracle,)
    try:
        if args.trials < 2:  # the empirical variance takes ddof=1
            raise ValueError(f"trials must be at least 2, got {args.trials}")
        configs = [oracles.OracleConfig(kind, args.epsilon, args.domain_size) for kind in kinds]
        theory = [oracles.variance(config, args.n) for config in configs]
    except ValueError as exc:
        parser.error(str(exc))
    rng = np.random.default_rng(args.seed)
    domain = np.arange(args.domain_size)
    print(f"n={args.n} domain={args.domain_size} epsilon={args.epsilon:g} trials={args.trials}")
    print(f"{'oracle':<6} {'mean |bias|':>12} {'max |bias|':>12} {'emp var':>12} {'theory var':>12} {'ratio':>8}")
    for config, theory_var in zip(configs, theory):
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
        print(
            f"{config.kind:<6} {np.abs(bias).mean():12.3e} {np.abs(bias).max():12.3e} "
            f"{emp_var:12.3e} {theory_var:12.3e} {emp_var / theory_var:8.3f}"
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
    _add_field_flags(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    gen_parser = sub.add_parser("generate", help="emit a synthetic dataset plus manifest")
    gen_parser.add_argument("--out", required=True)
    _add_field_flags(gen_parser, _RECIPE_FIELDS, typed=True)
    gen_parser.set_defaults(func=_cmd_generate, dataset="syn")  # _check_recipe reads dataset

    truth_parser = sub.add_parser("truth", help="print the exact population top-k")
    _add_field_flags(truth_parser, _RECIPE_FIELDS + ("dataset",), typed=True)
    truth_parser.add_argument("--k", type=int, default=10)
    truth_parser.add_argument("--repetition", type=int, default=0)
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
    return args.func(args, sub.choices[args.command])  # usage errors name the subcommand


if __name__ == "__main__":
    sys.exit(main())
