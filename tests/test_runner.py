"""Experiment configuration, execution records, cost accounting, CLI."""

from dataclasses import fields, replace

import concurrent.futures
import functools
import hashlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhh import oracles, protocol, runner
from fedhh.datagen import PartySpec, generate_syn
from fedhh.protocol import PartyState, ProtocolParams, draw_groups, run_fedpem
from fedhh.pruning import active_levels, run_tap, run_taps
from fedhh.runner import (
    CSV_HEADER,
    MECHANISMS,
    ExperimentConfig,
    _dataset_rng,
    _scaled_specs,
    build_config,
    load_manifest,
    main,
    parse_config_file,
    records_to_csv,
    run_experiment,
    write_csv,
)
from results import as_lists


def _strip_wall_time(csv_text: str) -> list[list[str]]:
    col = CSV_HEADER.index("wall_time_ms")
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    return [row[:col] + row[col + 1 :] for row in rows]


# ---------------------------------------------------------------------------
# config file parsing


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment line\n"
        "mechanism = tap\n"
        "\n"
        "epsilon=2,3,4  # trailing comment\n"
        "k = 10\n",
        encoding="utf-8",
    )
    assert parse_config_file(str(path)) == {
        "mechanism": "tap",
        "epsilon": "2,3,4",
        "k": "10",
    }


def test_parse_config_file_rejects_malformed_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("mechanism tap\n", encoding="utf-8")
    with pytest.raises(ValueError, match="exp.cfg:1"):
        parse_config_file(str(path))


def test_build_config_coercion_and_precedence():
    config = build_config(
        {"epsilon": "2,3", "k": "5,10", "g_s": "none", "scale": "0.5"},
        {"epsilon": "4", "threads": "2"},
    )
    assert config.epsilon == (4.0,)  # override wins
    assert config.k == (5, 10)
    assert config.g_s is None
    assert config.scale == 0.5
    assert config.threads == 2


def test_build_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        build_config({"colour": "blue"})


@pytest.mark.parametrize(
    "kw",
    [
        dict(mechanism="hybrid"),
        dict(epsilon=()),
        dict(epsilon=(0.0,)),
        dict(k=(1,)),
        dict(repetitions=0),
        dict(threads=0),
        dict(scale=0.0),
        dict(ncr_quality="ranked"),
        dict(epsilon=(4.0, float("nan"))),
        dict(epsilon=(800.0,)),
        dict(g=2, g_s=5),
        dict(m=100),
        dict(m=64, g=2),  # 2**32 first-level prefixes
        dict(m=4, g=8),  # more levels than bits
        dict(fixed_t=0),
        dict(phase1_user_fraction=1.5),
        dict(dirichlet_beta=0.0),
        dict(pool_size=3, n_groups=6),
        dict(n_groups=0),
        dict(m=8),  # the default 33,000-item pool does not fit in 8 bits
        dict(epsilon=(2.0, 2.0)),  # repeats would share run ids
        dict(k=(5, 10, 5)),
        dict(scale=float("nan")),
        dict(scale=float("inf")),
        dict(scale=4546),  # the largest party would hold 10**9 users or more
        dict(mechanism="pem", scale=1283),  # so would pem's pooled party
        dict(m=40, g=2, k=(2, 10)),  # k=10 widens level 2 to 20 * 2**20 candidates
        # Integer fields take integers: a float is rejected, not truncated.
        dict(k=(10.7,)),
        dict(pool_size=33000.5),
        dict(repetitions=1.5),
        dict(threads=2.5),
        dict(m=48.5),
        dict(g=24.0),
        dict(fixed_t=20.5),
        dict(g_s=1.5),
        dict(m=None),
        # Float fields take real numbers: a string or None is rejected, not parsed.
        dict(dividing_ratio="0.1"),
        dict(phase1_user_fraction="0.1"),
        dict(scale="1"),
        dict(dirichlet_beta=None),
        dict(epsilon=(2.0, "4")),
        dict(epsilon="4"),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        ExperimentConfig(**kw)


def test_config_integer_fields_take_numpy_integers_and_name_a_float():
    config = ExperimentConfig(k=(np.int64(10),), m=np.int64(48), g_s=np.int32(6), threads=np.uint8(1))
    assert config.k == (10,) and config.m == 48 and config.g_s == 6
    with pytest.raises(ValueError, match=r"k takes integers only, got \(10\.7,\)"):
        ExperimentConfig(k=(10.7,))


def test_config_accepts_the_largest_scales():
    assert ExperimentConfig(scale=4545).scale == 4545  # 999,900,000 users in the largest party
    assert ExperimentConfig(mechanism="pem", scale=1282).scale == 1282  # 999,960,000 pooled
    assert ExperimentConfig(dataset="data/manifest.txt", scale=1e6).scale == 1e6  # files set sizes


# Each field draws from a few values, the first valid (Hypothesis shrinks
# towards it) and the last often invalid, so both outcomes occur often.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    mechanism=st.sampled_from(MECHANISMS),
    oracle=st.sampled_from(oracles.KINDS),
    epsilon=st.lists(st.sampled_from([4.0, 0.5, 50.0]), min_size=1, max_size=2, unique=True),
    k=st.lists(st.sampled_from([5, 2, 10, 1]), min_size=1, max_size=2, unique=True),
    m=st.sampled_from([10, 6, 12, 3, 0]),
    g=st.sampled_from([4, 2, 6, 12, 1]),
    g_s=st.none() | st.sampled_from([1, 2, 4, 0]),
    fixed_t=st.none() | st.sampled_from([3, 1, 12, 0]),
    phase1_user_fraction=st.sampled_from([0.1, 0.002, 0.3, 0.99, 1.5]),
    scale=st.sampled_from([0.002, 0.0002]),
    dividing_ratio=st.sampled_from([0.1, 0.0, 0.2, 0.49, 0.5]),
    pool_size=st.sampled_from([200, 1, 12, 5000]),
    n_groups=st.sampled_from([3, 1, 6, 0]),
    dirichlet_beta=st.sampled_from([0.5, 1e-3, 10.0, 0.0]),
)
def test_every_config_is_rejected_or_runs(**fields):
    """Construction raises ValueError, or every job of the config runs.

    The one run-time failure allowed is data-dependent: the drawn dataset
    holding fewer than k distinct items.
    """
    try:
        config = ExperimentConfig(repetitions=1, root_seed=5, **fields)
    except ValueError:
        return
    try:
        records = run_experiment(config)
    except ValueError as exc:
        assert "distinct items" in str(exc)
        return
    assert len(records) == 2 * len(config.epsilon) * len(config.k)


def test_config_scalar_epsilon_and_k_are_promoted():
    config = ExperimentConfig(epsilon=2, k=5)
    assert config.epsilon == (2.0,)
    assert config.k == (5,)
    assert ExperimentConfig(epsilon=np.float32(2.0), k=np.int64(5)).epsilon == (2.0,)


def test_g_s_resolution():
    assert ExperimentConfig().g_s_resolved == 6  # floor(0.25 * 24)
    assert ExperimentConfig(g=10, m=20).g_s_resolved == 2
    assert ExperimentConfig(g=2, m=4, pool_size=16).g_s_resolved == 1
    assert ExperimentConfig(g_s=3).g_s_resolved == 3


def test_protocol_params_carry_config_fields():
    config = ExperimentConfig(oracle="oue", dividing_ratio=0.2, fixed_t=7)
    params = config.protocol_params(3.0, 12)
    assert isinstance(params, ProtocolParams)
    assert (params.oracle, params.epsilon, params.k) == ("oue", 3.0, 12)
    assert params.dividing_ratio == 0.2
    assert params.fixed_t == 7
    assert params.g_s == 6


# ---------------------------------------------------------------------------
# dataset helpers


def test_scaled_specs_round_and_floor_at_one():
    scaled = _scaled_specs(0.001)
    assert [s.n_users for s in scaled] == [220, 170, 120, 80, 70, 60, 30, 30]
    tiny = _scaled_specs(1e-9)
    assert all(s.n_users == 1 for s in tiny)


def test_dataset_rng_is_keyed_by_seed_and_repetition():
    a = _dataset_rng(42, 0).integers(0, 2**63, size=4)
    b = _dataset_rng(42, 0).integers(0, 2**63, size=4)
    c = _dataset_rng(42, 1).integers(0, 2**63, size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# experiment execution


def _small_config(**kw):
    base = dict(
        mechanism="taps",
        epsilon=(2.0,),
        k=(10,),
        scale=0.01,
        repetitions=2,
        root_seed=99,
        threads=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_emits_runs_and_mean_rows():
    records = run_experiment(_small_config())
    assert len(records) == 3
    assert records[0].run_id == "taps-eps2-k10-rep000"
    assert records[-1].run_id.endswith("-mean")
    assert records[-1].f1 == pytest.approx(np.mean([r.f1 for r in records[:2]]), abs=1e-12)
    assert records[-1].uploaded_bytes == pytest.approx(
        np.mean([r.uploaded_bytes for r in records[:2]]), abs=1e-9
    )
    assert records[-1].seed == 99
    # Every column but those naming the run and its point is averaged.
    for f in fields(records[-1]):
        values = [getattr(r, f.name) for r in records[:2]]
        if f.name in ("mechanism", "oracle", "epsilon", "k"):
            assert getattr(records[-1], f.name) == values[0]
        elif f.name not in ("run_id", "seed"):
            assert getattr(records[-1], f.name) == pytest.approx(np.mean(values), abs=1e-9), f.name


def test_run_experiment_is_reproducible_modulo_wall_time():
    first = records_to_csv(run_experiment(_small_config()))
    second = records_to_csv(run_experiment(_small_config()))
    assert _strip_wall_time(first) == _strip_wall_time(second)


def test_run_experiment_thread_count_does_not_change_results():
    serial = records_to_csv(run_experiment(_small_config(repetitions=3, threads=1)))
    for threads in (2, 5):  # 5: more threads than repetitions
        threaded = records_to_csv(run_experiment(_small_config(repetitions=3, threads=threads)))
        assert _strip_wall_time(serial) == _strip_wall_time(threaded)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_run_repetition_rows_match_on_a_four_thread_pool(mechanism):
    """Repetitions mapped over a pool the test builds itself, so the check
    does not depend on how many CPUs run_experiment may use here."""
    config = _small_config(mechanism=mechanism, repetitions=4)
    task = functools.partial(runner._run_repetition, config, None)
    serial = list(map(task, range(config.repetitions)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside engine steps
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(task, range(config.repetitions), timeout=120))
    finally:
        sys.setswitchinterval(interval)

    def rows(by_repetition):
        return [[replace(r, wall_time_ms=0.0) for r in records] for records in by_repetition]

    assert rows(threaded) == rows(serial)


@pytest.mark.parametrize("mechanism", runner.MECHANISMS)
def test_one_repetition_run_imports_neither_numpy_ma_nor_concurrent_futures(mechanism):
    """A serial run loads no module it does not use. fixed_t=20 makes packages
    travel and prune at this scale, so the membership test runs for taps;
    pem pools its parties, whose np.unique must not load numpy.ma either."""
    code = (
        "import sys\n"
        "from fedhh.runner import ExperimentConfig, run_experiment\n"
        f"run_experiment(ExperimentConfig(mechanism={mechanism!r}, oracle='krr', scale=0.01,"
        " repetitions=1, fixed_t=20))\n"
        "print(sorted(m for m in ('numpy.ma', 'concurrent.futures') if m in sys.modules))\n"
    )
    src = str(Path(runner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert child.stdout.strip() == "[]"


def test_run_experiment_runs_one_repetition_in_the_calling_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-repetition sweep built a thread pool")

    expected = _strip_wall_time(records_to_csv(run_experiment(_small_config(repetitions=1))))
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    records = run_experiment(_small_config(repetitions=1, threads=4))
    assert _strip_wall_time(records_to_csv(records)) == expected


def test_run_experiment_starts_no_more_threads_than_usable_cpus(monkeypatch):
    pools, real_pool = [], concurrent.futures.ThreadPoolExecutor

    def spy(*args, **kwargs):
        pools.append(kwargs)
        return real_pool(*args, **kwargs)

    expected = _strip_wall_time(records_to_csv(run_experiment(_small_config(repetitions=3))))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
    records = run_experiment(_small_config(repetitions=3, threads=4))
    assert pools == []
    assert _strip_wall_time(records_to_csv(records)) == expected


def test_run_experiment_builds_each_dataset_once(monkeypatch):
    built, truths = [], []
    real_generate, real_truth = runner.generate_syn, runner.exact_topk

    def generate(*args, **kwargs):
        built.append(1)
        return real_generate(*args, **kwargs)

    def truth(parties, k):
        truths.append(k)
        return real_truth(parties, k)

    monkeypatch.setattr(runner, "generate_syn", generate)
    monkeypatch.setattr(runner, "exact_topk", truth)
    for threads in (1, 2):
        built.clear()
        truths.clear()
        records = run_experiment(
            _small_config(epsilon=(2.0, 4.0), k=(5, 10), repetitions=3, threads=threads)
        )
        assert len(built) == 3 and truths == [10, 10, 10]
        assert [r.run_id for r in records[:6]] == [
            f"taps-eps2-k5-rep{rep:03d}" for rep in range(3)
        ] + [f"taps-eps2-k10-rep{rep:03d}" for rep in range(3)]
        assert [r.run_id for r in records[-4:]] == [
            "taps-eps2-k5-mean", "taps-eps2-k10-mean", "taps-eps4-k5-mean", "taps-eps4-k10-mean"
        ]


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_run_experiment_draws_each_repetitions_groups_once(mechanism, monkeypatch):
    """Every (epsilon, k) job of a repetition shares one draw of its groups."""
    drawn = []
    real_assign = protocol.assign_groups

    def assign(party, *args, **kwargs):
        drawn.append(party.party_id)
        return real_assign(party, *args, **kwargs)

    monkeypatch.setattr(protocol, "assign_groups", assign)
    run_experiment(_small_config(mechanism=mechanism, epsilon=(2.0, 4.0), k=(5, 10), repetitions=2))
    parties = 1 if mechanism == "pem" else len(_scaled_specs(0.01))
    assert sorted(drawn) == sorted(list(range(parties)) * 2)


def test_job_wall_time_excludes_the_group_draw(monkeypatch):
    """A repetition draws its groups before any job starts its clock."""
    real_draw = runner.draw_groups

    def slow_draw(*args, **kwargs):
        time.sleep(0.5)
        return real_draw(*args, **kwargs)

    monkeypatch.setattr(runner, "draw_groups", slow_draw)
    records = run_experiment(_small_config(epsilon=(2.0, 4.0), repetitions=1))
    assert len(records) == 4 and max(r.wall_time_ms for r in records) < 500


def test_run_experiment_sweeps_epsilon_k_grid():
    records = run_experiment(_small_config(epsilon=(2.0, 4.0), k=(5, 10), repetitions=1))
    run_rows = [r for r in records if not r.run_id.endswith("-mean")]
    mean_rows = [r for r in records if r.run_id.endswith("-mean")]
    assert len(run_rows) == 4
    assert len(mean_rows) == 4
    assert {(r.epsilon, r.k) for r in run_rows} == {(2.0, 5), (2.0, 10), (4.0, 5), (4.0, 10)}


# sha256 of one mechanism's CSV rows without wall_time_ms, over krr, oue and
# olh at eps 2,4, k 5, scale 0.01 and 2 repetitions. A change meant to keep
# every output leaves these as they are; a change that alters a mechanism's
# outputs on purpose updates its digest and says why.
_OUTPUT_DIGESTS = {
    "pem": "055386254a82af547348d2c1680f9f4321fe3c01c343b1ea291782090e50088c",
    "fedpem": "3401f62771a84f74bcfc6aaab662959bfeabc5d127d1bb877e8f633dc8dd993e",
    "tap": "553ed6e139412283ffd0690a228602e31296111b56bc2428bcd47fd6b4033748",
    "taps": "b51b06a7e56393cbcd2a39f806ef39430ea62f3850191128bf04d579148baa80",
}


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_run_experiment_outputs_match_recorded_digests(mechanism):
    digest = hashlib.sha256()
    for oracle in oracles.KINDS:
        config = ExperimentConfig(
            mechanism=mechanism, oracle=oracle, epsilon=(2.0, 4.0), k=(5,), scale=0.01, repetitions=2
        )
        for row in _strip_wall_time(records_to_csv(run_experiment(config))):
            digest.update((",".join(row) + "\n").encode())
    assert digest.hexdigest() == _OUTPUT_DIGESTS[mechanism]


def test_pem_equals_fedpem_on_a_single_party(tmp_path):
    """The centralized baseline pools users; with one party both baselines
    run the identical key schedule and must produce identical quality."""
    out = tmp_path / "data"
    assert main([
        "generate", "--out", str(out), "--pool-size", "400", "--n-groups", "3",
        "--scale", "0.0005", "--m", "16", "--root-seed", "5",
    ]) == 0
    manifest = out / "manifest.txt"
    single = out / "single.txt"
    # keep only the first party line
    lines = [l for l in manifest.read_text().splitlines() if not l.startswith("party=")]
    lines.append("party=party0.txt")
    single.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def run(mechanism):
        config = ExperimentConfig(
            mechanism=mechanism, dataset=str(single), m=16, g=8, epsilon=(4.0,),
            k=(5,), repetitions=1, root_seed=77,
        )
        return run_experiment(config)[0]

    pem, fedpem = run("pem"), run("fedpem")
    assert pem.f1 == fedpem.f1
    assert pem.ncr == fedpem.ncr
    assert pem.avg_local_recall == fedpem.avg_local_recall
    assert pem.uploaded_bytes == fedpem.uploaded_bytes


def test_run_rejects_k_beyond_distinct_items(tmp_path):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("a\nb\nc\n", encoding="utf-8")
    party = tmp_path / "party0.txt"
    party.write_text("a\nb\na\n" * 20, encoding="utf-8")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("m=8\nvocabulary=vocab.txt\nparty=party0.txt\n", encoding="utf-8")
    config = ExperimentConfig(
        mechanism="fedpem", dataset=str(manifest), m=8, g=4, epsilon=(4.0,),
        k=(10,), repetitions=1,
    )
    with pytest.raises(ValueError, match="distinct items"):
        run_experiment(config)


def test_run_rejects_a_k_the_dataset_cannot_serve_before_any_engine_runs(monkeypatch):
    calls = []
    real_taps = runner.run_taps

    def taps(*args):
        calls.append(1)
        return real_taps(*args)

    monkeypatch.setattr(runner, "run_taps", taps)
    config = ExperimentConfig(mechanism="taps", epsilon=(2.0,), k=(5, 100000), scale=0.01, repetitions=1)
    with pytest.raises(ValueError, match="dataset holds only .* distinct items"):
        run_experiment(config)
    assert calls == []


# ---------------------------------------------------------------------------
# manifest loading


def test_load_manifest_round_trip(tmp_path):
    out = tmp_path / "data"
    assert main([
        "generate", "--out", str(out), "--pool-size", "500", "--n-groups", "3",
        "--scale", "0.001", "--m", "16", "--root-seed", "12345",
    ]) == 0
    histograms = load_manifest(str(out / "manifest.txt"), 16)
    regenerated = generate_syn(
        _scaled_specs(0.001), 500, 3, _dataset_rng(12345, 0), m=16, dirichlet_beta=0.5
    )
    assert len(histograms) == 8
    for (codes, counts), party in zip(histograms, regenerated):
        assert np.array_equal(codes, party.codes)
        assert np.array_equal(counts, party.counts)


def test_load_manifest_errors(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("m=16\nparty=party0.txt\n", encoding="utf-8")
    with pytest.raises(ValueError, match="vocabulary"):
        load_manifest(str(path), 16)
    path.write_text("m=16\nvocabulary=vocab.txt\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no parties"):
        load_manifest(str(path), 16)
    path.write_text("m=32\nvocabulary=v\nparty=p\n", encoding="utf-8")
    with pytest.raises(ValueError, match="m=32"):
        load_manifest(str(path), 16)
    path.write_text("mm=1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown manifest key"):
        load_manifest(str(path), 16)
    # A repeated key is an error, not the last line's value.
    path.write_text("m=16\nvocabulary=v1.txt\nvocabulary=v2.txt\nparty=p\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: repeated manifest key 'vocabulary'")):
        load_manifest(str(path), 16)
    path.write_text("m=16\nvocabulary=v\nm=16\nparty=p\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: repeated manifest key 'm'")):
        load_manifest(str(path), 16)


# ---------------------------------------------------------------------------
# cost accounting


def _run(engine, parties, params, run_key, mode):
    """Run ``engine`` on the level groups drawn for ``parties`` in ``mode``,
    as the runner draws them."""
    return engine(parties, params, run_key, draw_groups(parties, params, run_key, mode))


def test_fedpem_upload_cost_two_parties():
    # Two parties x ten pairs x sixteen bytes.
    items = np.tile(np.arange(16), 125).astype(np.uint64)
    parties = [PartyState(i, *np.unique(items, return_counts=True), 6) for i in range(2)]
    params = ProtocolParams(m=6, g=3, g_s=1, k=10, epsilon=20.0)
    result = _run(run_fedpem, parties, params, 12, "pem")
    assert result.report_pairs == 20
    assert result.package_pairs == 0
    assert result.uploaded_bytes == 320


def _taps_parties():
    specs = [PartySpec(3000, "zipf", 1.5), PartySpec(2000, "poisson", 6.0), PartySpec(1000, "zipf", 1.3)]
    return generate_syn(specs, 600, 3, np.random.default_rng(4), m=16)


def test_taps_package_bytes_stay_under_the_cap():
    # Packages cost at most active levels x parties x 4k pairs, 16 bytes each.
    params = ProtocolParams(m=16, g=8, g_s=2, k=2, epsilon=4.0)
    parties = _taps_parties()
    result = _run(run_taps, parties, params, 3, "tap")
    cap = len(active_levels(params)) * len(parties) * 4 * params.k * 16
    assert 0 < result.package_pairs * 16 <= cap


def test_taps_with_zero_dividing_ratio_is_tap():
    # No validation budget, no packages: taps costs exactly what tap costs.
    params = ProtocolParams(m=16, g=8, g_s=2, k=2, epsilon=4.0, dividing_ratio=0.0)
    pruned = _run(run_taps, _taps_parties(), params, 3, "tap")
    plain = _run(run_tap, _taps_parties(), params, 3, "tap")
    assert pruned.package_pairs == 0
    assert pruned.uploaded_bytes == plain.uploaded_bytes
    # tap is taps without the exchange, so the ratio it is given changes nothing.
    assert as_lists(pruned) == as_lists(plain)
    assert as_lists(_run(run_tap, _taps_parties(), replace(params, dividing_ratio=0.3), 3, "tap")) == as_lists(plain)


def test_uploaded_bytes_count_phase_one_and_package_pairs():
    result = _run(run_taps, _taps_parties(), ProtocolParams(m=16, g=8, g_s=2, k=2, epsilon=4.0), 3, "tap")
    final_pairs = sum(len(entries) for _, entries in result.uploads)
    assert result.report_pairs > final_pairs  # phase I reports count too
    assert result.uploaded_bytes == 16 * (result.report_pairs + result.package_pairs)


# ---------------------------------------------------------------------------
# CSV output


def test_csv_header_is_stable():
    assert CSV_HEADER == [
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


def test_write_csv_matches_records_to_csv(tmp_path):
    records = run_experiment(_small_config(repetitions=1))
    path = tmp_path / "out.csv"
    write_csv(records, str(path))
    assert path.read_text(encoding="utf-8") == records_to_csv(records)
    first_line = path.read_text(encoding="utf-8").splitlines()[0]
    assert first_line == ",".join(CSV_HEADER)


# ---------------------------------------------------------------------------
# CLI


def test_cli_generate_truth_run_round_trip(tmp_path, capsys):
    out = tmp_path / "data"
    assert main([
        "generate", "--out", str(out), "--pool-size", "400", "--n-groups", "3",
        "--scale", "0.001", "--m", "16", "--root-seed", "21",
    ]) == 0
    assert (out / "manifest.txt").exists()
    assert (out / "vocabulary.txt").exists()
    assert main(["truth", "--dataset", str(out / "manifest.txt"), "--m", "16", "--k", "5"]) == 0
    captured = capsys.readouterr().out
    truth_lines = [l for l in captured.splitlines() if l.strip() and l.lstrip()[0].isdigit()]
    assert len(truth_lines) == 5

    csv_path = tmp_path / "result.csv"
    assert main([
        "run", "--dataset", str(out / "manifest.txt"), "--m", "16", "--g", "8",
        "--mechanism", "fedpem", "--epsilon", "4", "--k", "5",
        "--repetitions", "1", "--root-seed", "3", "--output", str(csv_path),
    ]) == 0
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3  # one run plus the mean row


def test_cli_run_without_output_prints_csv(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "mechanism=tap\nepsilon=2\nk=5\nscale=0.005\nrepetitions=1\nroot_seed=17\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(CSV_HEADER)
    assert "tap-eps2-k5-rep000" in out


def test_cli_oracle_bench_smoke(capsys):
    assert main([
        "oracle-bench", "--oracle", "krr", "--n", "2000", "--domain-size", "8",
        "--trials", "3", "--epsilon", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "krr" in out
    assert "theory var" in out


def test_cli_config_error_is_a_usage_error(capsys):
    # g=2 at m=48 puts 20 * 2**24 candidates on a level: argparse reports it
    # in one error line and exits 2, with no traceback.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--m", "48", "--g", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "fedhh run: error: a level can hold 20 * 2**24 candidates" in err
    assert "Traceback" not in err


def test_cli_unreadable_config_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(missing)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"fedhh run: error: [Errno 2] No such file or directory: '{missing}'" in err
    assert "Traceback" not in err


# (argv, how the error line starts after "fedhh <command>: error: ")
_BAD_INPUT = [
    (["truth", "--m", "8"], "a pool of 33000 items does not fit in m=8 bits"),
    (["truth", "--n-groups", "0"], "need 1 <= n_groups <= pool_size"),
    (["truth", "--k", "0"], "k must be positive"),
    (["truth", "--dirichlet-beta", "0"], "dirichlet_beta must be positive"),
    (["truth", "--scale", "0"], "scale must be positive and finite"),
    (["truth", "--dataset", "/nonexistent/manifest.txt"], "[Errno 2] No such file or directory"),
    # fewer items than groups
    (["generate", "--out", "unused", "--pool-size", "3"], "need 1 <= n_groups <= pool_size"),
    # codes hold at most 64 bits
    (["generate", "--out", "unused", "--m", "100", "--scale", "0.01"], "item_length must be in [1, 64]"),
    (["oracle-bench", "--domain-size", "1"], "domain size must be at least 2"),
    (["oracle-bench", "--epsilon", "0"], "epsilon must lie in"),
    (["oracle-bench", "--trials", "1"], "trials must be at least 2"),  # the empirical variance needs two
    # A malformed number names its setting: the key, or the manifest's file line.
    (["run", "--repetitions", "abc"], "repetitions: invalid literal for int() with base 10: 'abc'"),
    (["run", "--config", "bad.cfg"], "k: invalid literal for int() with base 10: '1O'"),
    (["truth", "--dataset", "bad_manifest.txt"], "bad_manifest.txt:1: invalid literal for int() with base 10: '4x'"),
    # A bad manifest or output directory is rejected before any job runs.
    (["run", "--dataset", "/nonexistent/m.txt"], "[Errno 2] No such file or directory"),
    (["run", "--dataset", "bad_manifest.txt"], "bad_manifest.txt:1: invalid literal for int() with base 10: '4x'"),
    (["run", "--output", "unused/out.csv", "--scale", "0.01", "--repetitions", "1"], "no directory to write unused/out.csv to"),
    (["run", "--output", ".", "--scale", "0.01", "--repetitions", "1"], ". is a directory, not a file to write"),
    (["generate", "--out", "bad.cfg", "--scale", "0.001"], "bad.cfg is a file or lies under one, not a directory to write to"),
]


@pytest.mark.parametrize("argv, text", _BAD_INPUT, ids=[f"argv{i}" for i in range(len(_BAD_INPUT))])
def test_cli_bad_input_is_a_usage_error(argv, text, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("k=1O\n", encoding="utf-8")
    (tmp_path / "bad_manifest.txt").write_text("m=4x\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"fedhh {argv[0]}: error: {text}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "unused").exists()


# One valid value per ExperimentConfig field, none of them its default.
_EVERY_FIELD = {
    "mechanism": "tap",
    "oracle": "oue",
    "epsilon": "2,3",
    "k": "5,8",
    "m": "40",
    "g": "20",
    "g_s": "4",
    "dividing_ratio": "0.2",
    "phase1_user_fraction": "0.2",
    "fixed_t": "12",
    "dataset": "data/manifest.txt",
    "pool_size": "1000",
    "n_groups": "4",
    "dirichlet_beta": "0.7",
    "scale": "0.5",
    "repetitions": "3",
    "root_seed": "7",
    "output": "out.csv",
    "threads": "2",
    "ncr_quality": "k-rank+1",
}


def test_cli_flags_and_config_file_give_the_same_config(tmp_path, monkeypatch, capsys):
    assert set(_EVERY_FIELD) == {f.name for f in fields(ExperimentConfig)}
    configs = []
    monkeypatch.setattr(runner, "run_experiment", lambda config: configs.append(config) or [])
    cfg = tmp_path / "every.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in _EVERY_FIELD.items()), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 0
    flags = [part for key, value in _EVERY_FIELD.items() for part in (f"--{key.replace('_', '-')}", value)]
    assert main(["run", *flags]) == 0
    from_file, from_flags = configs
    assert from_file == from_flags
    for f in fields(ExperimentConfig):
        assert getattr(from_file, f.name) != f.default, f.name

    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    assert listed == {"--help", "--config"} | {f"--{f.name.replace('_', '-')}" for f in fields(ExperimentConfig)}
