"""Experiment configuration, execution records, cost accounting, CLI."""

import numpy as np
import pytest

from fedhh.datagen import PartySpec, generate_syn
from fedhh.protocol import PartyState, ProtocolParams, UploadTrace, run_fedpem
from fedhh.runner import (
    CSV_HEADER,
    ExperimentConfig,
    _dataset_rng,
    _scaled_specs,
    account_costs,
    build_config,
    load_manifest,
    main,
    parse_config_file,
    records_to_csv,
    run_experiment,
    write_csv,
)


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
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        ExperimentConfig(**kw)


def test_config_scalar_epsilon_and_k_are_promoted():
    config = ExperimentConfig(epsilon=2, k=5)
    assert config.epsilon == (2.0,)
    assert config.k == (5,)


def test_g_s_resolution():
    assert ExperimentConfig().g_s_resolved == 6  # floor(0.25 * 24)
    assert ExperimentConfig(g=10, m=20).g_s_resolved == 2
    assert ExperimentConfig(g=2, m=4).g_s_resolved == 1
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


def test_run_experiment_is_reproducible_modulo_wall_time():
    first = records_to_csv(run_experiment(_small_config()))
    second = records_to_csv(run_experiment(_small_config()))
    assert _strip_wall_time(first) == _strip_wall_time(second)


def test_run_experiment_thread_count_does_not_change_results():
    serial = records_to_csv(run_experiment(_small_config(repetitions=3, threads=1)))
    threaded = records_to_csv(run_experiment(_small_config(repetitions=3, threads=2)))
    assert _strip_wall_time(serial) == _strip_wall_time(threaded)


def test_run_experiment_sweeps_epsilon_k_grid():
    records = run_experiment(_small_config(epsilon=(2.0, 4.0), k=(5, 10), repetitions=1))
    run_rows = [r for r in records if not r.run_id.endswith("-mean")]
    mean_rows = [r for r in records if r.run_id.endswith("-mean")]
    assert len(run_rows) == 4
    assert len(mean_rows) == 4
    assert {(r.epsilon, r.k) for r in run_rows} == {(2.0, 5), (2.0, 10), (4.0, 5), (4.0, 10)}


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


# ---------------------------------------------------------------------------
# manifest loading


def test_load_manifest_round_trip(tmp_path):
    out = tmp_path / "data"
    assert main([
        "generate", "--out", str(out), "--pool-size", "500", "--n-groups", "3",
        "--scale", "0.001", "--m", "16", "--root-seed", "12345",
    ]) == 0
    arrays = load_manifest(str(out / "manifest.txt"), 16)
    regenerated = generate_syn(
        _scaled_specs(0.001), 500, 3, _dataset_rng(12345, 0), m=16, dirichlet_beta=0.5
    )
    assert len(arrays) == 8
    for arr, party in zip(arrays, regenerated):
        assert np.array_equal(arr, party.users)


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


# ---------------------------------------------------------------------------
# cost accounting


def test_fedpem_upload_cost_two_parties():
    # Two parties x ten pairs x sixteen bytes.
    items = np.tile(np.arange(16), 125).astype(np.uint64)
    parties = [PartyState(i, items.copy(), 6) for i in range(2)]
    params = ProtocolParams(m=6, g=3, g_s=1, k=10, epsilon=20.0)
    trace = UploadTrace()
    run_fedpem(parties, params, run_key=12, trace=trace)
    assert trace.report_pairs == 20
    assert trace.uploaded_bytes == 320


def test_account_costs_reports_package_cap():
    trace = UploadTrace(report_pairs=10, package_pairs=8, package_emissions=2)
    summary = account_costs(trace, ProtocolParams(), n_parties=8)
    assert summary["uploaded_bytes"] == 18 * 16
    assert summary["g_star"] == 13
    assert summary["package_bytes_cap"] == 13 * 8 * 4 * 10 * 16
    assert summary["package_bytes_within_cap"]


def test_account_costs_zero_ratio_has_zero_cap():
    trace = UploadTrace(report_pairs=10)
    params = ProtocolParams(dividing_ratio=0.0)
    summary = account_costs(trace, params, n_parties=4)
    assert summary["g_star"] == 0
    assert summary["package_bytes_cap"] == 0
    assert summary["package_bytes_within_cap"]


def test_account_costs_without_params_is_totals_only():
    summary = account_costs(UploadTrace(report_pairs=3))
    assert summary == {
        "uploaded_bytes": 48,
        "report_pairs": 3,
        "package_pairs": 0,
        "package_emissions": 0,
    }


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
