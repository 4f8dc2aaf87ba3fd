"""Synthetic dataset recipe, ingestion, and exact ground truth."""

import numpy as np
import pytest
from scipy import stats

from fedhh.datagen import (
    GroundTruth,
    PartySpec,
    exact_topk,
    generate_syn,
    ingest_party_file,
    law_weights,
    load_vocabulary,
    syn_default_specs,
)
from fedhh.prefix_codec import PrefixCode
from fedhh.protocol import PartyState


# ---------------------------------------------------------------------------
# specs


def test_default_specs_table():
    specs = syn_default_specs()
    assert len(specs) == 8
    assert sum(s.n_users for s in specs) == 780_000
    assert [s.n_users for s in specs] == [
        220_000, 170_000, 120_000, 80_000, 70_000, 60_000, 30_000, 30_000,
    ]
    assert [(s.law, s.param) for s in specs if s.law == "poisson"] == [
        ("poisson", 10.0), ("poisson", 8.0), ("poisson", 6.0), ("poisson", 4.0),
    ]
    assert sorted(s.param for s in specs if s.law == "zipf") == [1.1, 1.3, 1.5, 1.7]


def test_spec_validation():
    with pytest.raises(ValueError):
        PartySpec(0, "zipf", 1.5)
    with pytest.raises(ValueError):
        PartySpec(10, "uniform", 1.0)
    with pytest.raises(ValueError):
        PartySpec(10, "zipf", 1.0)  # exponent must exceed 1
    with pytest.raises(ValueError):
        PartySpec(10, "poisson", -1.0)


# ---------------------------------------------------------------------------
# law weights


def test_zipf_weights_shape():
    w = law_weights(PartySpec(1, "zipf", 1.5), 100)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(w) < 0)
    # (r+1)^-a up to normalization
    assert w[3] / w[0] == pytest.approx(4.0**-1.5, rel=1e-12)


def test_poisson_weights_match_clipped_pmf():
    lam, size = 6.0, 50
    w = law_weights(PartySpec(1, "poisson", lam), size)
    expected = stats.poisson.pmf(np.arange(size), lam)
    expected[-1] += stats.poisson.sf(size - 1, lam)
    assert np.allclose(w, expected, atol=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_poisson_tail_collapses_onto_last_rank():
    # Domain far smaller than the mean: nearly all mass clips to the end.
    w = law_weights(PartySpec(1, "poisson", 40.0), 5)
    assert w[-1] > 0.999
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_poisson_rate_zero_is_point_mass():
    w = law_weights(PartySpec(1, "poisson", 0.0), 10)
    assert w[0] == 1.0
    assert np.all(w[1:] == 0.0)


# ---------------------------------------------------------------------------
# generate_syn


def test_generate_matches_spec_table():
    rng = np.random.default_rng(1)
    parties = generate_syn(syn_default_specs(), 33_000, 6, rng)
    assert len(parties) == 8
    assert sum(p.n_users for p in parties) == 780_000
    for spec, party in zip(syn_default_specs(), parties):
        assert party.n_users == spec.n_users  # one item per user
        assert int(party.users.max()) < 33_000
    assert parties[0].users.dtype == np.uint64


def test_generate_is_seed_reproducible():
    a = generate_syn(syn_default_specs()[:3], 5000, 6, np.random.default_rng(99), m=20)
    b = generate_syn(syn_default_specs()[:3], 5000, 6, np.random.default_rng(99), m=20)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.users, pb.users)
    c = generate_syn(syn_default_specs()[:3], 5000, 6, np.random.default_rng(100), m=20)
    assert any(not np.array_equal(pa.users, pc.users) for pa, pc in zip(a, c))


def test_generate_single_party():
    parties = generate_syn([PartySpec(500, "zipf", 1.01)], 300, 6, np.random.default_rng(3), m=16)
    assert len(parties) == 1
    assert parties[0].n_users == 500
    assert int(parties[0].users.max()) < 300


def test_generate_accepts_explicit_pool():
    pool = np.array([10, 20, 30, 40, 50, 60, 70, 80])
    parties = generate_syn([PartySpec(100, "poisson", 2.0)], pool, 2, np.random.default_rng(4), m=8)
    assert set(parties[0].users.tolist()) <= set(pool.tolist())


def test_generate_input_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_syn([], 100, 6, rng)
    with pytest.raises(ValueError):
        generate_syn([PartySpec(10, "zipf", 1.5)], 4, 6, rng)  # pool < groups
    with pytest.raises(ValueError):
        generate_syn([PartySpec(10, "zipf", 1.5)], np.array([1, 1, 2]), 2, rng)
    with pytest.raises(ValueError):
        generate_syn([PartySpec(10, "zipf", 1.5)], 100, 6, rng, m=4)  # pool needs 7 bits


def test_empty_domain_resampled_ten_times(monkeypatch):
    """All-zero allocation draws trigger the re-sample loop, then an error."""
    calls = []

    class ZeroShareRng:
        def __init__(self, seed):
            pass

        def dirichlet(self, alpha):
            calls.append(1)
            return np.zeros(len(alpha))

    outer = np.random.default_rng(0)
    monkeypatch.setattr(np.random, "default_rng", ZeroShareRng)
    with pytest.raises(RuntimeError, match="10 draws"):
        generate_syn([PartySpec(10, "zipf", 1.5)], 60, 6, outer)
    assert len(calls) == 10


def test_dirichlet_concentration_limit():
    """Large concentration gives near-identical party domains; the default
    skew regime does not. Observed through the sampled item sets."""
    def jaccard(beta):
        specs = [PartySpec(20_000, "zipf", 1.5), PartySpec(20_000, "zipf", 1.5)]
        parties = generate_syn(specs, 6000, 6, np.random.default_rng(7), m=16, dirichlet_beta=beta)
        a, b = (set(p.users.tolist()) for p in parties)
        return len(a & b) / len(a | b)

    concentrated = jaccard(1e6)
    skewed = jaccard(0.1)
    assert concentrated >= 0.3
    assert concentrated > 10 * skewed


def test_law_profile_chi_square_sanity():
    """Sorted empirical frequencies track the law's sorted weights.

    Ten bins over the rank axis; loose thresholds (this guards gross misuse
    of the law, not distributional fine structure).
    """
    def binned_chi2(spec, pool, seed, bins=10):
        parties = generate_syn([spec], pool, 1, np.random.default_rng(seed), m=16)
        counts = np.bincount(parties[0].users.astype(np.int64), minlength=pool)
        obs = np.sort(counts)[::-1].astype(float)
        exp = np.sort(law_weights(spec, pool))[::-1] * spec.n_users
        edges = np.linspace(0, pool, bins + 1).astype(int)
        o = np.add.reduceat(obs, edges[:-1])
        e = np.add.reduceat(exp, edges[:-1])
        return float(((o - e) ** 2 / e).sum())

    assert binned_chi2(PartySpec(100_000, "zipf", 1.5), 200, 101) < 45.0
    assert binned_chi2(PartySpec(100_000, "poisson", 6.0), 50, 101) < 20.0


# ---------------------------------------------------------------------------
# ingestion


def test_ingest_maps_lines_to_codes(tmp_path):
    party = tmp_path / "party.txt"
    party.write_text("a\nb\na\n", encoding="utf-8")
    users = ingest_party_file(str(party), {"a": 0, "b": 1}, 4)
    assert users.tolist() == [0, 1, 0]
    assert users.dtype == np.uint64


def test_ingest_empty_file_rejected(tmp_path):
    party = tmp_path / "party.txt"
    party.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no items"):
        ingest_party_file(str(party), {"a": 0}, 4)


def test_ingest_unknown_token_names_line(tmp_path):
    party = tmp_path / "party.txt"
    party.write_text("a\nmystery\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2.*mystery"):
        ingest_party_file(str(party), {"a": 0}, 4)


def test_ingest_capacity_check(tmp_path):
    party = tmp_path / "party.txt"
    party.write_text("d\n", encoding="utf-8")
    vocab = {"a": 0, "b": 1, "c": 2, "d": 3}
    with pytest.raises(ValueError, match="does not fit"):
        ingest_party_file(str(party), vocab, 1)


def test_load_vocabulary(tmp_path):
    vocab_file = tmp_path / "vocab.txt"
    vocab_file.write_text("alpha\nbeta\n\ngamma\n", encoding="utf-8")
    assert load_vocabulary(str(vocab_file)) == {"alpha": 0, "beta": 1, "gamma": 2}


def test_load_vocabulary_duplicate_rejected(tmp_path):
    vocab_file = tmp_path / "vocab.txt"
    vocab_file.write_text("alpha\nalpha\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        load_vocabulary(str(vocab_file))


def test_load_vocabulary_empty_rejected(tmp_path):
    vocab_file = tmp_path / "vocab.txt"
    vocab_file.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_vocabulary(str(vocab_file))


# ---------------------------------------------------------------------------
# exact ground truth


def _party(party_id, items, m=4):
    return PartyState(party_id=party_id, users=np.array(items, dtype=np.uint64), item_length=m)


def test_exact_topk_hand_count():
    # A = {x,x,y}, B = {y,y,z} with x=0, y=1, z=2: top-2 = [y 3/6, x 2/6].
    truth = exact_topk([_party(0, [0, 0, 1]), _party(1, [1, 1, 2])], 2)
    assert truth.codes == [PrefixCode(1, 4), PrefixCode(0, 4)]
    assert truth.topk[0][1] == pytest.approx(0.5)
    assert truth.topk[1][1] == pytest.approx(1 / 3)
    assert truth.total_users == 6


def test_exact_topk_identical_parties():
    single = exact_topk([_party(0, [3, 3, 5, 7])], 3)
    double = exact_topk([_party(0, [3, 3, 5, 7]), _party(1, [3, 3, 5, 7])], 3)
    assert single.codes == double.codes


def test_exact_topk_k_exceeds_distinct():
    truth = exact_topk([_party(0, [4, 4, 9])], 10)
    assert len(truth.topk) == 2
    assert truth.codes == [PrefixCode(4, 4), PrefixCode(9, 4)]


def test_exact_topk_tie_breaks_ascending():
    truth = exact_topk([_party(0, [6, 2, 6, 2, 5])], 3)
    assert truth.codes == [PrefixCode(2, 4), PrefixCode(6, 4), PrefixCode(5, 4)]


def test_exact_topk_validation():
    with pytest.raises(ValueError):
        exact_topk([], 2)
    with pytest.raises(ValueError):
        exact_topk([_party(0, [1])], 0)
    with pytest.raises(ValueError):
        exact_topk([_party(0, [1], m=4), _party(1, [1], m=8)], 1)


def test_ground_truth_codes_property():
    gt = GroundTruth(topk=[(PrefixCode(3, 4), 0.5)], k=1, total_users=10)
    assert gt.codes == [PrefixCode(3, 4)]
