"""Keyed streams: ``generator(key)`` is the stream of ``default_rng(key)``."""

import numpy as np
import pytest

from fedhh import _rng
from fedhh._rng import derive_key, generator

KEYS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + [
    derive_key(12345, rep, party, level, role)
    for rep, party, level, role in [(0, 0, 1, 0), (3, 7, 24, 3), (49, 2, 12, 1), (1, 101, 5, 2)]
]


def _first_draws(rng):
    return (
        rng.integers(2**63, size=4),
        rng.binomial([0, 7, 1000, 10**8], [0.5, 0.1, 0.9, 0.25]),
        rng.multinomial(500, np.full(9, 1 / 9)),
        rng.multivariate_hypergeometric([5, 40, 0, 300], 120),
        rng.multivariate_hypergeometric([5, 40, 0, 300], 120, method="marginals"),
    )


@pytest.mark.parametrize("key", KEYS)
def test_generator_draws_what_default_rng_draws(key):
    for ours, reference in zip(_first_draws(generator(key)), _first_draws(np.random.default_rng(key))):
        assert np.array_equal(ours, reference), key
    # A second opening reads the cached words and draws the same again.
    for ours, reference in zip(_first_draws(generator(key)), _first_draws(np.random.default_rng(key))):
        assert np.array_equal(ours, reference), key


def test_generators_of_one_key_are_independent():
    first, second = generator(derive_key(7, 1)), generator(derive_key(7, 1))
    assert first is not second and first.bit_generator is not second.bit_generator
    first.integers(2**63, size=100)
    expected = np.random.default_rng(derive_key(7, 1)).integers(2**63, size=3)
    assert np.array_equal(second.integers(2**63, size=3), expected)


def test_cached_seed_words_are_read_only():
    key = derive_key(99, 4)
    words = _rng._seed_words(key)
    assert _rng._seed_words(key) is words  # the second call is a cache hit
    assert not words.flags.writeable
    with pytest.raises(ValueError):
        words[0] = 0
    generator(key).integers(2**63, size=10)
    assert np.array_equal(words, np.random.SeedSequence(key).generate_state(4, np.uint64))
    assert _rng._seed_words.cache_info().maxsize == _rng.SEED_WORDS_CACHED
