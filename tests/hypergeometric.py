"""A moment test for random splits of a population of coloured users."""

import numpy as np


def assert_hypergeometric(samples, population, sizes, z_max=4.5):
    """Moments of colour counts in random groups of a uniformly permuted population.

    ``samples`` is trials x groups x colours. Each group's count of a colour is
    Hypergeometric(N, K, n): its trial mean and trial variance must lie within
    ``z_max`` standard errors of the formulas, and so must the covariance of
    the first two groups' counts, -n1 n2 K (N - K) / (N^2 (N - 1)).
    """
    trials = samples.shape[0]
    big_n = population.sum()
    for row, n in enumerate(sizes):
        for colour, k in enumerate(population):
            x = samples[:, row, colour].astype(float)
            mean = n * k / big_n
            var = mean * (big_n - k) / big_n * (big_n - n) / (big_n - 1)
            assert abs(x.mean() - mean) <= z_max * np.sqrt(var / trials), (row, colour)
            squares = (x - x.mean()) ** 2
            spread = z_max * squares.std() / np.sqrt(trials)
            assert abs(squares.mean() - var) <= spread, (row, colour)
    for colour, k in enumerate(population):
        x, y = samples[:, 0, colour].astype(float), samples[:, 1, colour].astype(float)
        cov = -sizes[0] * sizes[1] * k * (big_n - k) / (big_n**2 * (big_n - 1))
        products = (x - x.mean()) * (y - y.mean())
        assert abs(products.mean() - cov) <= z_max * products.std() / np.sqrt(trials), colour
