"""Monte Carlo plumbing: reproducible seeding and estimates with standard
errors.

The seeding contract: every stochastic routine takes an integer ``seed`` and
derives sub-streams with ``np.random.SeedSequence([seed, *key])``, so results
are bit-reproducible for a fixed seed.

Every estimator draws its trials in one piece from `estimator_rng` and
reduces them with `mean_estimate` or `finite_mean`, so the sub-streams and
the float operations of each estimate live here.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte Carlo point estimate with its standard error."""

    value: float
    std_error: float
    trials: int


def rng_from(seed: int, *key: int) -> np.random.Generator:
    """Generator for the sub-stream identified by (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def estimator_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator of a Monte Carlo estimator: the sub-stream (seed, *key, 0).

    The trailing 0 is the index of the first chunk of the former worker
    split; keeping it keeps every estimate, and so every CSV, bit-identical
    to the results recorded before the split was removed.
    """
    return rng_from(seed, *key, 0)


def finite_mean(x: np.ndarray, estimator: str, what: str) -> float:
    """float(x.sum()) / len(x), or ArithmeticError naming the estimator and
    the moment when that is not finite, rather than leaking inf or NaN into
    a result."""
    value = float(x.sum()) / len(x)
    if not math.isfinite(value):
        raise ArithmeticError(
            f"{estimator}: Monte Carlo {what} is not finite ({value}); "
            "the sampled values overflow float64")
    return value


def mean_estimate(x: np.ndarray, estimator: str) -> MonteCarloEstimate:
    """Mean of the samples x with the standard error
    sqrt(max(E[x^2] - E[x]^2, 0) / n)."""
    n = len(x)
    mean = finite_mean(x, estimator, "mean")
    second = finite_mean(x * x, estimator, "second moment")
    return MonteCarloEstimate(mean, math.sqrt(max(second - mean * mean, 0.0) / n), n)
