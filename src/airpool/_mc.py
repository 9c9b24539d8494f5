"""Monte Carlo plumbing: reproducible seeding and estimates with standard
errors.

The seeding contract: every stochastic routine takes an integer ``seed`` and
derives sub-streams with ``np.random.SeedSequence([seed, *key])``, so results
are bit-reproducible for a fixed seed. SeedSequence pads entropy shorter than
its four-word pool with zeros, so keys that differ only by trailing zeros
name one stream: for a seed below 2**32, (seed,), (seed, 0) and (seed, 0, 0)
are the same stream, and so are (seed, 1) and (seed, 1, 0). Only keys that
differ in a non-zero entry give distinct streams.

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
    split. By the zero padding it names the stream of (seed, *key) whenever
    both fit the pool (a seed below 2**32 and at most two key entries); it
    is kept so that larger seeds keep their streams, and so every CSV its
    bytes.
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
