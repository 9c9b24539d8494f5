"""Monte Carlo plumbing: reproducible seeding and estimates with standard
errors.

The seeding contract: every stochastic routine takes an integer ``seed`` and
draws from the sub-stream ``rng_from(seed, *key)``, seeded by
``np.random.SeedSequence([seed, *key])``, so results are bit-reproducible
for a fixed seed. ``rng_from(seed)`` is ``np.random.default_rng(seed)``.

The streams, by key:

    (seed,)        `pooling.airpool_round` noise, the `sensing` dataset,
                   `analysis.chi_error_check`, and bound_validation's
                   reconfiguration features and margin-chain noise
    (seed, 0)      `features.max_second_moment_prefixes` (and
                   `features.max_second_moment`), `features.optimal_beta_grid`
    (seed, 0, 0)   `analysis.estimate_errors_grid`: error features, then
                   the unit noise after their last block
    (seed, 1, 0)   `analysis.average_approx_error_bounds`
    (seed, 11)     `sensing.ShallowClassifier` initial weights
    (seed, 13)     `sensing.train_classifier` epoch shuffles
    (seed, 77)     `sensing.SyntheticDataset.split`
    (seed, t)      `sensing.evaluate_accuracy`, the noise of trial t

SeedSequence pads entropy shorter than its four-word pool with zeros, so
keys that differ only by trailing zeros name one stream while they fit the
pool: for a seed below 2**64, (seed,), (seed, 0) and (seed, 0, 0) are one
stream, and so are (seed, 1) and (seed, 1, 0). The error features are then
the E[fmax^2] features when the trial counts agree, and the first rows of
the beta* draw. From 2**64 on the seed takes three words, so (seed, 0, 0)
and (seed, 1, 0) overflow the pool and name streams of their own; each
routine therefore keeps its key as written.

An experiment draws E[fmax^2] once, at max(trials, 100000); the bound gate
reads its max-pooling approximation bounds' estimate at `trials` from a
prefix of that draw, which has the bits of drawing it anew.

The feature estimators (E[fmax^2], beta*, the error sweep and the
averaging bound) draw their features one block of rows at a time
(`features.draw_blocks`), which stacks to the one-shot draw of the same
stream; the others draw in one piece. Every estimator reduces its per-trial
values with `mean_estimate` or `finite_mean`, so the float operations of
each estimate live here.
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
