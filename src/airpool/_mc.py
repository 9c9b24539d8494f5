"""Monte Carlo plumbing: reproducible seeding and estimates with standard
errors.

The seeding contract: every stochastic routine takes an integer ``seed`` and
derives sub-streams with ``np.random.SeedSequence([seed, *key])``, so results
are bit-reproducible for a fixed (seed, worker-count) pair and independent of
scheduling order. Worker splits derive one sub-stream per worker, which makes
the worker count part of the reproducibility contract.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte Carlo point estimate with its standard error."""

    value: float
    std_error: float
    trials: int

    def agrees_with(self, other: float, n_sigma: float = 4.0) -> bool:
        """True when `other` lies within n_sigma standard errors."""
        return abs(self.value - other) <= n_sigma * self.std_error


def rng_from(seed: int, *key: int) -> np.random.Generator:
    """Generator for the sub-stream identified by (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def worker_chunks(trials: int, workers: int) -> list:
    """Split `trials` into per-worker chunk sizes (first chunks get the rest)."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    base = trials // workers
    rem = trials % workers
    return [base + (1 if w < rem else 0) for w in range(workers)]
