"""Monte Carlo plumbing: reproducible seeding and estimates with standard
errors.

The seeding contract: every stochastic routine takes an integer ``seed`` and
derives sub-streams with ``np.random.SeedSequence([seed, *key])``, so results
are bit-reproducible for a fixed (seed, worker-count) pair and independent of
scheduling order. Worker splits derive one sub-stream per worker, which makes
the worker count part of the reproducibility contract.

Every estimator draws through `worker_streams` and sums through `MomentSums`,
so the sub-streams and the float operations of each estimate live here.
"""

import math
from dataclasses import dataclass
from typing import Tuple

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


def worker_chunks(trials: int, workers: int) -> list:
    """Split `trials` into per-worker chunk sizes (first chunks get the rest)."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    base = trials // workers
    rem = trials % workers
    return [base + (1 if w < rem else 0) for w in range(workers)]


def worker_streams(trials: int, workers: int, seed: int, *key: int):
    """(generator, size) of each non-empty chunk; worker w draws (seed, *key, w)."""
    for w, n in enumerate(worker_chunks(trials, workers)):
        if n:
            yield rng_from(seed, *key, w), n


class MomentSums:
    """Running sums of x and x^2 per slot, plus one cross sum of a*b.

    Chunks merge by plain addition in worker order. Every finished moment is
    checked: a value that is not finite raises ArithmeticError naming the
    estimator, rather than leaking inf or NaN into a result.
    """

    def __init__(self, estimator: str, slots: int = 1):
        self.estimator = estimator
        self.n = 0
        self.sums = [0.0] * slots
        self.sums_sq = [0.0] * slots
        self.sum_cross = 0.0

    def add(self, x: np.ndarray, slot: int = 0) -> None:
        """Add one chunk's values to a slot; slot 0 counts the draws."""
        if slot == 0:
            self.n += len(x)
        self.sums[slot] += float(x.sum())
        self.sums_sq[slot] += float((x * x).sum())

    def add_cross(self, a: np.ndarray, b: np.ndarray) -> None:
        self.sum_cross += float((a * b).sum())

    def _finite(self, total: float, what: str) -> float:
        value = total / self.n
        if not math.isfinite(value):
            raise ArithmeticError(
                f"{self.estimator}: Monte Carlo {what} is not finite ({value}); "
                "the sampled values overflow float64")
        return value

    def moments(self, slot: int = 0) -> Tuple[float, float]:
        """(E[x], E[x^2]) of one slot."""
        return (self._finite(self.sums[slot], "mean"),
                self._finite(self.sums_sq[slot], "second moment"))

    def cross_moment(self) -> float:
        return self._finite(self.sum_cross, "cross moment")

    def estimate(self, slot: int = 0) -> MonteCarloEstimate:
        """Mean with the standard error sqrt(max(E[x^2] - E[x]^2, 0) / n)."""
        mean, second = self.moments(slot)
        var = max(second - mean * mean, 0.0)
        return MonteCarloEstimate(mean, math.sqrt(var / self.n), self.n)
