"""Monte Carlo plumbing: reproducible seeding and estimates with standard
errors.

The seeding contract: every stochastic routine takes an integer ``seed`` and
derives sub-streams with ``np.random.SeedSequence([seed, *key])``, so results
are bit-reproducible for a fixed seed.

Every estimator draws its trials in one piece from `estimator_rng` and sums
through `MomentSums`, so the sub-streams and the float operations of each
estimate live here.
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


def estimator_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator of a Monte Carlo estimator: the sub-stream (seed, *key, 0).

    The trailing 0 is the index of the first chunk of the former worker
    split; keeping it keeps every estimate, and so every CSV, bit-identical
    to the results recorded before the split was removed.
    """
    return rng_from(seed, *key, 0)


class MomentSums:
    """Running sums of x and x^2 per slot, plus one cross sum of a*b.

    Every finished moment is checked: a value that is not finite raises
    ArithmeticError naming the estimator, rather than leaking inf or NaN
    into a result.
    """

    def __init__(self, estimator: str, slots: int = 1):
        self.estimator = estimator
        self.n = 0
        self.sums = [0.0] * slots
        self.sums_sq = [0.0] * slots
        self.sum_cross = 0.0

    def add(self, x: np.ndarray, slot: int = 0) -> None:
        """Add the values of one slot; slot 0 counts the draws."""
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
