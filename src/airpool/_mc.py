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
    (seed, 0)      `features.max_second_moment`, `features.optimal_beta_grid`
    (seed, 0, 0)   `analysis.estimate_errors_grid`: error features; the
                   unit noise follows their last block, and a second
                   generator of the stream runs through them to reach it
                   and then draws it block by block
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

An experiment draws E[fmax^2] at max(trials, 100000); the bound gate,
whose max-pooling approximation bounds read the estimate at `trials`, draws
it a second time when trials < 100000.

The feature estimators (E[fmax^2], beta*, the error sweep, the averaging
bound) and the reconfiguration checks draw their features one block of
rows at a time (`features.draw_blocks`), which stacks to the one-shot draw
of the same stream. The blocks are the largest nodes of numpy's
pairwise-sum tree over the trials that hold at most
`features._BLOCK_ROWS` rows (`pairwise_nodes`), so a per-trial value sums
block by block to the bits of its one-shot sum (`PairwiseSum`). Each
estimator makes one pass: per block, per-trial statistics (beta*, the
error sweep and the averaging bound power them once per alpha through
`features._RowSums`), and one `add` of the stacked statistics; no array
of `trials` rows is held. Estimates come from `estimate_from_sums` or
`finite_mean`, so the float operations of each estimate live here.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np

#: numpy's pairwise summation sums runs of up to this many terms with eight
#: accumulators and halves longer runs (PW_BLOCKSIZE in numpy's loops).
PAIRWISE_RUN = 128


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte Carlo point estimate with its standard error."""

    value: float
    std_error: float
    trials: int


def rng_from(seed: int, *key: int) -> np.random.Generator:
    """Generator for the sub-stream identified by (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def finite_mean(total: float, n: int, estimator: str, what: str) -> float:
    """float(total) / n for the sum `total` of n samples, or ArithmeticError
    naming the estimator and the moment when that is not finite, rather than
    leaking inf or NaN into a result."""
    value = float(total) / n
    if not math.isfinite(value):
        raise ArithmeticError(
            f"{estimator}: Monte Carlo {what} is not finite ({value}); "
            "the sampled values overflow float64")
    return value


def estimate_from_sums(sum_x: float, sum_xx: float, n: int,
                       estimator: str) -> MonteCarloEstimate:
    """Mean of n samples x from the sums of x and of x * x, with the standard
    error sqrt(max(E[x^2] - E[x]^2, 0) / n)."""
    mean = finite_mean(sum_x, n, estimator, "mean")
    second = finite_mean(sum_xx, n, estimator, "second moment")
    return MonteCarloEstimate(mean, math.sqrt(max(second - mean * mean, 0.0) / n), n)


def pairwise_half(n: int) -> int:
    """Where numpy's pairwise sum splits a run of n > `PAIRWISE_RUN` terms:
    at half of it, rounded down to a multiple of 8."""
    half = n // 2
    return half - half % 8


def pairwise_nodes(n: int, most: int) -> List[int]:
    """The term counts, in order, of the largest nodes of numpy's
    pairwise-sum tree over n terms that hold at most `most` terms
    (most >= `PAIRWISE_RUN`, so every node is a whole run or a split one).
    Consecutive blocks of these sizes tile the n terms."""
    if n <= most:
        return [n]
    half = pairwise_half(n)
    return pairwise_nodes(half, most) + pairwise_nodes(n - half, most)


class PairwiseSum:
    """numpy's sum over the last axis, x.sum(axis=-1), of n terms that arrive
    as consecutive blocks, the nodes `pairwise_nodes(n, most)`; only one sum
    per node is kept.

    `add` reduces a block to its node sum with numpy's own sum, and `total`
    adds the node sums up the top of the tree, as numpy's pairwise_sum would
    add the two halves of each larger run, then adds that to 0.0, numpy's
    initial value of a sum. The node sums carry that 0.0 too, which turns a
    -0.0 into 0.0; the sign of a zero changes a float sum only when the sum
    is zero, and the final 0.0 makes that 0.0 in both. So the total is
    bit-identical to the one-shot sum; `add` may take any leading axes, and
    each line of terms along the last one is summed on its own. Ways to
    vectorize this that give other bits: tests/test_numpy_canary.py.
    """

    def __init__(self, n: int, most: int):
        self._n, self._most = n, most
        self._nodes = pairwise_nodes(n, most)
        self._done = 0
        self._sums = None  # one row per node, allocated at the first block

    def add(self, terms: np.ndarray) -> None:
        """Takes the next block of terms along the last axis."""
        done = self._done
        if done == len(self._nodes) or terms.shape[-1] != self._nodes[done]:
            raise ValueError(f"a block of {terms.shape[-1]} terms is not node {done} of "
                             f"the pairwise tree over {self._n} terms")
        if self._sums is None:
            self._sums = np.empty((len(self._nodes), *terms.shape[:-1]))
        np.add.reduce(terms, axis=-1, out=self._sums[done, ...])
        self._done += 1

    def total(self) -> np.ndarray:
        """The sum of all n terms, once every block is in."""
        if self._done != len(self._nodes):
            raise ValueError(f"{self._done} of {len(self._nodes)} blocks are in")
        sums = iter(self._sums)

        def node(m: int) -> np.ndarray:
            if m <= self._most:
                return next(sums)
            half = pairwise_half(m)
            return node(half) + node(m - half)

        return 0.0 + node(self._n)
