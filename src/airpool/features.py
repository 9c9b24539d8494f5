"""Feature-distribution models and their moments.

Models the per-sensor feature value f >= 0 (the output of a non-negative
activation). The rectified Gaussian model max(N(0,1), 0) has closed-form
absolute moments

    E[|f|^s] = (1/sqrt(pi)) * 2^(s/2 - 1) * Gamma((s + 1) / 2),

which this module evaluates in the log domain so that powers up to s = 256
stay finite. Uniform(0,1) and unit-exponential models have closed forms
too, and an empirical model wraps externally supplied samples, whose
moments are exact sample means. Only the max-pooling quantities E[fmax^2]
and beta* are estimated by Monte Carlo.
"""

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ._mc import (PAIRWISE_RUN, MonteCarloEstimate, PairwiseSum, estimate_from_sums,
                  finite_mean, pairwise_half, pairwise_nodes, rng_from)
from .specfun import ln_gamma

RECTIFIED_GAUSSIAN = "rectified_gaussian"
UNIFORM01 = "uniform01"
EXPONENTIAL_UNIT = "exponential_unit"
EMPIRICAL = "empirical"

#: The closed-form models, in the order `tradeoff_curve` writes them.
BUILT_IN_KINDS = (RECTIFIED_GAUSSIAN, UNIFORM01, EXPONENTIAL_UNIT)

MIN_MC_TRIALS = 10_000
ALPHA_MAX = 128.0


@dataclass(frozen=True)
class FeatureModel:
    """A named non-negative feature distribution."""

    kind: str
    samples: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in (*BUILT_IN_KINDS, EMPIRICAL):
            raise ValueError(f"unknown feature model kind: {self.kind!r}")
        if self.kind == EMPIRICAL:
            if self.samples is None or len(self.samples) == 0:
                raise ValueError("empirical model requires a non-empty sample set")
            samples = np.asarray(self.samples)
            if not np.all(np.isfinite(samples) & (samples >= 0)):
                raise ValueError("empirical model requires finite, non-negative samples")
        elif self.samples is not None:
            raise ValueError("samples are only valid for the empirical model")

    @classmethod
    def rectified_gaussian(cls) -> "FeatureModel":
        return cls(RECTIFIED_GAUSSIAN)

    @classmethod
    def uniform01(cls) -> "FeatureModel":
        return cls(UNIFORM01)

    @classmethod
    def exponential_unit(cls) -> "FeatureModel":
        return cls(EXPONENTIAL_UNIT)

    @classmethod
    def empirical(cls, samples) -> "FeatureModel":
        return cls(EMPIRICAL, samples=np.asarray(samples, dtype=float))

    @classmethod
    def from_file(cls, path) -> "FeatureModel":
        """Load an empirical model: one non-negative decimal per line."""
        values = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: not a decimal value: {text!r}")
                if not math.isfinite(value) or value < 0:
                    raise ValueError(
                        f"{path}:{lineno}: feature values must be finite and >= 0, got {text}"
                    )
                values.append(value)
        if not values:
            raise ValueError(f"{path}: no feature values found")
        return cls.empirical(values)

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Sample an array of the given shape; entries are >= 0."""
        if self.kind == RECTIFIED_GAUSSIAN:
            x = rng.standard_normal(shape)
            np.maximum(x, 0.0, out=x)
            return x
        if self.kind == UNIFORM01:
            return rng.random(shape)
        if self.kind == EXPONENTIAL_UNIT:
            return rng.exponential(1.0, shape)
        return rng.choice(self.samples, size=shape, replace=True)


@dataclass(frozen=True)
class MomentSet:
    """Normalization moments of the powered feature v = f^alpha.

    eta is E[v], nu_sq is Var[v]. `clamped` flags a tiny negative variance
    from floating cancellation that was clipped to zero.
    """

    alpha: float
    eta: float
    nu_sq: float
    clamped: bool = False

    @classmethod
    def of(cls, alpha: float, eta: float, second: float) -> "MomentSet":
        """The moments from eta and second = E[v^2]: nu_sq = second - eta^2,
        a negative value clipped to 0.0 and flagged `clamped`."""
        nu_sq = second - eta * eta
        return cls(alpha, eta, max(nu_sq, 0.0), nu_sq < 0.0)


def moment_abs_power(model: FeatureModel, s: float) -> float:
    """E[|f|^s] for s >= 0, evaluated without sampling.

    Rectified Gaussian, uniform, and unit-exponential use their closed
    forms (the first and last as exp of ln_gamma, finite up to s = 256 and
    within a few ulp of the exact value at integer s); the empirical model
    uses the exact sample moment. There is no sampled route: a Monte Carlo
    estimate of a high-order moment is single-draw dominated for the
    heavy-tailed models.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if model.kind == RECTIFIED_GAUSSIAN:
        if s == 0.0:
            return 1.0
        return math.exp(-0.5 * math.log(math.pi) + (s / 2.0 - 1.0) * math.log(2.0)
                        + ln_gamma((s + 1.0) / 2.0))
    if model.kind == UNIFORM01:
        return 1.0 / (s + 1.0)
    if model.kind == EXPONENTIAL_UNIT:
        return math.exp(ln_gamma(s + 1.0))
    return float(np.mean(np.asarray(model.samples, dtype=float) ** s))


def normalization_moments(model: FeatureModel, alpha: float) -> MomentSet:
    """eta = E[f^alpha] and nu_sq = Var[f^alpha] for the given model, in
    closed form (exact sample moments for the empirical model).

    Raises OverflowError, naming the model, alpha and the moment, when
    E[f^alpha] or E[f^(2 alpha)] exceeds float64 (the unit exponential above
    alpha = 85.31), rather than returning inf or NaN.
    """
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")
    if alpha > ALPHA_MAX:
        raise ValueError(f"alpha must be <= {ALPHA_MAX}")
    return MomentSet.of(alpha, *(_finite_moment(model, s, alpha) for s in (alpha, 2.0 * alpha)))


def _finite_moment(model: FeatureModel, s: float, alpha: float) -> float:
    """moment_abs_power(model, s), or OverflowError when it is not finite."""
    try:
        with np.errstate(over="ignore"):
            value = moment_abs_power(model, s)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"E[f^{s:g}] of the {model.kind} feature model overflows "
                            f"float64 at alpha = {alpha:g}")
    return value


#: The most rows in a block of a Monte Carlo feature draw (`draw_blocks`): a
#: (K, rows) block and the summation scratch of `_RowSums` stay in a core's
#: L2 cache while they are powered and summed.
_BLOCK_ROWS = 4096


def draw_blocks(model: FeatureModel, rng: np.random.Generator, n: int,
                k: int) -> Iterator[np.ndarray]:
    """model.draw(rng, (n, k)) as consecutive (rows, k) blocks, drawn one at
    a time: the largest nodes of numpy's pairwise-sum tree over the n rows
    that hold at most `_BLOCK_ROWS` rows (`_mc.pairwise_nodes`; 128 blocks
    of 3,120 or 3,128 rows at n = 400,000), so a per-row value sums block by
    block to the bits of its one-shot sum (`_mc.PairwiseSum`).

    Every model draws its entries in C order from the generator's stream, so
    the blocks stacked are the one-shot draw, and the generator ends in the
    same state.
    """
    for rows in pairwise_nodes(n, _BLOCK_ROWS):
        yield model.draw(rng, (rows, k))


class _RowSums:
    """Row sums of x ** alpha for many alpha >= 1, one (rows, K) block
    x >= 0 of `draw_blocks` over n rows at a time, in scratch that every
    block and alpha reuses (a fresh 400 KB array per block lies above
    glibc's mmap threshold, and its page faults double the time of pow).

    `load` writes the block transposed, (K, rows), into dense scratch once,
    a -0.0 entry as 0.0 (numpy sums a row of zeros of either sign to 0.0).
    Its 0.0 and 1.0 entries are fixed points of pow, which is slowest at 0
    (about half of a rectified Gaussian draw; rescaled row maxima are 1.0),
    so they stay as written; `load` keeps the index and values of the other
    entries. A call powers those, scatters them into the scratch and adds
    its K rows in numpy's pairwise order while in cache: the bits of
    ``(x ** alpha).sum(axis=1)``.

    `load_rescaled` and `norms` give the l_alpha norm of each row as
    fmax (sum (f/fmax)^alpha)^(1/alpha), the scaling of Blue's norm
    algorithm (ACM TOMS 4(1), 1978): its powers lie in [0, 1], so it stays
    finite at large alpha where the plain sum would overflow.
    """

    def __init__(self, k: int, n: int):
        self.most = rows = max(pairwise_nodes(n, _BLOCK_ROWS))  # the largest block
        self._k, self._rows, self._others = k, 0, np.empty(0, dtype=np.intp)
        self._dense, self._scratch = np.empty(k * rows), np.empty((14, rows))
        self._values, self._powers = np.empty(k * rows), np.empty(k * rows)

    def load(self, x: np.ndarray) -> None:
        """Keeps the (rows, K) block x >= 0 for the next calls, in its own
        scratch: the caller may change x afterwards."""
        self._rows = rows = len(x)
        t = self._dense[:self._k * rows]
        np.add(x.T, 0.0, out=t.reshape(self._k, rows))  # x.T, with -0.0 + 0.0 = 0.0
        self._others = others = np.flatnonzero((t != 0.0) & (t != 1.0))
        # mode="clip" lets take write into out unbuffered; `others` is in range.
        np.take(t, others, out=self._values[:len(others)], mode="clip")

    def load_rescaled(self, x: np.ndarray) -> np.ndarray:
        """Divides each row of the block x >= 0 by its maximum in place (an
        all-zero row stays zero), loads it, and returns the maxima."""
        self._fmax = fmax = x.max(axis=1)
        np.divide(x, fmax[:, None], out=x, where=(fmax > 0)[:, None])
        self.load(x)
        return fmax

    def __call__(self, alpha: float, out: np.ndarray) -> np.ndarray:
        """out = the row sums at alpha of the loaded block; returns out."""
        rows, m = self._rows, len(self._others)
        dense = self._dense[:self._k * rows]
        dense[self._others] = np.power(self._values[:m], alpha, out=self._powers[:m])
        _pairwise_sum(dense.reshape(self._k, rows), out, self._scratch[:, :rows])
        return out

    def norms(self, alpha: float, out: np.ndarray) -> np.ndarray:
        """out = the l_alpha norms of the rows of the block that
        `load_rescaled` loaded; returns out."""
        self(alpha, out)
        out **= 1.0 / alpha
        out *= self._fmax
        return out


def _pairwise_sum(terms: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = the sum over the first axis of terms, elementwise, in the order
    of numpy's pairwise_sum: fewer than 8 terms in sequence; up to
    `PAIRWISE_RUN` terms in 8 strided accumulators, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail in
    sequence; longer runs as the sum of two halves split at a multiple of 8
    (`pairwise_half`).

    The 14 rows of scratch hold the accumulators and their tree.
    """
    n = len(terms)
    if n < 8:
        np.copyto(out, terms[0])
        for term in terms[1:]:
            np.add(out, term, out=out)
    elif n <= PAIRWISE_RUN:
        run = n - n % 8
        acc = terms[:8]
        if run > 8:
            acc = scratch[:8]
            np.add(terms[:8], terms[8:16], out=acc)
            for i in range(16, run, 8):
                np.add(acc, terms[i:i + 8], out=acc)
        pairs, quads = scratch[8:12], scratch[12:14]
        np.add(acc[0::2], acc[1::2], out=pairs)
        np.add(pairs[0::2], pairs[1::2], out=quads)
        np.add(quads[0], quads[1], out=out)
        for term in terms[run:]:
            np.add(out, term, out=out)
    else:
        half = pairwise_half(n)
        _pairwise_sum(terms[:half], out, scratch)
        second = np.empty_like(out)
        _pairwise_sum(terms[half:], second, scratch)
        np.add(out, second, out=out)


def max_second_moment(model: FeatureModel, k: int, trials: int = 1_000_000,
                      seed: int = 0) -> MonteCarloEstimate:
    """Monte Carlo estimate of E[max_k f_k^2] with its standard error, from
    the sub-stream (seed, 0), drawn one block of rows at a time
    (`draw_blocks`). Each block's squared row maxima and their squares go
    into two block-sized rows that the pass reuses and sum to the block's
    node sums (`_mc.PairwiseSum`): no array of `trials` rows exists, and the
    estimate has the bits of the one-shot draw's."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if trials < MIN_MC_TRIALS:
        raise ValueError(f"max_second_moment requires trials >= {MIN_MC_TRIALS}")
    sums, work = PairwiseSum(trials, _BLOCK_ROWS), np.empty(2 * _BLOCK_ROWS)
    for x in draw_blocks(model, rng_from(seed, 0), trials, k):
        stats = work[:2 * len(x)].reshape(2, len(x))
        fmax_sq, fmax_sq_sq = stats
        x.max(axis=1, out=fmax_sq)
        np.square(fmax_sq, out=fmax_sq)
        np.multiply(fmax_sq, fmax_sq, out=fmax_sq_sq)
        sums.add(stats)
    return estimate_from_sums(*sums.total(), trials, "max_second_moment")


def optimal_beta_grid(model: FeatureModel, k: int, alphas: Sequence[float],
                      trials: int = 1_000_000, seed: int = 0) -> List[MonteCarloEstimate]:
    """Post-processing parameter beta* at every alpha of `alphas`, from one
    draw.

    beta* minimizes the noise-free max-pooling error: beta* = u^(-alpha)
    with u = E[fmax ||f||_a] / E[||f||_a^2], estimated by Monte Carlo with a
    delta-method standard error. Because fmax <= ||f||_a <= K^(1/alpha) fmax
    holds per sample, the same-sample ratio estimate lands in [1, K]; a
    violation beyond four standard errors raises, as it would indicate a
    numeric fault.

    The features are drawn from the sub-stream (seed, 0) in one pass, one
    block of rows at a time (`draw_blocks`). Each block is loaded into
    `_RowSums` once, rescaled by its row maxima, and then every alpha (common
    random numbers across the grid) takes its norms, a = fmax ||f||_a,
    b = ||f||_a^2, a^2, ab and b^2 on the block, in six block-sized rows
    that the whole pass reuses, and sums the last five to the block's node
    sums (`_mc.PairwiseSum`). So no array of `trials` rows exists, and each
    estimate is bit-identical to drawing the whole array anew for that alpha
    alone.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if any(alpha < 1.0 for alpha in alphas):
        raise ValueError("alpha must be >= 1")
    if k == 1 or not alphas:
        return [MonteCarloEstimate(1.0, 0.0, 0) for _ in alphas]
    sums = [PairwiseSum(trials, _BLOCK_ROWS) for _ in alphas]
    row_sums = _RowSums(k, trials)
    work = np.empty(6 * row_sums.most)
    for x in draw_blocks(model, rng_from(seed, 0), trials, k):
        rows, fmax = len(x), row_sums.load_rescaled(x)
        stats = work[:6 * rows].reshape(6, rows)
        norm, a, b, aa, ab, bb = stats
        for alpha, alpha_sums in zip(alphas, sums):
            row_sums.norms(alpha, norm)
            np.multiply(fmax, norm, out=a)
            np.multiply(norm, norm, out=b)
            np.multiply(a, a, out=aa)
            np.multiply(a, b, out=ab)
            np.multiply(b, b, out=bb)
            alpha_sums.add(stats[1:])
    return [_beta_from_sums(k, alpha, trials, *alpha_sums.total())
            for alpha, alpha_sums in zip(alphas, sums)]


def _beta_from_sums(k: int, alpha: float, n: int, sum_a: float, sum_b: float,
                    sum_aa: float, sum_ab: float, sum_bb: float) -> MonteCarloEstimate:
    """beta* and its delta-method standard error at one alpha, from the sums
    over n trials of a = fmax ||f||_a, b = ||f||_a^2, a^2, ab and b^2."""
    mean_a = finite_mean(sum_a, n, "optimal_beta_grid", "mean")
    second_a = finite_mean(sum_aa, n, "optimal_beta_grid", "second moment")
    mean_b = finite_mean(sum_b, n, "optimal_beta_grid", "mean")
    cross = finite_mean(sum_ab, n, "optimal_beta_grid", "cross moment")
    second_b = finite_mean(sum_bb, n, "optimal_beta_grid", "second moment")
    u = mean_a / mean_b
    # Delta method for the ratio of correlated means.
    var_a = max(second_a - mean_a ** 2, 0.0)
    var_b = max(second_b - mean_b ** 2, 0.0)
    cov_ab = cross - mean_a * mean_b
    var_u = max(var_a - 2.0 * u * cov_ab + u * u * var_b, 0.0) / (mean_b ** 2 * n)
    se_u = math.sqrt(var_u)
    u_lo, u_hi = k ** (-1.0 / alpha), 1.0
    if u > u_hi + 4.0 * se_u or u < u_lo - 4.0 * se_u:
        raise ArithmeticError(
            f"beta* estimate inconsistent with 1 <= beta* <= K: u={u}, se={se_u}")
    beta = u ** (-alpha)
    se_beta = alpha * u ** (-alpha - 1.0) * se_u
    return MonteCarloEstimate(float(beta), float(se_beta), n)
