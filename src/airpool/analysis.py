"""Error analysis for over-the-air pooling.

Splits the pooled-feature mean squared error into a channel-noise part and a
function-approximation part, computes closed-form upper bounds for both,
checks the error decomposition, generates noise/approximation tradeoff
curves, and translates feature-space error into classification-accuracy
lower bounds through the margin argument.

Every Monte Carlo routine here draws from a sub-stream listed in the table
of `_mc`. The error sweep and the averaging bound make one pass over their
draw, block by block, and each estimate comes from its streamed sums
(`_mc.estimate_from_sums`).

The chi fit (`chi_error_check`) evaluates the chi CDF at its sorted radii
in one array call of `specfun.regularized_gamma_p` per block of 4,096.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import features as feat
from ._mc import MonteCarloEstimate, PairwiseSum, estimate_from_sums, rng_from
from .features import FeatureModel, MomentSet
from .pooling import (AVERAGE, MAX, WEIGHTED_SUM, AirPoolConfig, PoolingMode,
                      postprocess, true_pool)
from .specfun import regularized_gamma_p

#: Standard-error multiple used by all statistical bound checks.
N_SIGMA = 4.0


def decomposition_c0(mode: PoolingMode, alpha: float) -> int:
    """Constant of the error-decomposition bound D <= c0 (D_chan + D_appr).

    The cross term between the noise error and the approximation error
    vanishes only when the noiseless pipeline reproduces the target exactly,
    i.e. for the averaging configuration at alpha = 1. Every other
    configuration gets the generic constant 2 (from (x+y)^2 <= 2x^2 + 2y^2,
    which holds per sample).
    """
    if mode.kind in (AVERAGE, WEIGHTED_SUM) and alpha == 1.0:
        return 1
    return 2


@dataclass(frozen=True)
class ErrorBreakdown:
    """Monte Carlo estimates of D, D_chan and D_appr for one configuration."""

    total: MonteCarloEstimate
    chan: MonteCarloEstimate
    appr: MonteCarloEstimate


def decomposition_slack(err: ErrorBreakdown, c0: int) -> float:
    """c0 (D_chan + D_appr) + N_SIGMA SE - D; >= 0 when the bound holds."""
    combined = math.sqrt(err.total.std_error ** 2
                         + c0 ** 2 * (err.chan.std_error ** 2 + err.appr.std_error ** 2))
    return c0 * (err.chan.value + err.appr.value) + N_SIGMA * combined - err.total.value


def estimate_errors_grid(model: FeatureModel, cfgs: Sequence[AirPoolConfig],
                         k: int, trials: int, seed: int) -> List[ErrorBreakdown]:
    """Paired Monte Carlo estimates of D, D_chan and D_appr for every
    configuration of a sweep.

    The configurations may mix max and average pooling, alpha and power.
    The noisy and noiseless pipelines run on identical feature draws, so the
    decomposition checks see correlated, low-variance estimates. The
    features and the unit noise are drawn once and every configuration
    reuses them (common random numbers across the grid and both modes),
    scaling the unit noise by its own noise level.

    One pass over the features, block by block (`features.draw_blocks`):
    per block and distinct alpha, one powering (`features._RowSums`), the
    clean pipeline once per (mode, beta), and the squared errors of every
    configuration and their squares stacked into one `_mc.PairwiseSum`. The
    unit noise, the only array of `trials` rows, follows the last feature
    block in the stream (seed, 0, 0), which a second generator runs through
    to reach it. It is drawn whatever the noise levels: at zero noise,
    v + 0.0 * noise is v bit for bit, as v is a sum of non-negative powers
    from +0.0. Each result, in input order, is bit-identical to the same
    call on that configuration alone. The streams are listed in `_mc`.
    """
    if trials < feat.MIN_MC_TRIALS:
        raise ValueError(f"estimate_errors_grid requires trials >= {feat.MIN_MC_TRIALS}")
    if not cfgs:
        return []
    modes = {cfg.mode.kind: cfg.mode for cfg in cfgs}
    if not modes.keys() <= {AVERAGE, MAX}:
        raise ValueError("estimate_errors_grid takes max and average configurations")
    if any(cfg.moments.nu_sq <= 0.0 for cfg in cfgs):
        raise ValueError("degenerate feature distribution: nu is zero")
    rng = rng_from(seed, 0, 0)
    for _ in feat.draw_blocks(model, rng, trials, k):
        pass
    unit_noise = rng.standard_normal(trials)
    by_alpha: Dict[float, List[int]] = {}
    for i, cfg in enumerate(cfgs):
        by_alpha.setdefault(cfg.alpha, []).append(i)
    sums = {alpha: PairwiseSum(trials, feat._BLOCK_ROWS) for alpha in by_alpha}
    row_sums = feat._RowSums(k, trials)
    v_sum = np.empty(row_sums.most)
    work = np.empty(6 * row_sums.most * max(map(len, by_alpha.values())))
    start = 0
    for x in feat.draw_blocks(model, rng_from(seed, 0, 0), trials, k):
        rows, g_true = len(x), {kind: true_pool(x, mode) for kind, mode in modes.items()}
        noise = unit_noise[start:start + rows]
        start += rows
        row_sums.load(x)
        for alpha, indices in by_alpha.items():
            v = row_sums(alpha, v_sum[:rows])
            clean = {}  # (mode, beta) -> g_clean
            sq = work[:6 * rows * len(indices)].reshape(len(indices), 3, 2, rows)
            for i, terms in zip(indices, sq):
                cfg = cfgs[i]
                key, g_ref = (cfg.mode.kind, cfg.beta), g_true[cfg.mode.kind]
                if key not in clean:
                    clean[key] = postprocess(v, cfg)
                g_clean = clean[key]
                g_hat = postprocess(v + math.sqrt(cfg.noise_sigma_sq) * noise, cfg)
                for (g, ref), e in zip(
                        ((g_hat, g_ref), (g_hat, g_clean), (g_clean, g_ref)), terms[:, 0]):
                    np.subtract(g, ref, out=e)
            e2, e4 = sq[..., 0, :], sq[..., 1, :]
            np.square(e2, out=e2)
            np.multiply(e2, e2, out=e4)
            sums[alpha].add(sq)
    errors: List[Optional[ErrorBreakdown]] = [None] * len(cfgs)
    for alpha, indices in by_alpha.items():
        for i, moments in zip(indices, sums[alpha].total()):
            errors[i] = ErrorBreakdown(*(estimate_from_sums(
                s, ss, trials, "estimate_errors_grid") for s, ss in moments))
    return errors


def noise_error_bound(moments: MomentSet, p_rx_w: float, noise_power_w: float) -> float:
    """Channel-noise error bound (sigma^2 nu_alpha^2 / P_rx)^(1/alpha), in
    logs, with nu_alpha^2 and alpha from the normalization `moments`."""
    if noise_power_w == 0.0:
        return 0.0
    ln_inner = math.log(noise_power_w) + math.log(moments.nu_sq) - math.log(p_rx_w)
    return math.exp(ln_inner / moments.alpha)


def noise_error_asymptote(alpha: float, p_rx_w: float, noise_power_w: float) -> float:
    """Large-alpha surrogate of the noise bound: (2/e)(sigma^2/(sqrt2 P))^(1/a) a."""
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")
    base = noise_power_w / (math.sqrt(2.0) * p_rx_w)
    return 2.0 / math.e * base ** (1.0 / alpha) * alpha


def noise_error_asymptote_derivative(alpha: float, p_rx_w: float,
                                     noise_power_w: float) -> float:
    """d/d alpha of the asymptotic noise bound; tends to 2/e for large alpha."""
    base = noise_power_w / (math.sqrt(2.0) * p_rx_w)
    return 2.0 / math.e * base ** (1.0 / alpha) * (1.0 + math.log(1.0 / base) / alpha)


def max_approx_error_bound(alpha: float, k: int, e_fmax_sq: float) -> float:
    """Max-pooling approximation bound (1 - K^(-1/alpha)) E[fmax^2 | K]."""
    return (1.0 - k ** (-1.0 / alpha)) * e_fmax_sq


def average_approx_error_bounds(model: FeatureModel, k: int, alphas: Sequence[float],
                                trials: int, seed: int) -> List[MonteCarloEstimate]:
    """Averaging approximation bound E[(||f||_a / K - g_avg)^2] at every alpha
    of `alphas`, from one pass over a draw of the sub-stream (seed, 1, 0),
    one block of rows at a time: each block's row means g_avg are taken, the
    block is loaded rescaled (`features._RowSums.load_rescaled`), and every
    alpha's squared errors and their squares are reduced to the block's node
    sums (`_mc.PairwiseSum`). The max form is `max_approx_error_bound`."""
    if any(alpha < 1.0 for alpha in alphas):
        raise ValueError("alpha must be >= 1")
    row_sums, sums = feat._RowSums(k, trials), PairwiseSum(trials, feat._BLOCK_ROWS)
    work = np.empty(2 * len(alphas) * row_sums.most)
    for x in feat.draw_blocks(model, rng_from(seed, 1, 0), trials, k):
        rows, g_avg = len(x), x.mean(axis=1)
        row_sums.load_rescaled(x)
        sq = work[:2 * len(alphas) * rows].reshape(len(alphas), 2, rows)
        e2, e4 = sq[:, 0], sq[:, 1]
        for alpha, norm in zip(alphas, e2):
            row_sums.norms(alpha, norm)
            norm /= k
            norm -= g_avg
        np.square(e2, out=e2)
        np.multiply(e2, e2, out=e4)
        sums.add(sq)
    return [estimate_from_sums(*pair, trials, "average_approx_error_bounds")
            for pair in sums.total()]


def tradeoff_curve(model: FeatureModel, k: int, p_rx_w: float,
                   noise_power_w: float, alpha_grid: Sequence[float],
                   trials: int = 200_000, seed: int = 0) -> Tuple[List[dict], List[str]]:
    """Noise-bound and approximation-bound columns along an alpha grid.

    Returns (rows, diagnostics). Each row holds alpha, the noise bound, its
    asymptote, the max-approximation bound, and their sum. When the power to
    noise ratio is at least one, the asymptote must be nondecreasing and the
    approximation bound nonincreasing along the grid; violations are reported
    as diagnostics (they indicate a numeric fault, not a statistical one).
    """
    alpha_grid = list(alpha_grid)
    if len(alpha_grid) < 2 or sorted(alpha_grid) != alpha_grid:
        raise ValueError("alpha_grid must be ascending with at least 2 points")
    fmax_sq = feat.max_second_moment(model, k, trials=trials, seed=seed).value
    rows = []
    for alpha in alpha_grid:
        delta = noise_error_bound(feat.normalization_moments(model, alpha), p_rx_w,
                                  noise_power_w)
        eps_m = max_approx_error_bound(alpha, k, fmax_sq)
        rows.append({
            "alpha": alpha,
            "noise_bound": delta,
            "noise_bound_asymptotic": noise_error_asymptote(alpha, p_rx_w, noise_power_w),
            "approx_bound_max": eps_m,
            "bound_sum": delta + eps_m,
        })
    diagnostics = []
    if p_rx_w >= noise_power_w:
        for prev, cur in zip(rows, rows[1:]):
            if cur["noise_bound"] < prev["noise_bound"] * (1.0 - 1e-12):
                diagnostics.append(
                    f"noise bound decreased between alpha={prev['alpha']} and {cur['alpha']}")
    for prev, cur in zip(rows, rows[1:]):
        if cur["approx_bound_max"] > prev["approx_bound_max"] * (1.0 + 1e-12):
            diagnostics.append(
                f"approximation bound increased between alpha={prev['alpha']} and {cur['alpha']}")
    return rows, diagnostics


def accuracy_lower_bounds(margin: float, clean_accuracy: float, n_dims: int,
                          d_sigma: float) -> Tuple[float, float]:
    """Accuracy lower bounds of a classifier with the given feature-space
    margin and clean accuracy R0, given the summed feature error d_sigma
    over n_dims dimensions.

    Returns (markov_bound, chi_bound): the distribution-free bound
    R0 (1 - d_sigma / margin^2) clipped at zero, and the tighter bound
    R0 P(N/2, N margin^2 / (2 d_sigma)) for averaging with Gaussian
    per-dimension error.
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    if not (0.0 <= clean_accuracy <= 1.0):
        raise ValueError("clean_accuracy must lie in [0, 1]")
    if d_sigma < 0:
        raise ValueError("d_sigma must be >= 0")
    r0 = clean_accuracy
    if d_sigma == 0.0:
        return r0, r0
    markov = r0 * max(0.0, 1.0 - d_sigma / margin ** 2)
    chi = r0 * regularized_gamma_p(n_dims / 2.0, n_dims * margin ** 2 / (2.0 * d_sigma))
    return markov, chi


@dataclass(frozen=True)
class GoodnessOfFit:
    """Kolmogorov-style distance against a reference CDF."""

    statistic: float
    critical_1pct: float
    trials: int

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical_1pct


def chi_error_check(cfg: AirPoolConfig, n_dims: int, trials: int = 100_000,
                    seed: int = 0) -> GoodnessOfFit:
    """Check that the averaging error-vector norm follows a scaled chi law.

    Simulates the per-dimension error xi/beta of `cfg`, an averaging
    configuration at alpha = 1 (so beta = K), forms the Euclidean norm over
    n_dims dimensions, and measures the empirical-CDF max distance against chi
    with n_dims degrees of freedom (evaluated through the regularized gamma
    function). The 1 percent critical value is the asymptotic
    1.6276/sqrt(trials). The errors are drawn, and the CDF is evaluated at
    the sorted norms, one block of rows at a time (the blocks of the draw
    stack to the one-shot draw), so only the norms are held.
    """
    if trials < feat.MIN_MC_TRIALS:
        raise ValueError("chi_error_check requires trials >= 10^4")
    scale = math.sqrt(cfg.noise_sigma_sq) / cfg.beta
    rng, r, gaps = rng_from(seed), np.empty(trials), []
    blocks = [(a, min(a + feat._BLOCK_ROWS, trials))
              for a in range(0, trials, feat._BLOCK_ROWS)]
    for a, b in blocks:
        e = rng.standard_normal((b - a, n_dims)) * scale
        r[a:b] = np.sqrt((e * e).sum(axis=1)) / scale
    r.sort()
    for a, b in blocks:
        cdf = regularized_gamma_p(n_dims / 2.0, 0.5 * r[a:b] * r[a:b])
        steps = np.arange(a + 1, b + 1) / trials
        gaps.append(np.max(np.maximum(np.abs(steps - cdf), np.abs(steps - 1.0 / trials - cdf))))
    return GoodnessOfFit(float(np.max(gaps)), 1.6276 / math.sqrt(trials), trials)
