"""Selection of the pooling configuration parameter alpha.

For max pooling the noise bound grows with alpha while the approximation
bound shrinks, so the sum has an interior stationary point. Its closed-form
approximation uses the principal Lambert W branch; a bisection root finder
on the stationarity condition serves as the reference, and a brute-force
search over the empirical error is the ground-truth baseline. Averaging and
weighted sums always take alpha = 1.
"""

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import analysis, features as feat
from .features import ALPHA_MAX, FeatureModel
from .pooling import MAX, AirPoolConfig, PoolingMode
from .specfun import lambert_w0

CLOSED_FORM = "closed_form"
LOW_SNR_RULE = "low_snr_rule"
BRUTE_FORCE = "brute_force"


@dataclass(frozen=True)
class AlphaDecision:
    """A selected configuration parameter and how it was obtained."""

    alpha_star: float
    method: str
    rho0: float = math.nan         # low-SNR critical power ratio
    objective_value: float = math.nan
    note: str = ""

    def __post_init__(self):
        if self.alpha_star < 1.0:
            raise ValueError("alpha_star must be >= 1")


@dataclass(frozen=True)
class CalibrationConstants:
    """Affine map alpha -> c1 * alpha + c2 fitted against reference values."""

    c1: float
    c2: float
    fit_error: float


def stationarity_sides(alpha: float, k: int, p_bar: float, noise_power: float,
                       e_fmax_sq: float) -> Tuple[float, float]:
    """Both sides of the stationarity condition of the bound-sum objective.

    LHS is the growth rate of the (K^(1/alpha)-scaled) noise asymptote, RHS
    the shrink rate of the approximation bound; they cross at the surrogate
    optimum.
    """
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")
    ratio = k * noise_power / (math.sqrt(2.0) * p_bar)
    lhs = 2.0 / math.e * ratio ** (1.0 / alpha) * (
        1.0 + math.log(math.sqrt(2.0) * p_bar / noise_power) / alpha)
    rhs = e_fmax_sq * math.log(k) / alpha ** 2
    return lhs, rhs


def stationarity_residual(alpha: float, k: int, p_bar: float, noise_power: float,
                          e_fmax_sq: float) -> float:
    """LHS - RHS of the stationarity condition; zero at the surrogate optimum."""
    lhs, rhs = stationarity_sides(alpha, k, p_bar, noise_power, e_fmax_sq)
    return lhs - rhs


def bisection_alpha(k: int, p_bar: float, noise_power: float, e_fmax_sq: float) -> float:
    """Root of the stationarity condition by 200 bisection steps on
    [1, ALPHA_MAX].

    The residual is negative left of the optimum and positive right of it;
    if it is already positive at 1 the constrained optimum is alpha = 1.
    """
    lo, hi = 1.0, ALPHA_MAX
    f_lo = stationarity_residual(lo, k, p_bar, noise_power, e_fmax_sq)
    if f_lo >= 0.0:
        return lo
    f_hi = stationarity_residual(hi, k, p_bar, noise_power, e_fmax_sq)
    if f_hi <= 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if stationarity_residual(mid, k, p_bar, noise_power, e_fmax_sq) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def surrogate_objective(alpha: float, k: int, p_bar: float, noise_power: float,
                        e_fmax_sq: float) -> float:
    """Asymptotic noise bound plus max-approximation bound at this alpha."""
    return analysis.noise_error_asymptote(alpha, p_bar, noise_power) \
        + analysis.max_approx_error_bound(alpha, k, e_fmax_sq)


def low_snr_threshold(k: int, e_fmax_sq: float) -> float:
    """Critical power ratio below which alpha = 1 wins for max pooling:
    rho0 = sqrt(2) K / (e E[fmax^2|K] ln K)."""
    if k < 2:
        raise ValueError("low_snr_threshold requires k >= 2")
    return math.sqrt(2.0) * k / (math.e * e_fmax_sq * math.log(k))


def closed_form_alpha(k: int, p_bar: float, noise_power: float,
                      e_fmax_sq: float) -> AlphaDecision:
    """Closed-form near-optimal alpha for max pooling via Lambert W.

    Requires k >= 4 and p_bar / noise_power > k. The result is clamped into
    [1, ALPHA_MAX].

    It is near-optimal on the bound-sum surrogate it is derived from (within
    1.1x of the surrogate's minimum). Because those bounds are loose, it is
    sub-optimal in empirical pooling error, about 1.3x the brute-force
    optimum at K = 12, until corrected by `fit_calibration`.
    """
    if k < 4:
        raise ValueError("closed_form_alpha requires k >= 4")
    if not (p_bar / noise_power > k):
        raise ValueError("closed_form_alpha requires p_bar / noise_power > k")
    log_k = math.log(k)
    c = math.log(math.sqrt(2.0) * p_bar / (k * noise_power))
    a = c / (c + log_k)
    arg = 2.0 * c * (c + log_k) / (math.exp(1.0 + a) * e_fmax_sq * log_k)
    alpha = c / (lambert_w0(arg) + a)
    alpha = min(max(alpha, 1.0), ALPHA_MAX)
    return AlphaDecision(
        alpha_star=alpha, method=CLOSED_FORM, rho0=low_snr_threshold(k, e_fmax_sq),
        objective_value=surrogate_objective(alpha, k, p_bar, noise_power, e_fmax_sq))


def select_alpha(model: FeatureModel, k: int, p_bars: Sequence[float],
                 noise_power: float, trials: int = 200_000, seed: int = 0,
                 alpha_grid: Optional[Sequence[float]] = None) -> List[AlphaDecision]:
    """The max-pooling alpha rule's decision at each power of `p_bars`.

    Only max pooling has an alpha to choose: averaging and weighted sums
    always take alpha = 1. The rule is the low-SNR rule below the critical
    ratio rho0, the closed form when its premises hold, and brute force in
    the uncovered band (rho0 < ratio <= K) or when K < 4. Every power
    shares one E[fmax^2] draw and one beta* table, and the brute-force
    powers share one alpha-major error sweep, each decision read from its
    slice.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if trials < feat.MIN_MC_TRIALS:
        raise ValueError(f"select_alpha requires trials >= {feat.MIN_MC_TRIALS}, "
                         f"got {trials}")
    # With one sensor fmax^2 is f^2, whose mean is exact.
    e_fmax_sq = feat.max_second_moment(model, k, trials=trials, seed=seed).value if k > 1 \
        else feat.moment_abs_power(model, 2.0)
    rho0 = low_snr_threshold(k, e_fmax_sq) if k >= 2 else math.inf
    decisions: List[Optional[AlphaDecision]] = [None] * len(p_bars)
    brute_powers = []
    for i, p_bar in enumerate(p_bars):
        ratio = p_bar / noise_power
        if ratio <= rho0:
            decisions[i] = AlphaDecision(alpha_star=1.0, method=LOW_SNR_RULE, rho0=rho0,
                                         objective_value=surrogate_objective(
                                             1.0, k, p_bar, noise_power, e_fmax_sq))
        elif k >= 4 and ratio > k:
            decisions[i] = closed_form_alpha(k, p_bar, noise_power, e_fmax_sq)
        else:
            brute_powers.append((i, p_bar))
    if brute_powers:
        grid = alpha_grid if alpha_grid is not None else default_alpha_grid()
        brutes = brute_force_alpha(model, k, [p_bar for _, p_bar in brute_powers],
                                   noise_power, grid, trials, seed)
        for (i, p_bar), brute in zip(brute_powers, brutes):
            ratio = p_bar / noise_power
            note = "k < 4" if k < 4 else f"rho0 < p_bar/noise <= K ({ratio:.3g} <= {k})"
            decisions[i] = replace(brute, rho0=rho0,
                                   note=f"closed-form premises not met: {note}")
    return decisions


def default_alpha_grid(points: int = 64) -> List[float]:
    """Geometric grid on [1, ALPHA_MAX]."""
    return [float(a) for a in np.geomspace(1.0, ALPHA_MAX, points)]


class BetaTable:
    """beta*(alpha) of one (model, K, beta_trials, seed), drawn on demand.

    An experiment owns one table per feature distribution and passes it to
    `config_for` and `brute_force_alpha`, so every sweep over it, at any
    power, reuses the betas drawn so far. `fill` draws all missing alphas
    with one `optimal_beta_grid` call, each bit-identical to drawing that
    alpha alone.
    """

    def __init__(self, model: FeatureModel, k: int, beta_trials: int = 400_000,
                 seed: int = 0):
        self.model, self.k, self.beta_trials, self.seed = model, k, beta_trials, seed
        self._betas: dict = {}

    def fill(self, alphas: Sequence[float]) -> None:
        missing = [a for a in dict.fromkeys(map(float, alphas)) if a not in self._betas]
        if missing:
            estimates = feat.optimal_beta_grid(self.model, self.k, missing,
                                               trials=self.beta_trials, seed=self.seed)
            self._betas.update(zip(missing, (e.value for e in estimates)))

    def __getitem__(self, alpha: float) -> float:
        self.fill([alpha])
        return self._betas[float(alpha)]


def config_for(model: FeatureModel, mode: PoolingMode, k: int, alpha: float,
               p_rx: float, noise_power: float,
               betas: Optional[BetaTable] = None) -> AirPoolConfig:
    """Analysis configuration at a given alpha: beta*(alpha) from the table
    `betas` (built for this model and K) for max pooling, K^alpha for
    averaging."""
    if mode.kind == MAX:
        if betas is None or betas.model is not model or betas.k != k:
            raise ValueError("max pooling needs the beta table of this model and K")
        return AirPoolConfig.for_max(model, alpha, betas[alpha], p_rx, noise_power)
    return AirPoolConfig.for_average(model, k, p_rx, noise_power, alpha)


def lowest_error_alpha(alpha_grid: Sequence[float],
                       errors: Sequence[analysis.ErrorBreakdown]) -> AlphaDecision:
    """The grid alpha of least empirical error.

    Ties break toward the smaller alpha; the reduction is a lexicographic
    (error, alpha) minimum, so the result does not depend on grid order.
    """
    best = min((err.total.value, float(alpha)) for alpha, err in zip(alpha_grid, errors))
    return AlphaDecision(alpha_star=best[1], method=BRUTE_FORCE,
                         objective_value=best[0])


def brute_force_alpha(model: FeatureModel, k: int, p_bars: Sequence[float],
                      noise_power: float, alpha_grid: Sequence[float],
                      trials: int = 100_000, seed: int = 0,
                      betas: Optional[BetaTable] = None) -> List[AlphaDecision]:
    """Linear search for the max-pooling alpha minimizing the empirical
    pooling error, one decision per received power in `p_bars`.

    beta*(alpha) for every grid alpha missing from `betas` (a table of its
    own when None) comes from one draw. The error features are drawn once
    and shared by every (alpha, power) pair of one alpha-major sweep, each
    error bit-identical to its own run; `lowest_error_alpha` picks the
    minimum of each power's slice.
    """
    grid = [float(a) for a in alpha_grid]
    if not grid or sorted(grid) != grid:
        raise ValueError("alpha_grid must be nonempty and ascending")
    if trials < feat.MIN_MC_TRIALS:
        raise ValueError(f"brute_force_alpha requires trials >= {feat.MIN_MC_TRIALS}")
    betas = betas if betas is not None else BetaTable(model, k, seed=seed)
    betas.fill(grid)
    cfgs = [config_for(model, PoolingMode.max(), k, alpha, p_bar, noise_power, betas)
            for alpha in grid for p_bar in p_bars]
    errors = analysis.estimate_errors_grid(model, cfgs, k, trials=trials, seed=seed)
    return [lowest_error_alpha(grid, errors[j::len(p_bars)]) for j in range(len(p_bars))]


def fit_calibration(pairs: Sequence[Tuple[float, float]], k: int,
                    e_fmax_sq: float) -> CalibrationConstants:
    """Least-squares affine calibration of the closed form against references.

    `pairs` holds (snr_linear, alpha_reference) rows; the predictor is the
    closed-form alpha at p_bar = snr_linear under unit noise. Returns the fitted
    (c1, c2) of alpha_ref ~ c1 * alpha_closed + c2 and the mean squared
    residual.

    The references must come from power ratios other than the ones the
    calibrated alpha is judged at, and from a fine grid such as the 64-point
    `default_alpha_grid()`. On a 16-point grid the brute-force references
    quantise to grid points and the fit degrades: at K = 12 the references
    at power ratios 3e3 and 3e4 both land on 5.04, and the mean squared
    residual rises from 0.012 to 0.095.
    """
    if len(pairs) < 3:
        raise ValueError("fit_calibration requires at least 3 pairs")
    predictors = np.array([
        closed_form_alpha(k, snr, 1.0, e_fmax_sq).alpha_star
        for snr, _ in pairs])
    targets = np.array([ref for _, ref in pairs], dtype=float)
    if np.ptp(predictors) < 1e-12:
        raise ValueError("degenerate design: all closed-form alphas are equal")
    design = np.column_stack([predictors, np.ones_like(predictors)])
    (c1, c2), *_ = np.linalg.lstsq(design, targets, rcond=None)
    residual = float(np.mean((design @ np.array([c1, c2]) - targets) ** 2))
    return CalibrationConstants(float(c1), float(c2), residual)
