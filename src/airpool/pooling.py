"""The over-the-air pooling protocol.

A pooled feature is produced in four steps: each sensor raises its local
feature to a configurable power alpha and normalizes it to a zero-mean
unit-variance symbol; all sensors transmit simultaneously so the channel sums
the symbols; the server de-normalizes the aggregate back to sum_k f_k^alpha
plus an equivalent Gaussian noise term; finally the server divides by a
post-processing parameter beta, clips negatives, and takes the alpha-th root.

The simulation evaluates the round in the aggregate domain: it forms
sum_k f_k^alpha and adds the equivalent Gaussian noise of the channel after
de-normalization (`aggregate_with_noise`). This is algebraically identical to
the literal symbol-domain chain, which the tests keep as an oracle, but stays
accurate at large alpha, where subtracting eta_alpha from each symbol and
adding K eta_alpha back would cancel catastrophically in float64.

alpha = 1 with beta = K reproduces the exact average; large alpha with the
optimal beta approaches the maximum. A weighted-sum variant scales features
by K * w_k at the sensors and runs the averaging configuration (with the
clipping step disabled, since weighted aggregates may be legitimately
negative).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import features as feat
from ._mc import rng_from
from .features import ALPHA_MAX, FeatureModel, MomentSet

AVERAGE = "average"
MAX = "max"
WEIGHTED_SUM = "weighted_sum"


@dataclass(frozen=True)
class PoolingMode:
    """Which pooling function the round should realize."""

    kind: str
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in (AVERAGE, MAX, WEIGHTED_SUM):
            raise ValueError(f"unknown pooling mode: {self.kind!r}")
        if self.kind == WEIGHTED_SUM:
            if self.weights is None:
                raise ValueError("weighted_sum mode requires weights")
            if not np.all(np.isfinite(self.weights)):
                raise ValueError("weights must be finite")
        elif self.weights is not None:
            raise ValueError("weights are only valid for weighted_sum mode")

    @classmethod
    def average(cls) -> "PoolingMode":
        return cls(AVERAGE)

    @classmethod
    def max(cls) -> "PoolingMode":
        return cls(MAX)

    @classmethod
    def weighted_sum(cls, weights) -> "PoolingMode":
        return cls(WEIGHTED_SUM, weights=np.asarray(weights, dtype=float))


@dataclass(frozen=True)
class AirPoolConfig:
    """Tunable state of one pooling round.

    Configurations come from the `for_*` constructors, which pin beta
    (average: beta = K^alpha, the protocol's alpha = 1 by default; max:
    beta = beta*(alpha), which the caller takes from an
    `optimizer.BetaTable`). Averaging at alpha > 1 is an analysis
    configuration: beta = K^alpha keeps its noiseless output equal to
    ||f||_alpha / K.
    """

    mode: PoolingMode
    alpha: float
    beta: float
    p_rx_w: float
    noise_power_w: float
    moments: MomentSet

    def __post_init__(self):
        if not (1.0 <= self.alpha <= ALPHA_MAX):
            raise ValueError(f"alpha must lie in [1, {ALPHA_MAX}]")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.p_rx_w <= 0:
            raise ValueError("p_rx_w must be positive")
        if self.noise_power_w < 0:
            raise ValueError("noise_power_w must be >= 0")
        if self.moments.alpha != self.alpha:
            raise ValueError("moments were computed for a different alpha")

    @property
    def noise_sigma_sq(self) -> float:
        """Variance of the equivalent post-inversion aggregation noise."""
        return self.noise_power_w * self.moments.nu_sq / self.p_rx_w

    @classmethod
    def for_average(cls, model: FeatureModel, k: int, p_rx_w: float,
                    noise_power_w: float, alpha: float = 1.0) -> "AirPoolConfig":
        """Averaging configuration at alpha: beta = K^alpha."""
        return cls(PoolingMode.average(), alpha, float(k) ** alpha, p_rx_w,
                   noise_power_w, feat.normalization_moments(model, alpha))

    @classmethod
    def for_max(cls, model: FeatureModel, alpha: float, beta: float, p_rx_w: float,
                noise_power_w: float) -> "AirPoolConfig":
        """Protocol max configuration at the given alpha and its beta*."""
        return cls(PoolingMode.max(), alpha, beta, p_rx_w, noise_power_w,
                   feat.normalization_moments(model, alpha))

    @classmethod
    def for_weighted_sum(cls, model: FeatureModel, weights, p_rx_w: float,
                         noise_power_w: float) -> "AirPoolConfig":
        """Weighted-sum via sensor-side scaling plus the averaging pipeline."""
        mode = PoolingMode.weighted_sum(weights)
        k = len(mode.weights)
        return cls(mode, 1.0, float(k), p_rx_w, noise_power_w,
                   weighted_sum_moments(model, mode.weights))


def weighted_sum_moments(model: FeatureModel, weights: np.ndarray) -> MomentSet:
    """Normalization moments of the scaled-feature mixture K*w_k*f.

    All sensors share one (eta, nu) pair so the server can de-normalize the
    aggregate exactly; the mixture moments keep the average transmit power
    near the budget.
    """
    weights = np.asarray(weights, dtype=float)
    k = len(weights)
    m1 = feat.moment_abs_power(model, 1.0)
    m2 = feat.moment_abs_power(model, 2.0)
    return MomentSet.of(1.0, float(np.mean(k * weights) * m1),
                        float(np.mean((k * weights) ** 2) * m2))


def true_pool(features: np.ndarray, mode: PoolingMode) -> np.ndarray:
    """Exact pooled value(s); the sensor axis is last."""
    features = np.asarray(features, dtype=float)
    if mode.kind == MAX:
        return features.max(axis=-1)
    if mode.kind == AVERAGE:
        return features.mean(axis=-1)
    if features.shape[-1] != len(mode.weights):
        raise ValueError("weights length must match the sensor count")
    return features @ mode.weights


def postprocess(v_hat: np.ndarray, cfg: AirPoolConfig) -> np.ndarray:
    """Pooled-feature estimate ((v_hat)+ / beta)^(1/alpha).

    The clip keeps estimates of non-negative pooled features out of the
    negative half-line; weighted-sum aggregates may be negative, so there
    the clip is skipped (and alpha is 1).
    """
    v_hat = np.asarray(v_hat, dtype=float)
    if cfg.mode.kind == WEIGHTED_SUM:
        return v_hat / cfg.beta
    return (np.maximum(v_hat, 0.0) / cfg.beta) ** (1.0 / cfg.alpha)


def powered_sum(features: np.ndarray, cfg: AirPoolConfig) -> np.ndarray:
    """sum_k v_k over the last axis (v_k = f_k^alpha, or the scaled features
    in weighted-sum mode)."""
    features = np.asarray(features, dtype=float)
    if cfg.mode.kind == WEIGHTED_SUM:
        if features.shape[-1] != len(cfg.mode.weights):
            raise ValueError("weights length must match the sensor count")
        return (features.shape[-1] * cfg.mode.weights * features).sum(axis=-1)
    if np.any(features < 0):
        raise ValueError("features must be >= 0")
    return (features ** cfg.alpha).sum(axis=-1)


def aggregate_with_noise(v_sum: np.ndarray, cfg: AirPoolConfig,
                         rng: np.random.Generator) -> np.ndarray:
    """The de-normalized aggregate sum_k v_k + xi, xi ~ N(0, sigma^2 nu^2/Prx).

    Stands for the symbol-domain chain (normalize, transmit, de-normalize);
    see the module docstring. At zero noise it draws the noise all the same,
    and v + 0.0 * noise is v for v >= +0.0.
    """
    sigma_xi = math.sqrt(cfg.noise_sigma_sq)
    return v_sum + sigma_xi * rng.standard_normal(np.shape(v_sum))


def airpool_round(features: np.ndarray, cfg: AirPoolConfig,
                  seed: int = 0) -> np.ndarray:
    """One pooling round over a K x N feature matrix; returns N estimates.

    Each feature dimension is aggregated with an independent noise draw;
    the whole round is deterministic given the seed.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError("features must be a K x N matrix")
    if cfg.moments.nu_sq <= 0.0:
        raise ValueError("degenerate feature distribution: nu is zero")
    v_sum = powered_sum(features.T, cfg)  # one entry per dimension
    v_hat = aggregate_with_noise(v_sum, cfg, rng_from(seed))
    return postprocess(v_hat, cfg)
