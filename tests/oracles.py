"""Reference implementations that the tests compare the library against.

The library evaluates each pooling round in the aggregate domain
(`pooling.aggregate_with_noise`). The paper's literal symbol-domain
protocol lives here: sensor-side normalization, simultaneous transmission
over the inverted channel, and server-side de-normalization. Its
composition must equal the aggregate form where float64 is healthy.

The inverse of the regularized gamma function checks the forward
`specfun.regularized_gamma_p` by round trip.
"""

import math
from typing import NamedTuple

import numpy as np

from airpool._mc import rng_from
from airpool.pooling import WEIGHTED_SUM, AirPoolConfig
from airpool.specfun import ITERATION_CAP, regularized_gamma_p


def preprocess_and_modulate(features: np.ndarray, cfg: AirPoolConfig) -> np.ndarray:
    """Per-sensor symbols s_k = (f_k^alpha - eta) / nu; sensor axis last.

    Weighted-sum mode scales f_k by K*w_k first and uses alpha = 1.
    """
    if cfg.moments.nu_sq <= 0.0:
        raise ValueError("degenerate feature distribution: nu is zero")
    features = np.asarray(features, dtype=float)
    if cfg.mode.kind == WEIGHTED_SUM:
        if features.shape[-1] != len(cfg.mode.weights):
            raise ValueError("weights length must match the sensor count")
        v = features.shape[-1] * cfg.mode.weights * features
    else:
        if np.any(features < 0):
            raise ValueError("features must be >= 0")
        v = features ** cfg.alpha
    return (v - cfg.moments.eta) / math.sqrt(cfg.moments.nu_sq)


def transmit_over_mac(symbols: np.ndarray, p_rx: float, noise_power: float,
                      seed: int = 0) -> np.ndarray:
    """Simultaneous transmission after ideal channel inversion.

    `symbols` has the sensor axis last; returns sqrt(p_rx) * sum_k s_k plus
    real zero-mean Gaussian noise of the given power per aggregated symbol.
    """
    if noise_power < 0:
        raise ValueError("noise_power must be >= 0")
    if p_rx < 0:
        raise ValueError("p_rx must be >= 0")
    symbols = np.asarray(symbols, dtype=float)
    total = math.sqrt(p_rx) * symbols.sum(axis=-1)
    if noise_power == 0.0:
        return total
    return total + math.sqrt(noise_power) * rng_from(seed).standard_normal(total.shape)


def denormalize(y: np.ndarray, cfg: AirPoolConfig, k_sensors: int) -> np.ndarray:
    """Aggregate estimate before post-processing: (nu/sqrt(Prx)) y + eta K."""
    return math.sqrt(cfg.moments.nu_sq) / math.sqrt(cfg.p_rx_w) \
        * np.asarray(y, dtype=float) + cfg.moments.eta * k_sensors


class InverseResult(NamedTuple):
    """Root of the inverse with its convergence record."""

    value: float
    converged: bool
    iterations: int


def inverse_regularized_gamma_p_result(k: float, p: float) -> InverseResult:
    """Solve P(k, x) = p for x by bracketing bisection.

    Terminates once |P(k, x) - p| <= 1e-9 (and polishes the bracket down to
    relative width 1e-14 when the cap allows).
    """
    if not (k > 0.0):
        raise ValueError(f"inverse_regularized_gamma_p requires k > 0, got k={k}")
    if not (0.0 < p < 1.0):
        raise ValueError(f"inverse_regularized_gamma_p requires 0 < p < 1, got p={p}")
    lo, hi = 0.0, max(k, 1.0)
    iters = 0
    while regularized_gamma_p(k, hi) < p:
        lo = hi
        hi *= 2.0
        iters += 1
        if iters >= ITERATION_CAP:
            return InverseResult(hi, False, iters)
    x = 0.5 * (lo + hi)
    converged = False
    while iters < ITERATION_CAP:
        iters += 1
        x = 0.5 * (lo + hi)
        fx = regularized_gamma_p(k, x)
        if fx < p:
            lo = x
        else:
            hi = x
        if abs(fx - p) <= 1e-9 and (hi - lo) <= 1e-14 * max(1.0, x):
            converged = True
            break
    return InverseResult(x, converged, iters)


def inverse_regularized_gamma_p(k: float, p: float) -> float:
    """Inverse of P(k, .) at probability p, as a plain float."""
    return inverse_regularized_gamma_p_result(k, p).value
