"""Reference implementations that the tests compare the library against.

The library evaluates each pooling round in the aggregate domain
(`pooling.aggregate_with_noise`). The paper's literal symbol-domain
protocol lives here: sensor-side normalization, simultaneous transmission
over the inverted channel, and server-side de-normalization. Its
composition must equal the aggregate form where float64 is healthy.

`pool_noisy_and_clean` pairs the noisy and noiseless outputs of one
round on the same feature rows, for the error-decomposition oracles.

`dense_errors_grid` and `dense_average_approx_bound` draw the features of
the error sweep and of the averaging approximation bound whole, the sweep's
unit noise after them, and power the features densely, per configuration
or alpha.

The inverse of the regularized gamma function checks the forward
`specfun.regularized_gamma_p` by round trip.

The classifier's training loop as it was written before the flat
parameter vector: a per-layer backprop over lists, a fancy-index gather
and an `np.eye` per step, and one in-place update per weight and bias.
The library's step must give the same bits.

The logistic fit of `sensing.measure_linear_margin` as it was written
before its loop worked in place: a fresh array per operation, `np.clip`
and `.mean()`. The library's fit must give the same bits.

`numpy_dispatch_target` names the x86 level of numpy's SIMD kernels, which
the bit pins that depend on it report.
"""

import math
import platform
from typing import List, NamedTuple

import numpy as np

from airpool._mc import MonteCarloEstimate, rng_from
from airpool.analysis import ErrorBreakdown
from airpool.sensing import N_CLASSES, ShallowClassifier, SyntheticDataset
from airpool.pooling import (WEIGHTED_SUM, AirPoolConfig, aggregate_with_noise,
                             postprocess, powered_sum, true_pool)
from airpool.specfun import ITERATION_CAP, regularized_gamma_p


def numpy_dispatch_target():
    """The highest x86 microarchitecture level numpy dispatches to, or the
    machine name where numpy reports none."""
    features = np._core._multiarray_umath.__cpu_features__
    return next((level for level in ("X86_V4", "X86_V3", "X86_V2")
                 if features.get(level)), platform.machine())


def dense_estimate(x) -> MonteCarloEstimate:
    """Mean of the samples x with its standard error, written out."""
    n = len(x)
    mean = float(x.sum()) / n
    return MonteCarloEstimate(
        mean, math.sqrt(max(float((x * x).sum()) / n - mean * mean, 0.0) / n), n)


def dense_errors_grid(model, cfgs, k, trials, seed) -> List[ErrorBreakdown]:
    """Oracle of `analysis.estimate_errors_grid`: the one-shot draw of the
    stream (seed, 0, 0), then its unit noise when a configuration is noisy,
    and dense powers per configuration."""
    rng = rng_from(seed, 0, 0)
    f = model.draw(rng, (trials, k))
    noise = rng.standard_normal(trials) if any(cfg.noise_power_w != 0.0 for cfg in cfgs) \
        else None
    errors = []
    for cfg in cfgs:
        v_sum, g_true = powered_sum(f, cfg), true_pool(f, cfg.mode)
        g_clean = postprocess(v_sum, cfg)
        g_hat = g_clean if cfg.noise_power_w == 0.0 else postprocess(
            v_sum + math.sqrt(cfg.noise_sigma_sq) * noise, cfg)
        errors.append(ErrorBreakdown(dense_estimate((g_hat - g_true) ** 2),
                                     dense_estimate((g_hat - g_clean) ** 2),
                                     dense_estimate((g_clean - g_true) ** 2)))
    return errors


def dense_average_approx_bound(model, k, alpha, trials, seed):
    """Per-alpha oracle of the average-mode approximation bound, drawn from
    the stream (seed, 1, 0)."""
    f = model.draw(rng_from(seed, 1, 0), (trials, k))
    fmax = f.max(axis=1)
    norm = np.zeros(trials)
    pos = fmax > 0
    norm[pos] = fmax[pos] * ((f[pos] / fmax[pos, None]) ** alpha).sum(
        axis=1) ** (1.0 / alpha)
    x = (norm / k - f.mean(axis=1)) ** 2
    mean = float(x.sum()) / trials
    return mean, math.sqrt(max(float((x * x).sum()) / trials - mean * mean, 0.0)
                           / trials)


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


def pool_noisy_and_clean(features: np.ndarray, cfg: AirPoolConfig,
                         rng: np.random.Generator):
    """Paired noisy/noiseless/true pooled values for rows of draws.

    `features` is (n, K). Returns (g_hat, g_clean, g_true) where g_hat and
    g_clean share the same feature rows (only the noise differs), which keeps
    the variance of error-decomposition estimates low.
    """
    features = np.asarray(features, dtype=float)
    if cfg.moments.nu_sq <= 0.0:
        raise ValueError("degenerate feature distribution: nu is zero")
    v_sum = powered_sum(features, cfg)
    g_clean = postprocess(v_sum, cfg)
    g_hat = g_clean if cfg.noise_power_w == 0.0 else \
        postprocess(aggregate_with_noise(v_sum, cfg, rng), cfg)
    return g_hat, g_clean, true_pool(features, cfg.mode)


class InverseResult(NamedTuple):
    """Root of the inverse with its convergence record."""

    value: float
    converged: bool
    iterations: int


def inverse_regularized_gamma_p_result(k: float, p: float) -> InverseResult:
    """Solve P(k, x) = p for x by bracketing multisection.

    Each step evaluates P at the 31 inner points that split the bracket into
    32 equal parts, in one array call, and keeps the part where P crosses p.
    Terminates once the bracket end nearer p has |P(k, x) - p| <= 1e-9 and
    the bracket has relative width 1e-14, or after ITERATION_CAP calls.
    """
    if not (k > 0.0):
        raise ValueError(f"inverse_regularized_gamma_p requires k > 0, got k={k}")
    if not (0.0 < p < 1.0):
        raise ValueError(f"inverse_regularized_gamma_p requires 0 < p < 1, got p={p}")
    lo, hi = 0.0, max(k, 1.0)
    f_lo, f_hi = 0.0, regularized_gamma_p(k, hi)
    iters = 1
    while f_hi < p:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        f_hi = regularized_gamma_p(k, hi)
        iters += 1
        if iters >= ITERATION_CAP:
            return InverseResult(hi, False, iters)
    fractions = np.arange(1, 32) / 32.0
    x, converged = hi, False
    while iters < ITERATION_CAP:
        iters += 1
        xs = lo + (hi - lo) * fractions
        fs = regularized_gamma_p(k, xs)
        i = int(np.searchsorted(fs >= p, True))  # first inner point at or above p
        if i < len(xs):
            hi, f_hi = xs[i], fs[i]
        if i > 0:
            lo, f_lo = xs[i - 1], fs[i - 1]
        x, fx = (lo, f_lo) if abs(f_lo - p) < abs(f_hi - p) else (hi, f_hi)
        if abs(fx - p) <= 1e-9 and (hi - lo) <= 1e-14 * max(1.0, x):
            converged = True
            break
    return InverseResult(float(x), converged, iters)


def inverse_regularized_gamma_p(k: float, p: float) -> float:
    """Inverse of P(k, .) at probability p, as a plain float."""
    return inverse_regularized_gamma_p_result(k, p).value


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _activations(clf: ShallowClassifier, x: np.ndarray) -> List[np.ndarray]:
    acts = [np.atleast_2d(np.asarray(x, dtype=float))]
    for layer, (w, b) in enumerate(zip(clf.weights, clf.biases)):
        z = acts[-1] @ w + b
        acts.append(_softmax(z) if layer == len(clf.weights) - 1 else np.tanh(z))
    return acts


def _loss(clf: ShallowClassifier, x: np.ndarray, labels: np.ndarray) -> float:
    p = _activations(clf, x)[-1]
    with np.errstate(divide="ignore"):
        return float(-np.mean(np.log(p[np.arange(len(labels)), labels])))


def gradients_reference(clf: ShallowClassifier, x: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy gradients as (per-layer weights, per-layer biases)."""
    acts = _activations(clf, x)
    n = len(acts[0])
    onehot = np.eye(N_CLASSES)[labels]
    delta = (acts[-1] - onehot) / n
    grads_w, grads_b = [], []
    for layer in range(len(clf.weights) - 1, -1, -1):
        grads_w.append(acts[layer].T @ delta)
        grads_b.append(delta.sum(axis=0))
        if layer > 0:
            delta = (delta @ clf.weights[layer].T) * (1.0 - acts[layer] ** 2)
    return grads_w[::-1], grads_b[::-1]


class TrainingReference(NamedTuple):
    params: np.ndarray
    final_loss: float
    clean_accuracy: float


def train_classifier_reference(dataset: SyntheticDataset, epochs: int = 200,
                               learning_rate: float = 0.5, batch_size: int = 32,
                               seed: int = 0) -> TrainingReference:
    """The same training as `sensing.train_classifier`, step by step."""
    pooled = dataset.pooled()
    train_idx, test_idx = dataset.split()
    x_train, y_train = pooled[train_idx], dataset.labels[train_idx]
    x_test, y_test = pooled[test_idx], dataset.labels[test_idx]
    clf = ShallowClassifier(dataset.n_features, seed)
    weights = [w.copy() for w in clf.weights]
    biases = [b.copy() for b in clf.biases]
    clf.weights, clf.biases = weights, biases   # off the flat vector
    shuffle_rng = rng_from(seed, 13)
    loss = _loss(clf, x_train, y_train)
    for _ in range(epochs):
        order = shuffle_rng.permutation(len(x_train))
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            grads_w, grads_b = gradients_reference(clf, x_train[batch], y_train[batch])
            for w, gw in zip(weights, grads_w):
                w -= learning_rate * gw
            for b, gb in zip(biases, grads_b):
                b -= learning_rate * gb
        loss = _loss(clf, x_train, y_train)
    accuracy = float((_activations(clf, x_test)[-1].argmax(axis=1) == y_test).mean())
    params = np.concatenate([part.reshape(-1) for w, b in zip(weights, biases)
                             for part in (w, b)])
    return TrainingReference(params=params, final_loss=loss, clean_accuracy=accuracy)


def gradient_check_reference(clf: ShallowClassifier, x: np.ndarray,
                             labels: np.ndarray, epsilon: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences,
    perturbing all weights, then all biases."""
    grads_w, grads_b = gradients_reference(clf, x, labels)
    worst = 0.0
    for params, grads in ((clf.weights, grads_w), (clf.biases, grads_b)):
        for p, g in zip(params, grads):
            flat_p, flat_g = p.reshape(-1), np.asarray(g).reshape(-1)
            for i in range(flat_p.size):
                keep = flat_p[i]
                flat_p[i] = keep + epsilon
                up = _loss(clf, x, labels)
                flat_p[i] = keep - epsilon
                down = _loss(clf, x, labels)
                flat_p[i] = keep
                numeric = (up - down) / (2.0 * epsilon)
                scale = max(abs(numeric), abs(flat_g[i]), 1e-8)
                worst = max(worst, abs(numeric - flat_g[i]) / scale)
    return worst


def linear_margin_fit_reference(dataset: SyntheticDataset, epochs: int,
                                learning_rate: float):
    """The weights and bias of the logistic fit of
    `sensing.measure_linear_margin`, one expression per step."""
    pooled = dataset.pooled()
    y = dataset.labels.astype(float)
    w = np.zeros(pooled.shape[1])
    b = 0.0
    decay = 1e-4
    for _ in range(epochs):
        z = pooled @ w + b
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        gw = pooled.T @ (p - y) / len(y) + decay * w
        gb = float((p - y).mean())
        w -= learning_rate * gw
        b -= learning_rate * gb
    return w, b
