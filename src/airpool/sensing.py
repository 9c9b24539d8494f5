"""Synthetic end-to-end sensing task.

A desk-scale stand-in for a multi-view recognition pipeline: K = 4 views of
N = 4 non-negative features per sample, a binary label derived from the
noiselessly pooled feature vector, a small fully-connected classifier trained
with plain mini-batch gradient descent, and an evaluation loop that feeds
pooled-over-the-air features back into the classifier to measure accuracy
against feature error.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._mc import rng_from
from .features import FeatureModel
from .pooling import (AirPoolConfig, PoolingMode, aggregate_with_noise, postprocess,
                      powered_sum, true_pool)

DEFAULT_VIEWS = 4
DEFAULT_FEATURES = 4
HIDDEN_WIDTH = 5
N_CLASSES = 2
TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class SyntheticDataset:
    """Multi-view samples with labels derived from the pooled ground truth."""

    views: np.ndarray            # (n, K, N), all entries >= 0
    labels: np.ndarray           # (n,), values in {0, 1}
    mode: PoolingMode            # pooling used to derive the labels
    generator_seed: int

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def k_views(self) -> int:
        return self.views.shape[1]

    @property
    def n_features(self) -> int:
        return self.views.shape[2]

    def pooled(self) -> np.ndarray:
        """Noiseless pooled feature vectors, (n, N)."""
        return true_pool(np.swapaxes(self.views, 1, 2), self.mode)

    @staticmethod
    def train_size(n_samples: int) -> int:
        """Training rows in the split of n_samples; the rest are test rows."""
        return int(round(TRAIN_FRACTION * n_samples))

    def split(self) -> Tuple[np.ndarray, np.ndarray]:
        """Deterministic train/test index split (a seed-derived permutation)."""
        order = rng_from(self.generator_seed, 77).permutation(len(self))
        cut = self.train_size(len(self))
        return order[:cut], order[cut:]


def _label_projection(rng: np.random.Generator, n_features: int):
    mix = rng.standard_normal((n_features, n_features)) / math.sqrt(n_features)
    direction = rng.standard_normal(n_features)
    return mix, direction


def generate_dataset(n_samples: int, seed: int,
                     mode: Optional[PoolingMode] = None,
                     model: Optional[FeatureModel] = None,
                     linear_labels: bool = False,
                     margin_gap: float = 0.0) -> SyntheticDataset:
    """Draw i.i.d. non-negative views, (n_samples, DEFAULT_VIEWS,
    DEFAULT_FEATURES), and label them by a pooled projection.

    The label is 1 when the projection score of the noiseless pooled vector
    exceeds the sample median, which balances the classes by construction.
    The default rule scores w . tanh(A g); the linear option scores w . g,
    which makes the classes linearly separable in feature space. With
    margin_gap > 0, samples whose normalized score falls within the gap of
    the threshold are rejected (extra samples are drawn to keep the count),
    planting a known margin around the boundary.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = rng_from(seed)
    mode = mode or PoolingMode.max()
    model = model or FeatureModel.rectified_gaussian()
    mix, direction = _label_projection(rng, DEFAULT_FEATURES)
    factor = 4 if margin_gap > 0 else 1
    views = model.draw(rng, (factor * n_samples, DEFAULT_VIEWS, DEFAULT_FEATURES))
    g = true_pool(np.swapaxes(views, 1, 2), mode)
    if linear_labels:
        score = g @ direction / np.linalg.norm(direction)
    else:
        score = np.tanh(g @ mix.T) @ direction
    tau = float(np.median(score))
    if margin_gap > 0:
        keep = np.abs(score - tau) >= margin_gap
        if keep.sum() < n_samples:
            raise ValueError("margin_gap too wide for the requested sample count")
        keep_idx = np.flatnonzero(keep)[:n_samples]
        views, score = views[keep_idx], score[keep_idx]
    else:
        views, score = views[:n_samples], score[:n_samples]
    labels = (score > tau).astype(np.int64)
    return SyntheticDataset(views=views, labels=labels, mode=mode,
                            generator_seed=seed)


def _layer_views(flat: np.ndarray, shapes):
    """Per-layer (weight matrix, bias vector) views of a flat vector laid out
    layer by layer as (W, b)."""
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in shapes:
        w_end = offset + fan_in * fan_out
        weights.append(flat[offset:w_end].reshape(fan_in, fan_out))
        biases.append(flat[w_end:w_end + fan_out])
        offset = w_end + fan_out
    return weights, biases


class ShallowClassifier:
    """Two tanh hidden layers and a softmax output, trained by plain SGD.

    Layer widths n_inputs, HIDDEN_WIDTH, HIDDEN_WIDTH, N_CLASSES. Every
    weight matrix and bias vector is a view into the flat `params` vector,
    laid out layer by layer as (W, b), and `gradients` writes into `grads`
    with the same layout, so one SGD update is `params -= learning_rate * grads`.
    """

    def __init__(self, n_inputs: int, seed: int):
        rng = rng_from(seed, 11)
        shapes = [(n_inputs, HIDDEN_WIDTH), (HIDDEN_WIDTH, HIDDEN_WIDTH),
                  (HIDDEN_WIDTH, N_CLASSES)]
        self.params = np.zeros(sum(fan_in * fan_out + fan_out
                                   for fan_in, fan_out in shapes))
        self.grads = np.zeros_like(self.params)
        self.weights, self.biases = _layer_views(self.params, shapes)
        self._grad_weights, self._grad_biases = _layer_views(self.grads, shapes)
        for w, (fan_in, fan_out) in zip(self.weights, shapes):
            w[...] = rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)

    # -- forward ----------------------------------------------------------
    def _forward(self, x: np.ndarray):
        """Both hidden activations and the softmax output for a 2-D x."""
        w0, w1, w2 = self.weights
        b0, b1, b2 = self.biases
        h1 = np.tanh(x @ w0 + b0)
        h2 = np.tanh(h1 @ w1 + b1)
        z = h2 @ w2 + b2
        z -= np.maximum.reduce(z, axis=1, keepdims=True)
        e = np.exp(z)
        e /= np.add.reduce(e, axis=1, keepdims=True)
        return h1, h2, e

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self._forward(np.atleast_2d(np.asarray(x, dtype=float)))[2]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        return float((self.predict(x) == labels).mean())

    def loss(self, x: np.ndarray, labels: np.ndarray) -> float:
        p = self.predict_proba(x)
        with np.errstate(divide="ignore"):
            return float(-np.mean(np.log(p[np.arange(len(labels)), labels])))

    # -- backward ---------------------------------------------------------
    def gradients(self, x: np.ndarray, onehot: np.ndarray) -> np.ndarray:
        """Mean cross-entropy gradient of a 2-D float batch x against its
        one-hot targets, written into and returned as `grads`."""
        w0, w1, w2 = self.weights
        gw0, gw1, gw2 = self._grad_weights
        gb0, gb1, gb2 = self._grad_biases
        h1, h2, delta = self._forward(x)
        delta -= onehot
        delta /= len(x)
        np.matmul(h2.T, delta, out=gw2)
        np.add.reduce(delta, axis=0, out=gb2)
        delta = (delta @ w2.T) * (1.0 - h2 * h2)
        np.matmul(h1.T, delta, out=gw1)
        np.add.reduce(delta, axis=0, out=gb1)
        delta = (delta @ w1.T) * (1.0 - h1 * h1)
        np.matmul(x.T, delta, out=gw0)
        np.add.reduce(delta, axis=0, out=gb0)
        return self.grads


@dataclass(frozen=True)
class TrainingReport:
    classifier: ShallowClassifier
    clean_accuracy: float        # accuracy on noiselessly pooled test features
    final_loss: float
    epochs: int


def train_classifier(dataset: SyntheticDataset, epochs: int = 200,
                     learning_rate: float = 0.5, seed: int = 0) -> TrainingReport:
    """Mini-batch gradient descent on the noiselessly pooled features.

    Each epoch gathers the training rows and their one-hot targets once, in
    a seed-derived order, and steps through contiguous batches of 32 rows.
    Deterministic given (dataset, seed). Raises ValueError before the first
    epoch for epochs below 1, a learning rate that is not finite and > 0, or
    a split with an empty side; raises ArithmeticError if the loss turns
    non-finite, reporting the last stable epoch.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not (math.isfinite(learning_rate) and learning_rate > 0.0):
        raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
    train_idx, test_idx = dataset.split()
    if len(train_idx) == 0 or len(test_idx) == 0:
        raise ValueError(f"n_samples = {len(dataset)} leaves an empty side in the "
                         f"{TRAIN_FRACTION:g} train/test split")
    pooled = dataset.pooled()
    x_train, y_train = pooled[train_idx], dataset.labels[train_idx]
    x_test, y_test = pooled[test_idx], dataset.labels[test_idx]
    clf = ShallowClassifier(dataset.n_features, seed)
    onehot_train = np.eye(N_CLASSES)[y_train]
    params = clf.params
    shuffle_rng = rng_from(seed, 13)
    n_train, batch_size = len(x_train), 32
    loss = clf.loss(x_train, y_train)
    for epoch in range(epochs):
        last_stable = loss
        order = shuffle_rng.permutation(n_train)
        x_epoch, onehot_epoch = x_train[order], onehot_train[order]
        for start in range(0, n_train, batch_size):
            stop = start + batch_size
            grads = clf.gradients(x_epoch[start:stop], onehot_epoch[start:stop])
            grads *= learning_rate
            params -= grads
        loss = clf.loss(x_train, y_train)
        if not math.isfinite(loss):
            raise ArithmeticError(
                f"training diverged at epoch {epoch + 1}; "
                f"last stable loss was {last_stable:.6g}")
    return TrainingReport(classifier=clf, clean_accuracy=clf.accuracy(x_test, y_test),
                          final_loss=loss, epochs=epochs)


def gradient_check(clf: ShallowClassifier, x: np.ndarray, labels: np.ndarray) -> float:
    """Max relative error between backprop and central finite differences
    with step 1e-5, near cbrt(eps), where roundoff and truncation balance."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    grads = clf.gradients(x, np.eye(N_CLASSES)[labels])
    params, epsilon = clf.params, 1e-5
    worst = 0.0
    for i in range(params.size):
        keep = params[i]
        params[i] = keep + epsilon
        up = clf.loss(x, labels)
        params[i] = keep - epsilon
        down = clf.loss(x, labels)
        params[i] = keep
        numeric = (up - down) / (2.0 * epsilon)
        scale = max(abs(numeric), abs(grads[i]), 1e-8)
        worst = max(worst, abs(numeric - grads[i]) / scale)
    return worst


def evaluate_accuracy(clf: ShallowClassifier, dataset: SyntheticDataset,
                      cfg: AirPoolConfig, trials_per_sample: int = 8,
                      seed: int = 0) -> Tuple[float, float]:
    """Accuracy and summed feature error of the classifier on pooled-over-
    the-air features.

    Every test sample is pooled `trials_per_sample` times with independent
    per-dimension noise; returns (mean accuracy, mean squared feature-vector
    error). Equivalent to one `airpool_round` per (sample, trial), evaluated
    batched.
    """
    if trials_per_sample < 1:
        raise ValueError("trials_per_sample must be >= 1")
    _, test_idx = dataset.split()
    pooled_true = dataset.pooled()[test_idx]
    labels = dataset.labels[test_idx]
    per_dim = np.swapaxes(dataset.views[test_idx], 1, 2)  # (n_test, N, K)
    v_sum = powered_sum(per_dim, cfg)
    hits, sq_err, count = 0.0, 0.0, 0
    for trial in range(trials_per_sample):
        v_hat = aggregate_with_noise(v_sum, cfg, rng_from(seed, trial))
        g_hat = postprocess(v_hat, cfg)
        hits += float((clf.predict(g_hat) == labels).sum())
        sq_err += float(((g_hat - pooled_true) ** 2).sum(axis=1).sum())
        count += len(labels)
    return hits / count, sq_err / count


@dataclass(frozen=True)
class LinearMarginModel:
    """A linear separator with its empirical margin on correct points."""

    weight: np.ndarray
    bias: float
    margin: float
    clean_accuracy: float

    def decision(self, g: np.ndarray) -> np.ndarray:
        return np.atleast_2d(g) @ self.weight + self.bias


def measure_linear_margin(dataset: SyntheticDataset) -> LinearMarginModel:
    """Fit a linear separator by logistic descent (4000 steps at rate 2.0)
    and report its margin.

    The margin is the minimum distance of correctly classified pooled points
    to the fitted boundary; on non-separable data, that of the correct
    subset.
    """
    pooled = dataset.pooled()
    y = dataset.labels.astype(float)
    n = len(y)
    w = np.zeros(pooled.shape[1])
    b = 0.0
    learning_rate, decay = 2.0, 1e-4
    z, r = np.empty(n), np.empty(n)
    for _ in range(4000):
        np.matmul(pooled, w, out=z)
        z += b
        # r = p - y with p = 1 / (1 + exp(-clip(z, -500, 500))), in place.
        np.maximum(z, -500.0, out=r)
        np.minimum(r, 500.0, out=r)
        np.negative(r, out=r)
        np.exp(r, out=r)
        r += 1.0
        np.divide(1.0, r, out=r)
        r -= y
        gw = pooled.T @ r / n + decay * w
        gb = float(np.add.reduce(r) / n)
        w -= learning_rate * gw
        b -= learning_rate * gb
    z = pooled @ w + b
    correct = (z > 0) == (y == 1)
    if not np.any(correct):
        raise ArithmeticError("linear fit classified nothing correctly")
    norm = float(np.linalg.norm(w))
    margin = float(np.min(np.abs(z[correct])) / norm)
    return LinearMarginModel(weight=w, bias=float(b), margin=margin,
                             clean_accuracy=float(correct.mean()))
