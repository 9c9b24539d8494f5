"""Synthetic end-to-end sensing task.

A desk-scale stand-in for a multi-view recognition pipeline: K = 4 views of
N = 4 non-negative features per sample, a binary label derived from the
noiselessly pooled feature vector, a small fully-connected classifier trained
with plain mini-batch gradient descent in preallocated workspaces (a step
allocates nothing), and an evaluation loop that feeds pooled-over-the-air
features back into the classifier to measure accuracy against feature error.

On 32-row batches numpy's per-call overhead is most of a training step, so
products go through `np.dot` (less dispatch than `np.matmul`), scalar
operands are 0-d float64 arrays bound once (numpy converts a Python scalar
on every call) and row gathers are `np.take`: each is faster with the same
bits (`tests/test_numpy_canary.py` checks the products).
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


def _layer_views(shapes):
    """A zeroed flat vector and its consecutive views, one per shape."""
    sizes = [math.prod(shape) for shape in shapes]
    flat, starts = np.zeros(sum(sizes)), [sum(sizes[:i]) for i in range(len(sizes))]
    return flat, [flat[a:a + n].reshape(s) for a, n, s in zip(starts, sizes, shapes)]


class ShallowClassifier:
    """Two tanh hidden layers and a softmax output, trained by plain SGD.

    Layer widths n_inputs, HIDDEN_WIDTH, HIDDEN_WIDTH, N_CLASSES. Every
    weight matrix and bias vector is a view into the flat `params` vector,
    laid out layer by layer as (W, b), as is `grads`. `_passes` (private: no
    trace span per training step) runs both passes in a caller's workspace.
    """

    def __init__(self, n_inputs: int, seed: int):
        rng = rng_from(seed, 11)
        shapes = [(n_inputs, HIDDEN_WIDTH), (HIDDEN_WIDTH, HIDDEN_WIDTH),
                  (HIDDEN_WIDTH, N_CLASSES)]
        layout = [part for fan_in, fan_out in shapes for part in ((fan_in, fan_out), (fan_out,))]
        (self.params, parts), (self.grads, self._grad_parts) = map(_layer_views, (layout, layout))
        self.weights, self.biases = parts[::2], parts[1::2]
        for w, (fan_in, fan_out) in zip(self.weights, shapes):
            w[...] = rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)

    def _passes(self, rows: int, backward: bool = True):
        """(forward(x) -> softmax output, backward(x, onehot) -> grads) for
        batches of `rows` rows, bound once to a workspace that the caller owns:
        the hidden layers (in one array if `backward`, so 1 - h^2 of both is
        two calls), their slopes, the logits and a column, which np.maximum and
        np.add of the two logit columns fill with keepdims reductions' bits.
        Products are `np.dot` calls, and `rows` and the 1 of 1 - h^2 are 0-d
        arrays (see the module docstring)."""
        (w0, w1, w2), (b0, b1, b2) = self.weights, self.biases
        gw0, gb0, gw1, gb1, gw2, gb2 = self._grad_parts
        # Forward-only (the full-set loss), two arrays: one twice as big raised peak RSS.
        layer = (rows, HIDDEN_WIDTH)
        hidden = np.empty((2, *layer)) if backward else [np.empty(layer), np.empty(layer)]
        slope = np.empty((2, rows * backward, HIDDEN_WIDTH))
        z, column = np.empty((rows, N_CLASSES)), np.empty(rows)
        (h1, h2), (s1, s2), (z0, z1), column_2d = hidden, slope, z.T, column[:, None]
        h1t, h2t, w1t, w2t = h1.T, h2.T, w1.T, w2.T
        count, one = np.array(float(rows)), np.array(1.0)

        def forward(x):
            np.tanh(np.add(np.dot(x, w0, out=h1), b0, out=h1), out=h1)
            np.tanh(np.add(np.dot(h1, w1, out=h2), b1, out=h2), out=h2)
            np.add(np.dot(h2, w2, out=z), b2, out=z)
            np.maximum(z0, z1, out=column)
            np.exp(np.subtract(z, column_2d, out=z), out=z)
            np.add(z0, z1, out=column)
            return np.divide(z, column_2d, out=z)

        def backward_step(x, onehot):
            delta = np.divide(np.subtract(forward(x), onehot, out=z), count, out=z)
            np.subtract(one, np.multiply(hidden, hidden, out=slope), out=slope)
            np.dot(h2t, delta, out=gw2)
            np.add.reduce(delta, axis=0, out=gb2)
            np.multiply(np.dot(delta, w2t, out=h2), s2, out=h2)  # h2 takes the delta
            np.dot(h1t, h2, out=gw1)
            np.add.reduce(h2, axis=0, out=gb1)
            np.multiply(np.dot(h2, w1t, out=h1), s1, out=h1)
            np.dot(x.T, h1, out=gw0)
            np.add.reduce(h1, axis=0, out=gb0)
            return self.grads

        return forward, backward_step

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self._passes(len(x), backward=False)[0](x)

    def loss(self, x: np.ndarray, labels: np.ndarray) -> float:
        return _cross_entropy(self.predict_proba(x), labels)

    def gradients(self, x: np.ndarray, onehot: np.ndarray) -> np.ndarray:
        return self._passes(len(x))[1](x, onehot)


def _cross_entropy(p: np.ndarray, labels: np.ndarray) -> float:
    with np.errstate(divide="ignore"):
        return float(-np.mean(np.log(p[np.arange(len(labels)), labels])))


@dataclass(frozen=True)
class TrainingReport:
    classifier: ShallowClassifier
    clean_accuracy: float        # accuracy on noiselessly pooled test features
    final_loss: float
    epochs: int


@np.errstate(over="ignore", invalid="ignore")  # the finite-loss check reports divergence
def train_classifier(dataset: SyntheticDataset, epochs: int = 200,
                     learning_rate: float = 0.5, seed: int = 0) -> TrainingReport:
    """Mini-batch gradient descent on the noiselessly pooled features.

    Each epoch gathers the training rows and their one-hot targets once, in a
    seed-derived order, and steps through contiguous batches of 32 rows, in
    workspaces this call owns (ShallowClassifier._passes): one per batch length
    and a forward-only one for the full-set loss. Deterministic given (dataset,
    seed). Raises ValueError before the first epoch for epochs below 1, a
    learning rate that is not finite and > 0, or a split with an empty side;
    ArithmeticError if the loss turns non-finite, naming the last stable loss.
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
    clf = ShallowClassifier(dataset.n_features, seed)
    onehot_train = np.eye(N_CLASSES)[y_train]
    shuffle_rng = rng_from(seed, 13)
    n_train, batch_size = len(x_train), 32
    full, last = clf._passes(batch_size)[1], clf._passes(n_train % batch_size)[1]
    forward_train = clf._passes(n_train, backward=False)[0]
    rate = np.array(float(learning_rate))
    loss = _cross_entropy(forward_train(x_train), y_train)
    for epoch in range(epochs):
        last_stable = loss
        order = shuffle_rng.permutation(n_train)
        x_epoch = np.take(x_train, order, axis=0)
        targets = np.take(onehot_train, order, axis=0)
        for start in range(0, n_train, batch_size):
            stop = start + batch_size
            grads = (full if stop <= n_train else last)(x_epoch[start:stop], targets[start:stop])
            clf.params -= np.multiply(grads, rate, out=grads)
        loss = _cross_entropy(forward_train(x_train), y_train)
        if not math.isfinite(loss):
            raise ArithmeticError(
                f"training diverged at epoch {epoch + 1}; "
                f"last stable loss was {last_stable:.6g}")
    correct = clf.predict_proba(pooled[test_idx]).argmax(axis=1) == dataset.labels[test_idx]
    return TrainingReport(classifier=clf, clean_accuracy=float(correct.mean()),
                          final_loss=loss, epochs=epochs)


def gradient_check(clf: ShallowClassifier, x: np.ndarray, labels: np.ndarray) -> float:
    """Max relative error between backprop and central finite differences
    with step 1e-5, near cbrt(eps), where roundoff and truncation balance."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    grads = clf.gradients(x, np.eye(N_CLASSES)[labels])
    params, epsilon, worst = clf.params, 1e-5, 0.0
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
    hits, sq_err, count = 0.0, 0.0, trials_per_sample * len(labels)
    for trial in range(trials_per_sample):
        v_hat = aggregate_with_noise(v_sum, cfg, rng_from(seed, trial))
        g_hat = postprocess(v_hat, cfg)
        hits += float((clf.predict_proba(g_hat).argmax(axis=1) == labels).sum())
        sq_err += float(((g_hat - pooled_true) ** 2).sum(axis=1).sum())
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
    gw, decayed = np.empty_like(w), np.empty_like(w)
    b = 0.0
    learning_rate = 2.0
    rate, decay, count = np.array(learning_rate), np.array(1e-4), np.array(float(n))
    low, high, one = np.array(-500.0), np.array(500.0), np.array(1.0)
    z, r = np.empty(n), np.empty(n)
    for _ in range(4000):
        np.dot(pooled, w, out=z)
        z += b
        # r = p - y with p = 1 / (1 + exp(-clip(z, -500, 500))), in place.
        np.maximum(z, low, out=r)
        np.minimum(r, high, out=r)
        np.negative(r, out=r)
        np.exp(r, out=r)
        r += one
        np.divide(one, r, out=r)
        r -= y
        # gw = pooled.T @ r / n + decay * w, in place.
        np.divide(np.dot(pooled.T, r, out=gw), count, out=gw)
        gw += np.multiply(decay, w, out=decayed)
        gb = float(np.add.reduce(r) / count)
        w -= np.multiply(rate, gw, out=gw)
        b -= learning_rate * gb
    np.dot(pooled, w, out=z)
    z += b
    correct = (z > 0) == (y == 1)
    if not np.any(correct):
        raise ArithmeticError("linear fit classified nothing correctly")
    norm = float(np.linalg.norm(w))
    margin = float(np.min(np.abs(z[correct])) / norm)
    return LinearMarginModel(weight=w, bias=float(b), margin=margin,
                             clean_accuracy=float(correct.mean()))
