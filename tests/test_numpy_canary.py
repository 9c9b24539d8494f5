"""The numpy behaviour that the pinned CSV bytes rest on.

Every pinned CSV (`configs/csv_sha256.txt`, `demos/csv_sha256.txt` and the
benchmark's seed-commit list) assumes two things of numpy: a Generator
draws the same numbers for a seed, and `sum` adds in the pairwise order
that `features._pairwise_sum` and `_mc.PairwiseSum` reproduce block by
block. These tests pin both on small inputs, with hashes recorded with
numpy 2.4.6, so that a numpy which changes either fails here, naming its
version and dispatch target, and not only in a CSV hash.

Two ways to vectorize the block sums give other bits, measured with numpy
2.4: `np.add.reduceat` along a middle axis does not add in sequence (its
sums of m = 16 to 300 terms differed from sequential adds), while
`np.add.reduce` over a leading axis does; and `np.power(s, exponents[:,
None])` with an array exponent gives other bits than one scalar exponent
per row (at 0.5, where the scalar takes a square root), so the callers
power row by row.
"""

import hashlib

import numpy as np
import pytest

from airpool import features as feat
from airpool._mc import PAIRWISE_RUN, PairwiseSum, pairwise_nodes, rng_from
from airpool.features import FeatureModel
from oracles import numpy_dispatch_target

MODELS = [FeatureModel.rectified_gaussian(), FeatureModel.uniform01(),
          FeatureModel.exponential_unit(),
          FeatureModel.empirical([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])]

# sha256 of model.draw(rng_from(2023, 0), (256, 12)).tobytes().
DRAW_SHA256 = {
    "rectified_gaussian": "8b72389f3d83661003bceb8cbd7de3cc266a262d75b900c56a92eb9cc7929397",
    "uniform01": "0a639432694e190174ca21a6dfbd89566bdfc950f267edd18816048d73f1a677",
    "exponential_unit": "83359dc6e57f910ef437b9366ee116945e5de630d7708c21486294a1decc8fbd",
    "empirical": "9a06aeed6c73ec424a266ff0b477e551d660d3de37461e750a618984d696fe2b",
}

# The term counts around numpy's 8 accumulators and its 128-term run, and
# one that halves several times.
TERMS = (7, 8, 127, 128, 129, 3125)

# sha256 of the row sums x.sum(axis=1) of `crafted(n)`, for n in TERMS in order.
SUM_SHA256 = "3cad1d9d2c0b4f4b0ffadaffdcccbceccfa3dd7f72fc2cdd6b9740e42e67a2c5"


def where() -> str:
    return f"numpy {np.__version__} dispatching to {numpy_dispatch_target()}"


def sha256(x: np.ndarray) -> str:
    return hashlib.sha256(x.tobytes()).hexdigest()


def crafted(n: int, rows: int = 5) -> np.ndarray:
    """(rows, n) terms >= 0 over 17 decades, made by float arithmetic alone,
    whose sums depend on the order of the adds."""
    return np.array([[(i * 0.6180339887498949 + r * 0.25) % 1.0 * 10.0 ** ((7 * i + r) % 17 - 8)
                      for i in range(n)] for r in range(rows)])


@pytest.mark.parametrize("model", MODELS, ids=lambda model: model.kind)
def test_first_draws(model):
    x = model.draw(rng_from(2023, 0), (256, 12))
    assert sha256(x) == DRAW_SHA256[model.kind], \
        f"{where()}: the first draws of the {model.kind} model changed"


def test_numpy_sums():
    sums = np.concatenate([crafted(n).sum(axis=1) for n in TERMS])
    assert sha256(sums) == SUM_SHA256, f"{where()}: numpy's row sums changed"


@pytest.mark.parametrize("n", TERMS)
def test_pairwise_sum_is_numpys_sum(n):
    x = crafted(n)
    got = np.empty(len(x))
    feat._pairwise_sum(np.ascontiguousarray(x.T), got, np.empty((14, len(x))))
    assert got.tobytes() == x.sum(axis=1).tobytes(), \
        f"{where()}: features._pairwise_sum of {n} terms differs from numpy's sum"


@pytest.mark.parametrize("n", TERMS)
def test_block_sums_are_numpys_sum(n):
    x, sums, start = crafted(n), PairwiseSum(n, PAIRWISE_RUN), 0
    for m in pairwise_nodes(n, PAIRWISE_RUN):
        sums.add(x[:, start:start + m])
        start += m
    assert sums.total().tobytes() == x.sum(axis=1).tobytes(), \
        f"{where()}: _mc.PairwiseSum of {n} terms differs from numpy's sum"
