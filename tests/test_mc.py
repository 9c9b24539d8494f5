"""The streamed pairwise sum of `_mc` against numpy's own sum, and the
block rule the feature draws share with it."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from airpool import features as feat
from airpool._mc import PAIRWISE_RUN, PairwiseSum, pairwise_nodes, rng_from


def mixed_terms(shape, seed, zeros, signed):
    """Terms with magnitudes from 1e-9 to 1e9 and a share of exact zeros."""
    rng = np.random.default_rng(seed)
    x = rng.random(shape) * 10.0 ** rng.uniform(-9.0, 9.0, shape)
    if signed:
        x *= rng.choice([-1.0, 1.0], shape)
    x[rng.random(shape) < zeros] = 0.0
    return x


def streamed_sum(x, most):
    """x.sum(axis=-1) through `PairwiseSum`, fed the nodes in order."""
    total, start = PairwiseSum(x.shape[-1], most), 0
    for m in pairwise_nodes(x.shape[-1], most):
        total.add(x[..., start:start + m])
        start += m
    return total.total()


class TestPairwiseSum:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(8, 20_000), seed=st.integers(0, 2 ** 32 - 1),
           zeros=st.floats(0.0, 1.0), signed=st.booleans(),
           most=st.sampled_from([PAIRWISE_RUN, 1000, feat._BLOCK_ROWS]))
    @example(n=400_000, seed=1, zeros=0.5, signed=False, most=feat._BLOCK_ROWS)
    @example(n=400_000, seed=2, zeros=0.0, signed=True, most=feat._BLOCK_ROWS)
    def test_bit_identical_to_numpy_sum(self, n, seed, zeros, signed, most):
        x = mixed_terms(n, seed, zeros, signed)
        assert streamed_sum(x, most).tobytes() == np.float64(x.sum()).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 5_000), seed=st.integers(0, 2 ** 32 - 1),
           zeros=st.floats(0.0, 1.0))
    def test_each_line_of_leading_axes_is_summed_on_its_own(self, n, seed, zeros):
        x = mixed_terms((5, 3, n), seed, zeros, signed=True)
        assert streamed_sum(x, PAIRWISE_RUN).tobytes() == x.sum(axis=-1).tobytes()

    def test_signed_zeros(self):
        # numpy's sum starts from 0.0, so a sum of -0.0 terms is 0.0.
        x = np.full(1000, -0.0)
        assert streamed_sum(x, PAIRWISE_RUN).tobytes() == np.float64(x.sum()).tobytes()

    def test_blocks_must_be_the_nodes(self):
        total = PairwiseSum(1000, PAIRWISE_RUN)
        with pytest.raises(ValueError, match="node 0"):
            total.add(np.ones(100))
        total.add(np.ones(pairwise_nodes(1000, PAIRWISE_RUN)[0]))
        with pytest.raises(ValueError, match="1 of"):
            total.total()


class TestPairwiseNodes:
    @pytest.mark.parametrize("n", [0, 1, 8, 129, 4096, 4097, 12_345, 400_000, 400_001])
    @pytest.mark.parametrize("most", [PAIRWISE_RUN, feat._BLOCK_ROWS])
    def test_nodes_tile_the_terms(self, n, most):
        nodes = pairwise_nodes(n, most)
        assert sum(nodes) == n and max(nodes) <= most

    def test_benchmark_draw_is_128_blocks(self):
        assert sorted(set(pairwise_nodes(400_000, feat._BLOCK_ROWS))) == [3120, 3128]
        assert len(pairwise_nodes(400_000, feat._BLOCK_ROWS)) == 128

    def test_draw_blocks_are_the_nodes(self):
        blocks = feat.draw_blocks(feat.FeatureModel.uniform01(), rng_from(3), 12_345, 2)
        assert [len(x) for x in blocks] == pairwise_nodes(12_345, feat._BLOCK_ROWS)
