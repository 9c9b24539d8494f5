"""Protocol contracts: pre/post-processing, the pooling round, sandwich
bounds, and the weighted-sum variant."""

import math

import numpy as np
import pytest

from airpool import features as feat, pooling
from airpool.features import FeatureModel
from airpool.optimizer import BetaTable
from airpool.pooling import AirPoolConfig, PoolingMode
from oracles import (denormalize, pool_noisy_and_clean, preprocess_and_modulate,
                     transmit_over_mac)

RG = FeatureModel.rectified_gaussian()


def max_config(k, alpha, noise_power=0.0, p_rx=1.0, seed=0):
    beta = BetaTable(RG, k, beta_trials=200_000, seed=seed)[alpha]
    return AirPoolConfig.for_max(RG, alpha, beta, p_rx, noise_power)


class TestAggregateWithNoise:
    @pytest.mark.parametrize("cfg", [AirPoolConfig.for_average(RG, 6, 1.0, 0.0),
                                     AirPoolConfig.for_max(RG, 8.0, 2.0, 1.0, 0.0)],
                             ids=lambda cfg: cfg.mode.kind)
    def test_zero_noise_returns_the_sum_bit_for_bit(self, cfg):
        # v + 0.0 * noise is v for a sum of non-negative powers.
        v_sum = pooling.powered_sum(RG.draw(np.random.default_rng(5), (2000, 6)), cfg)
        assert np.any(v_sum == 0.0)
        got = pooling.aggregate_with_noise(v_sum, cfg, np.random.default_rng(6))
        assert got.tobytes() == v_sum.tobytes()


class TestTruePool:
    def test_max(self):
        assert pooling.true_pool(np.array([3.0, 1.0, 2.0]), PoolingMode.max()) == 3.0

    def test_average(self):
        assert pooling.true_pool(np.array([3.0, 1.0, 2.0]),
                                 PoolingMode.average()) == 2.0

    def test_weighted_sum(self):
        mode = PoolingMode.weighted_sum([0.25, 0.5])
        assert pooling.true_pool(np.array([1.0, 2.0]), mode) == pytest.approx(1.25)

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            pooling.true_pool(np.ones(3), PoolingMode.weighted_sum([1.0, 2.0]))


class TestConfigInvariants:
    def test_average_protocol_defaults(self):
        cfg = AirPoolConfig.for_average(RG, 12, 1.0, 0.1)
        assert cfg.alpha == 1.0 and cfg.beta == 12.0

    def test_average_ground_truth_beta(self):
        cfg = AirPoolConfig.for_average(RG, 12, 1.0, 0.1, alpha=3.0)
        assert cfg.beta == pytest.approx(12.0 ** 3.0)

    def test_max_beta_in_range(self):
        cfg = max_config(12, 8.0)
        assert 1.0 <= cfg.beta <= 12.0

    def test_validation(self):
        ms = feat.normalization_moments(RG, 1.0)
        with pytest.raises(ValueError):
            AirPoolConfig(PoolingMode.average(), 0.5, 12.0, 1.0, 0.0, ms)
        with pytest.raises(ValueError):
            AirPoolConfig(PoolingMode.average(), 1.0, 0.0, 1.0, 0.0, ms)
        with pytest.raises(ValueError):
            AirPoolConfig(PoolingMode.average(), 1.0, 12.0, 1.0, -1.0, ms)
        with pytest.raises(ValueError):
            AirPoolConfig(PoolingMode.average(), 2.0, 12.0, 1.0, 0.0, ms)


class TestPreprocess:
    """The sensor side of the symbol-domain oracle."""

    def test_centered_at_eta_root(self):
        cfg = max_config(12, 4.0)
        f = np.full(12, cfg.moments.eta ** 0.25)
        np.testing.assert_allclose(preprocess_and_modulate(f, cfg),
                                   0.0, atol=1e-12)

    def test_zero_feature_symbol_value(self):
        cfg = AirPoolConfig.for_average(RG, 12, 1.0, 0.0)
        s = preprocess_and_modulate(np.zeros(12), cfg)
        expected = -cfg.moments.eta / math.sqrt(cfg.moments.nu_sq)
        np.testing.assert_allclose(s, expected, rtol=1e-12)
        assert expected == pytest.approx(-0.6833, abs=5e-5)

    def test_standardization(self):
        cfg = max_config(12, 2.0)
        f = RG.draw(np.random.default_rng(0), (100_000, 12))
        s = preprocess_and_modulate(f, cfg)
        n = s.size
        assert abs(s.mean()) <= 4.0 / math.sqrt(n) * s.std()
        assert abs(s.var() - 1.0) <= 0.02

    def test_degenerate_distribution_rejected(self):
        zeros = FeatureModel.empirical([0.0, 0.0])
        ms = feat.normalization_moments(zeros, 1.0)
        cfg_kwargs = dict(mode=PoolingMode.average(), alpha=1.0, beta=2.0,
                          p_rx_w=1.0, noise_power_w=0.0, moments=ms)
        cfg = AirPoolConfig(**cfg_kwargs)
        with pytest.raises(ValueError):
            preprocess_and_modulate(np.zeros(2), cfg)

    def test_negative_features_rejected(self):
        cfg = AirPoolConfig.for_average(RG, 3, 1.0, 0.0)
        with pytest.raises(ValueError):
            preprocess_and_modulate(np.array([1.0, -0.1, 0.5]), cfg)


class TestDenormalize:
    """The server side of the symbol-domain oracle."""

    def test_exact_reconstruction_through_symbols(self):
        cfg = max_config(2, 2.0)
        f = np.array([1.0, 1.0])
        s = preprocess_and_modulate(f, cfg)
        y = transmit_over_mac(s, cfg.p_rx_w, 0.0)
        assert denormalize(y, cfg, 2) == pytest.approx(2.0, rel=1e-10)

    def test_zero_input_maps_to_mean_offset(self):
        cfg = max_config(5, 3.0)
        assert denormalize(0.0, cfg, 5) == pytest.approx(
            cfg.moments.eta * 5.0)

    def test_pure_noise_variance(self):
        cfg = AirPoolConfig.for_average(RG, 4, p_rx_w=2.0, noise_power_w=0.5)
        rng = np.random.default_rng(1)
        y = math.sqrt(cfg.noise_power_w) * rng.standard_normal(100_000)
        v_hat = denormalize(y, cfg, 4)
        sample_var = np.var(v_hat - cfg.moments.eta * 4.0)
        expected = cfg.noise_sigma_sq
        assert abs(sample_var - expected) <= 4.0 * expected * math.sqrt(2.0 / 100_000)


class TestPostprocess:
    def test_negative_clipped_to_zero(self):
        cfg = max_config(3, 2.0)
        assert pooling.postprocess(np.array([-5.0]), cfg)[0] == 0.0

    def test_unit_point(self):
        cfg = max_config(3, 2.0)
        assert pooling.postprocess(np.array([cfg.beta]), cfg)[0] == pytest.approx(1.0)

    def test_monotone(self):
        cfg = max_config(3, 4.0)
        vals = pooling.postprocess(np.linspace(-1, 5, 50), cfg)
        assert np.all(np.diff(vals) >= 0)

    def test_alpha_one_beta_k_is_exact_average(self):
        cfg = AirPoolConfig.for_average(RG, 6, 1.0, 0.0)
        f = RG.draw(np.random.default_rng(2), (1000, 6))
        v_hat = f.sum(axis=1)
        np.testing.assert_array_equal(pooling.postprocess(v_hat, cfg),
                                      v_hat / 6.0)


class TestAirpoolRound:
    def test_zero_noise_average_exact(self):
        cfg = AirPoolConfig.for_average(RG, 12, 1.0, 0.0)
        f = RG.draw(np.random.default_rng(3), (12, 40))
        out = pooling.airpool_round(f, cfg, seed=0)
        ref = f.mean(axis=0)
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    def test_zero_noise_max_tracks_true_max(self):
        cfg = max_config(12, 64.0, seed=4)
        f = RG.draw(np.random.default_rng(4), (12, 64))
        out = pooling.airpool_round(f, cfg, seed=0)
        truth = f.max(axis=0)
        rel = np.abs(out - truth) / np.where(truth > 0, truth, 1.0)
        assert rel.max() <= 0.02

    def test_single_sensor_identity(self):
        cfg = max_config(1, 7.0)
        assert cfg.beta == 1.0
        f = RG.draw(np.random.default_rng(5), (1, 30))
        out = pooling.airpool_round(f, cfg, seed=0)
        np.testing.assert_allclose(out, f[0], rtol=1e-10)

    def test_deterministic_given_seed(self):
        cfg = max_config(4, 8.0, noise_power=0.5, p_rx=2.0)
        f = RG.draw(np.random.default_rng(6), (4, 16))
        a = pooling.airpool_round(f, cfg, seed=9)
        b = pooling.airpool_round(f, cfg, seed=9)
        np.testing.assert_array_equal(a, b)
        c = pooling.airpool_round(f, cfg, seed=10)
        assert not np.array_equal(a, c)

    def test_aggregate_matches_symbol_domain_at_moderate_alpha(self):
        # The composed round evaluates the algebraically collapsed form;
        # it must agree with the literal symbol-domain chain where that
        # chain is numerically healthy.
        for alpha in [1.0, 2.0, 4.0, 8.0]:
            cfg = max_config(6, alpha, p_rx=3.0)
            f = RG.draw(np.random.default_rng(7), (200, 6))
            s = preprocess_and_modulate(f, cfg)
            y = transmit_over_mac(s, cfg.p_rx_w, 0.0)
            v_sym = denormalize(y, cfg, 6)
            v_agg = pooling.powered_sum(f, cfg)
            np.testing.assert_allclose(v_sym, v_agg, rtol=1e-9, atol=1e-9)


class TestSandwichProperty:
    @pytest.mark.parametrize("alpha", [2.0, 8.0, 64.0])
    def test_clean_output_bounded_by_scaled_max(self, alpha):
        k = 12
        cfg = max_config(k, alpha)
        f = RG.draw(np.random.default_rng(8), (5000, k))
        _, g_clean, g_true = pool_noisy_and_clean(
            f, cfg, np.random.default_rng(0))
        lo = g_true * k ** (-1.0 / alpha)
        hi = g_true * k ** (1.0 / alpha)
        assert np.all(g_clean >= lo - 1e-12)
        assert np.all(g_clean <= hi + 1e-12)

    def test_clean_max_error_nonincreasing_in_alpha(self):
        k = 12
        alphas = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
        f = RG.draw(np.random.default_rng(9), (100_000, k))
        prev_mean, prev_se = None, None
        for alpha in alphas:
            cfg = max_config(k, alpha, seed=3)
            _, g_clean, g_true = pool_noisy_and_clean(
                f, cfg, np.random.default_rng(0))
            sq = (g_clean - g_true) ** 2
            mean = sq.mean()
            se = sq.std(ddof=1) / math.sqrt(len(sq))
            if prev_mean is not None:
                assert mean <= prev_mean + 4.0 * math.hypot(se, prev_se)
            prev_mean, prev_se = mean, se


class TestWeightedSum:
    def test_exact_at_zero_noise(self):
        weights = np.array([0.3, -0.2, 0.5, 0.1, 0.6])
        cfg = AirPoolConfig.for_weighted_sum(RG, weights, 1.0, 0.0)
        f = RG.draw(np.random.default_rng(10), (5, 50))
        out = pooling.airpool_round(f, cfg, seed=0)
        np.testing.assert_allclose(out, f.T @ weights, rtol=1e-10, atol=1e-12)

    def test_negative_aggregate_not_clipped(self):
        weights = np.array([-1.0, -1.0])
        cfg = AirPoolConfig.for_weighted_sum(RG, weights, 1.0, 0.0)
        f = np.array([[1.0], [2.0]])
        out = pooling.airpool_round(f, cfg, seed=0)
        assert out[0] == pytest.approx(-3.0)

    def test_matches_true_pool(self):
        weights = np.array([0.1, 0.2, 0.7])
        cfg = AirPoolConfig.for_weighted_sum(RG, weights, 1.0, 0.0)
        f = RG.draw(np.random.default_rng(11), (100, 3))
        g_hat, g_clean, g_true = pool_noisy_and_clean(
            f, cfg, np.random.default_rng(0))
        np.testing.assert_allclose(g_clean, g_true, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(g_hat, g_true, rtol=1e-10, atol=1e-12)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            PoolingMode.weighted_sum([1.0, math.inf])
        with pytest.raises(ValueError):
            PoolingMode("average", weights=np.ones(2))
        with pytest.raises(ValueError):
            PoolingMode("weighted_sum")
