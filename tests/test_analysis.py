"""Error estimation, closed-form bounds, tradeoff curves, and the
margin-based accuracy translation."""

import math
import tracemalloc

import numpy as np
import pytest

from airpool import analysis, features as feat, optimizer
from airpool._mc import MonteCarloEstimate, rng_from
from airpool.channel import db_to_linear
from airpool.features import FeatureModel
from airpool.pooling import AirPoolConfig, PoolingMode
from airpool.specfun import ln_gamma, regularized_gamma_p
from oracles import dense_average_approx_bound, dense_errors_grid, pool_noisy_and_clean

RG = FeatureModel.rectified_gaussian()
K = 12


def gamma_form_noise_bound(alpha, p_rx_w, noise_power_w):
    """Oracle of the rectified-Gaussian noise bound: its gamma-function
    closed form, evaluated in logs as an expression separate from the
    library's moment route."""
    if noise_power_w == 0.0:
        return 0.0
    ln_a = ln_gamma(alpha + 0.5)
    ln_b = 2.0 * ln_gamma((alpha + 1.0) / 2.0) - math.log(2.0 * math.sqrt(math.pi))
    ln_bracket = ln_a + math.log1p(-math.exp(ln_b - ln_a))
    ln_inner = math.log(noise_power_w) - math.log(p_rx_w) \
        - 0.5 * math.log(math.pi) + (alpha - 1.0) * math.log(2.0) + ln_bracket
    return math.exp(ln_inner / alpha)


def snr_config(mode_kind, alpha, snr_db, seed=0):
    p_rx = db_to_linear(snr_db)
    if mode_kind == "max":
        beta = optimizer.BetaTable(RG, K, beta_trials=300_000, seed=seed)[alpha]
        return AirPoolConfig.for_max(RG, alpha, beta, p_rx, 1.0)
    return AirPoolConfig.for_average(RG, K, p_rx, 1.0, alpha)


class TestEstimateErrors:
    """One configuration at a time: a sweep of one."""

    def test_average_zero_noise_is_exact(self):
        cfg = AirPoolConfig.for_average(RG, K, 1.0, 0.0)
        err = analysis.estimate_errors_grid(RG, [cfg], K, trials=20_000, seed=1)[0]
        assert err.total.value <= 1e-28
        assert err.chan.value <= 1e-28
        assert err.appr.value <= 1e-28

    def test_average_noisy_matches_noise_model(self):
        # At alpha=1 the estimate is the true average plus xi/K, apart from
        # rare clipping events; 12 dB keeps those negligible.
        cfg = AirPoolConfig.for_average(RG, K, db_to_linear(12.0), 1.0)
        err = analysis.estimate_errors_grid(RG, [cfg], K, trials=100_000, seed=2)[0]
        theory = cfg.noise_sigma_sq / K ** 2
        assert abs(err.total.value - theory) <= 4.0 * err.total.std_error + 0.02 * theory

    def test_max_mode_decomposition_constant(self):
        cfg = snr_config("max", 8.0, 6.0)
        err = analysis.estimate_errors_grid(RG, [cfg], K, trials=50_000, seed=3)[0]
        assert analysis.decomposition_c0(cfg.mode, cfg.alpha) == 2
        assert analysis.decomposition_slack(err, 2) >= 0.0

    def test_average_alpha_one_decomposition_is_equality(self):
        cfg = AirPoolConfig.for_average(RG, K, db_to_linear(6.0), 1.0)
        err = analysis.estimate_errors_grid(RG, [cfg], K, trials=50_000, seed=4)[0]
        assert analysis.decomposition_c0(cfg.mode, cfg.alpha) == 1
        assert err.appr.value == 0.0
        assert err.total.value == pytest.approx(err.chan.value, rel=1e-12)

    def test_trial_floor_enforced(self):
        cfg = AirPoolConfig.for_average(RG, K, 1.0, 0.0)
        with pytest.raises(ValueError):
            analysis.estimate_errors_grid(RG, [cfg], K, trials=100, seed=0)[0]


class TestDecompositionConstant:
    def test_average_at_alpha_one(self):
        assert analysis.decomposition_c0(PoolingMode.average(), 1.0) == 1

    def test_average_above_alpha_one(self):
        assert analysis.decomposition_c0(PoolingMode.average(), 2.0) == 2

    def test_max_always_two(self):
        assert analysis.decomposition_c0(PoolingMode.max(), 1.0) == 2
        assert analysis.decomposition_c0(PoolingMode.max(), 64.0) == 2


class TestNoiseBound:
    def test_alpha_one_value(self):
        nu1_sq = 0.5 - 1.0 / (2.0 * math.pi)
        got = analysis.noise_error_bound(feat.normalization_moments(RG, 1.0),
                                         p_rx_w=4.0, noise_power_w=1.0)
        assert got == pytest.approx(nu1_sq / 4.0, rel=1e-12)

    def test_gamma_form_matches_generic(self):
        for alpha in np.linspace(1.0, 64.0, 40):
            a = analysis.noise_error_bound(feat.normalization_moments(RG, float(alpha)),
                                           2.0, 0.3)
            b = gamma_form_noise_bound(float(alpha), 2.0, 0.3)
            assert abs(a - b) <= 1e-10 * abs(a)

    def test_zero_noise(self):
        assert analysis.noise_error_bound(feat.normalization_moments(RG, 4.0), 1.0,
                                          0.0) == 0.0
        assert gamma_form_noise_bound(4.0, 1.0, 0.0) == 0.0
        for alpha in [1.0, 4.0, 128.0]:
            assert analysis.noise_error_asymptote(alpha, 1.0, 0.0) == 0.0

    def test_scalar_root_difference_inequality(self):
        # |((a+b)+)^(1/alpha) - a^(1/alpha)| <= |b|^(1/alpha) for a >= 0,
        # which drives the noise bound.
        rng = np.random.default_rng(5)
        for _ in range(2000):
            a = float(rng.exponential(2.0))
            b = float(rng.standard_normal() * 2.0)
            alpha = float(rng.uniform(1.0, 64.0))
            lhs = abs(max(a + b, 0.0) ** (1.0 / alpha) - a ** (1.0 / alpha))
            assert lhs <= abs(b) ** (1.0 / alpha) + 1e-12


class TestNoiseAsymptote:
    def test_unit_base(self):
        p = 1.0
        noise = math.sqrt(2.0) * p
        for alpha in [1.0, 4.0, 32.0]:
            assert analysis.noise_error_asymptote(alpha, p, noise) == \
                pytest.approx(2.0 / math.e * alpha, rel=1e-12)

    def test_ratio_tightens_with_alpha(self):
        p, noise = 10.0, 1.0
        r64 = analysis.noise_error_asymptote(64.0, p, noise) / \
            gamma_form_noise_bound(64.0, p, noise)
        r8 = analysis.noise_error_asymptote(8.0, p, noise) / \
            gamma_form_noise_bound(8.0, p, noise)
        assert abs(r64 - 1.0) <= 0.05
        assert abs(r64 - 1.0) < abs(r8 - 1.0)

    def test_derivative_approaches_two_over_e(self):
        d = analysis.noise_error_asymptote_derivative(64.0, 10.0, 1.0)
        assert abs(d / (2.0 / math.e) - 1.0) <= 0.05
        fd = (analysis.noise_error_asymptote(64.0 + 1e-4, 10.0, 1.0)
              - analysis.noise_error_asymptote(64.0 - 1e-4, 10.0, 1.0)) / 2e-4
        assert d == pytest.approx(fd, rel=1e-6)


def dense_error_moments(model, cfg, k, trials, seed):
    """Per-configuration oracle of the error means and SEs: its own draw
    from (seed, 0, 0), dense powers, and noise drawn by the pooling pipeline
    itself."""
    rng = rng_from(seed, 0, 0)
    f = model.draw(rng, (trials, k))
    g_hat, g_clean, g_true = pool_noisy_and_clean(f, cfg, rng)
    sq = np.stack([(g_hat - g_true) ** 2, (g_hat - g_clean) ** 2,
                   (g_clean - g_true) ** 2])
    means = sq.sum(axis=1) / trials
    ses = np.sqrt(np.maximum((sq * sq).sum(axis=1) / trials - means ** 2, 0.0)
                  / trials)
    return tuple(means) + tuple(ses)


class TestEstimateErrorsGrid:
    GRID = [1.0, 2.0, 5.5, 128.0]

    @pytest.mark.parametrize("mode_kind", ["max", "average"])
    @pytest.mark.parametrize("k", [3, 12])
    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("noise", [0.0, 1.0])
    def test_bit_identical_to_dense_per_config_oracle(self, mode_kind, k,
                                                       seed, noise):
        mode = PoolingMode.max() if mode_kind == "max" else PoolingMode.average()
        betas = optimizer.BetaTable(RG, k, beta_trials=20_000, seed=seed)
        cfgs = [optimizer.config_for(RG, mode, k, alpha, 10.0, noise, betas)
                for alpha in self.GRID]
        errs = analysis.estimate_errors_grid(RG, cfgs, k, trials=10_000, seed=seed)
        for cfg, err in zip(cfgs, errs):
            got = (err.total.value, err.chan.value, err.appr.value,
                   err.total.std_error, err.chan.std_error, err.appr.std_error)
            assert got == dense_error_moments(RG, cfg, k, 10_000, seed)

    @pytest.mark.parametrize("mode_kind", ["max", "average"])
    def test_mixed_snr_grid_matches_per_point_calls(self, mode_kind):
        # Each configuration scales the shared unit noise by its own power,
        # so one grid may mix SNRs (and zero noise) and repeat an alpha.
        mode = PoolingMode.max() if mode_kind == "max" else PoolingMode.average()
        betas = optimizer.BetaTable(RG, K, beta_trials=20_000, seed=4)
        points = [(1.0, 0.0), (1.0, 12.0), (4.0, 6.0), (4.0, -3.0), (16.0, 0.0),
                  (2.0, 6.0)]
        cfgs = [optimizer.config_for(RG, mode, K, alpha, db_to_linear(snr_db),
                                     0.0 if snr_db == 6.0 else 1.0, betas)
                for alpha, snr_db in points]
        errs = analysis.estimate_errors_grid(RG, cfgs, K, trials=10_000, seed=4)
        for cfg, err in zip(cfgs, errs):
            assert err == analysis.estimate_errors_grid(RG, [cfg], K, trials=10_000,
                                                        seed=4)[0]

    @pytest.mark.parametrize("k", [3, 12])
    @pytest.mark.parametrize("noise", [0.0, 1.0])
    def test_mixed_modes_match_per_mode_calls(self, k, noise):
        # Both modes share the draw, the unit noise and each alpha's powered
        # sums; interleaved modes, alphas and powers, with repeats, give each
        # mode's own sweep field for field, in input order.
        betas = optimizer.BetaTable(RG, k, beta_trials=20_000, seed=5)
        points = [("max", 4.0, 10.0), ("average", 1.0, 10.0), ("average", 4.0, 3.0),
                  ("max", 1.0, 0.5), ("max", 4.0, 3.0), ("average", 16.0, 10.0),
                  ("max", 128.0, 10.0), ("average", 4.0, 10.0), ("max", 4.0, 10.0)]
        cfgs = [optimizer.config_for(RG, PoolingMode(kind), k, alpha, p_rx, noise, betas)
                for kind, alpha, p_rx in points]
        errs = analysis.estimate_errors_grid(RG, cfgs, k, trials=10_000, seed=5)
        for kind in ("max", "average"):
            own = [cfg for cfg in cfgs if cfg.mode.kind == kind]
            assert [err for cfg, err in zip(cfgs, errs) if cfg.mode.kind == kind] \
                == analysis.estimate_errors_grid(RG, own, k, trials=10_000, seed=5)
        if noise == 0.0:  # the unit noise, scaled by 0.0, changes no bit
            for err in errs:
                assert (err.chan.value, err.chan.std_error) == (0.0, 0.0)
                assert err.total == err.appr

    def test_weighted_sum_rejected(self):
        # The sweep powers raw features, which a weighted sum does not send.
        cfg = AirPoolConfig.for_weighted_sum(RG, [0.5, 0.5], 1.0, 0.0)
        with pytest.raises(ValueError, match="max and average"):
            analysis.estimate_errors_grid(RG, [cfg], 2, trials=10_000, seed=0)


MODELS = [RG, FeatureModel.uniform01(), FeatureModel.exponential_unit(),
          FeatureModel.empirical([0.0, 0.0, 0.3, 1.0, 2.5, 0.0, 4.0])]


class TestStreamedAgainstDenseOracles:
    """The error sweep and the averaging bound make one pass over their draw,
    block by block; their estimates, signed zeros included, are those of the
    dense one-shot oracles."""

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("k", [5, 12, 17])
    @pytest.mark.parametrize("trials", [12_345, 20_000])
    def test_errors_grid(self, model, k, trials):
        cfgs = [cfg for alpha in (1.0, 2.0, 7.5, 64.0) for noise in (0.0, 1.0)
                for cfg in (AirPoolConfig.for_max(model, alpha, math.sqrt(k), 10.0, noise),
                            AirPoolConfig.for_average(model, k, 10.0, noise, alpha))]
        got = analysis.estimate_errors_grid(model, cfgs, k, trials=trials, seed=9)
        assert repr(got) == repr(dense_errors_grid(model, cfgs, k, trials, 9))
        quiet = [cfg for cfg in cfgs if cfg.noise_power_w == 0.0]
        got = analysis.estimate_errors_grid(model, quiet, k, trials=trials, seed=9)
        assert repr(got) == repr(dense_errors_grid(model, quiet, k, trials, 9))

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("k", [5, 12, 17])
    @pytest.mark.parametrize("trials", [12_345, 20_000])
    def test_average_approx_error_bounds(self, model, k, trials):
        alphas = [1.0, 2.0, 7.5, 64.0, 128.0]
        got = analysis.average_approx_error_bounds(model, k, alphas, trials=trials, seed=9)
        assert repr(got) == repr([
            MonteCarloEstimate(*dense_average_approx_bound(model, k, alpha, trials, 9), trials)
            for alpha in alphas])

    def test_error_sweep_peak_memory_below_dense_draw(self):
        # One pass, one block of rows at a time, the unit noise too: only
        # block-sized rows are held, about 0.29x of the dense (trials, K)
        # draw. Holding the unit noise whole read 0.37x; the compacted draw
        # and trials-sized rows of true pools, powered sums and errors 1.56x.
        trials, k = 100_000, 12
        cfgs = [cfg for alpha in (1.0, 4.0, 16.0)
                for cfg in (AirPoolConfig.for_max(RG, alpha, 2.0, 10.0, 1.0),
                            AirPoolConfig.for_average(RG, k, 10.0, 1.0, alpha))]
        tracemalloc.start()
        try:
            analysis.estimate_errors_grid(RG, cfgs, k, trials=trials, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.33 * trials * k * 8


class TestApproxBound:
    def test_single_sensor_is_zero(self):
        e2 = feat.max_second_moment(RG, 1, trials=20_000, seed=6).value
        assert analysis.max_approx_error_bound(8.0, 1, e2) == 0.0

    def test_vanishes_for_huge_alpha(self):
        e2 = feat.max_second_moment(RG, K, trials=100_000, seed=7).value
        assert analysis.max_approx_error_bound(1e6, K, e2) <= 1e-5 * e2

    def test_average_zero_at_alpha_one(self):
        est, = analysis.average_approx_error_bounds(RG, K, [1.0], trials=20_000, seed=8)
        assert est.value <= 1e-28

    @pytest.mark.parametrize("k", [3, 12])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_average_bit_identical_to_dense_oracle(self, k, seed):
        alphas = [1.0, 2.0, 5.5, 128.0]
        ests = analysis.average_approx_error_bounds(RG, k, alphas, trials=10_000, seed=seed)
        for alpha, est in zip(alphas, ests):
            assert (est.value, est.std_error) \
                == dense_average_approx_bound(RG, k, alpha, 10_000, seed)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            analysis.average_approx_error_bounds(RG, K, [0.5], trials=10_000, seed=0)


class TestTradeoffCurve:
    def test_monotone_columns(self):
        rows, diagnostics = analysis.tradeoff_curve(
            RG, K, p_rx_w=db_to_linear(6.0), noise_power_w=1.0,
            alpha_grid=[1.0, 2.0, 4.0, 8.0, 16.0], trials=100_000, seed=9)
        assert diagnostics == []
        eps = [r["approx_bound_max"] for r in rows]
        assert all(a > b for a, b in zip(eps, eps[1:]))
        delta = [r["noise_bound"] for r in rows]
        assert all(a <= b for a, b in zip(delta, delta[1:]))

    def test_three_distributions_cross_shape(self):
        for model in [RG, FeatureModel.uniform01(), FeatureModel.exponential_unit()]:
            rows, _ = analysis.tradeoff_curve(
                model, K, p_rx_w=db_to_linear(6.0), noise_power_w=1.0,
                alpha_grid=[1.0, 2.0, 4.0, 8.0], trials=50_000, seed=10)
            assert rows[-1]["noise_bound"] > rows[0]["noise_bound"]
            assert rows[-1]["approx_bound_max"] < rows[0]["approx_bound_max"]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            analysis.tradeoff_curve(RG, K, 1.0, 1.0, [4.0, 2.0])
        with pytest.raises(ValueError):
            analysis.tradeoff_curve(RG, K, 1.0, 1.0, [2.0])


class TestAccuracyBounds:
    def test_zero_error_gives_clean_accuracy(self):
        assert analysis.accuracy_lower_bounds(1.0, 0.93, 4, 0.0) == (0.93, 0.93)

    def test_markov_boundary(self):
        markov, chi = analysis.accuracy_lower_bounds(1.0, 0.9, 4, 1.0)
        assert markov == 0.0
        assert 0.0 <= chi <= 0.9

    def test_chi_reference_value(self):
        markov, chi = analysis.accuracy_lower_bounds(1.0, 1.0, 4, 0.5)
        assert chi == pytest.approx(regularized_gamma_p(2.0, 4.0), rel=1e-12)
        assert chi == pytest.approx(0.90842, abs=1e-5)

    def test_chi_dominates_markov(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            margin = float(rng.uniform(0.1, 3.0))
            r0 = float(rng.uniform(0.2, 1.0))
            n_dims = int(rng.integers(1, 40))
            d = float(rng.uniform(0.0, 3.0))
            markov, chi = analysis.accuracy_lower_bounds(margin, r0, n_dims, d)
            assert 0.0 <= markov <= chi + 1e-12
            assert chi <= r0 + 1e-12

    @pytest.mark.parametrize("margin,r0,d_sigma", [(0.0, 0.9, 0.1), (-1.0, 0.9, 0.1),
                                                   (1.0, 1.2, 0.1), (1.0, -0.1, 0.1),
                                                   (1.0, 0.9, -0.1)])
    def test_argument_ranges(self, margin, r0, d_sigma):
        with pytest.raises(ValueError):
            analysis.accuracy_lower_bounds(margin, r0, 4, d_sigma)


class TestChiErrorCheck:
    def test_matched_parameters_pass(self):
        cfg = AirPoolConfig.for_average(RG, 4, p_rx_w=4.0, noise_power_w=1.0)
        fit = analysis.chi_error_check(cfg, n_dims=4, trials=100_000, seed=13)
        assert fit.passed
        assert fit.statistic < fit.critical_1pct

    def test_single_dimension_half_normal(self):
        cfg = AirPoolConfig.for_average(RG, 3, p_rx_w=2.0, noise_power_w=0.5)
        fit = analysis.chi_error_check(cfg, n_dims=1, trials=100_000, seed=14)
        assert fit.passed

    def test_noise_power_scaling(self):
        # Doubling the noise power doubles the mean squared norm.
        k, n_dims, nu1_sq, p_rx = 4, 4, 0.34, 2.0
        rng = np.random.default_rng(15)
        for scale in [1.0, 2.0]:
            sigma = math.sqrt(scale * nu1_sq / p_rx) / k
            e = rng.standard_normal((100_000, n_dims)) * sigma
            mean_sq = float((e ** 2).sum(axis=1).mean())
            expected = n_dims * sigma ** 2
            assert abs(mean_sq - expected) <= 4.0 * expected * math.sqrt(2.0 / 1e5)
