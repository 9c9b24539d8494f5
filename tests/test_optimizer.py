"""Alpha selection: closed form vs stationarity root vs brute force, the
low-SNR rule, dispatch, and calibration."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from airpool import analysis, features as feat, optimizer
from airpool.features import FeatureModel
from airpool.pooling import AirPoolConfig, PoolingMode

RG = FeatureModel.rectified_gaussian()
K = 12


def fmax_sq_quadrature(k: int) -> float:
    """Independent oracle for E[max_k f_k^2] under the rectified Gaussian."""
    val, err = integrate.quad(
        lambda x: x * x * k * stats.norm.cdf(x) ** (k - 1) * stats.norm.pdf(x),
        0.0, 12.0)
    assert err < 1e-9
    return val


E2_K12 = fmax_sq_quadrature(K)


class TestStationarity:
    def test_residual_is_zero_at_bisection_root(self):
        root = optimizer.bisection_alpha(K, 1e3, 1.0, E2_K12)
        lhs, rhs = optimizer.stationarity_sides(root, K, 1e3, 1.0, E2_K12)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))

    def test_residual_positive_for_large_alpha(self):
        assert optimizer.stationarity_residual(128.0, K, 1e3, 1.0, E2_K12) > 0.0

    def test_low_power_pins_root_at_one(self):
        # Just below the critical ratio the residual is already positive at
        # alpha = 1, so the constrained root sits on the boundary. (At much
        # lower ratios the asymptote surrogate loses validity: its slope
        # premise sqrt(2) p_bar >= noise fails and the residual root moves
        # interior even though the empirical error still prefers alpha = 1.)
        assert optimizer.bisection_alpha(K, 0.6, 1.0, E2_K12) == 1.0


class TestClosedForm:
    def test_reference_value_at_1e3(self):
        decision = optimizer.closed_form_alpha(K, 1e3, 1.0, E2_K12)
        root = optimizer.bisection_alpha(K, 1e3, 1.0, E2_K12)
        # Frozen from the bisection oracle: the closed form lands within 10%
        # of the stationarity root at this power ratio.
        assert decision.alpha_star == pytest.approx(3.271, abs=2e-3)
        assert root == pytest.approx(3.557, abs=2e-3)
        assert abs(decision.alpha_star - root) / root <= 0.10

    def test_gap_narrows_with_power(self):
        gaps = []
        for ratio in [1e2, 1e3, 1e4]:
            closed = optimizer.closed_form_alpha(K, ratio, 1.0, E2_K12).alpha_star
            root = optimizer.bisection_alpha(K, ratio, 1.0, E2_K12)
            gaps.append(abs(closed - root))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_alpha_increases_with_power(self):
        ratios = [50.0, 200.0, 1e3, 1e4, 1e5]
        alphas = [optimizer.closed_form_alpha(K, r, 1.0, E2_K12).alpha_star
                  for r in ratios]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))

    def test_premises_enforced(self):
        with pytest.raises(ValueError):
            optimizer.closed_form_alpha(3, 1e3, 1.0, E2_K12)
        with pytest.raises(ValueError):
            optimizer.closed_form_alpha(K, 10.0, 1.0, E2_K12)

    def test_surrogate_near_optimality(self):
        dense = np.geomspace(1.0, 128.0, 2000)
        for ratio in [1e3, 1e4]:
            decision = optimizer.closed_form_alpha(K, ratio, 1.0, E2_K12)
            best = min(optimizer.surrogate_objective(float(a), K, ratio, 1.0, E2_K12)
                       for a in dense)
            assert decision.objective_value <= 1.1 * best


class TestLowSnrThreshold:
    def test_reference_value(self):
        # sqrt(2)*2 / (e ln 2), recomputed independently.
        expected = math.sqrt(2.0) * 2.0 / (math.e * math.log(2.0))
        assert optimizer.low_snr_threshold(2, 1.0) == pytest.approx(expected,
                                                                    rel=1e-12)
        assert expected == pytest.approx(1.5011533, abs=1e-6)

    def test_decreasing_in_second_moment(self):
        assert optimizer.low_snr_threshold(8, 2.0) < \
            optimizer.low_snr_threshold(8, 1.0)

    def test_requires_two_sensors(self):
        with pytest.raises(ValueError):
            optimizer.low_snr_threshold(1, 1.0)


class TestSelectAlpha:
    def test_low_snr_rule(self):
        d, = optimizer.select_alpha(RG, K, [0.5], 1.0,
                                    trials=50_000, seed=1)
        assert d.alpha_star == 1.0 and d.method == optimizer.LOW_SNR_RULE
        assert d.rho0 == pytest.approx(
            optimizer.low_snr_threshold(K, E2_K12), rel=0.02)

    def test_closed_form_dispatch(self):
        d, = optimizer.select_alpha(RG, K, [1e3], 1.0,
                                    trials=100_000, seed=2)
        assert d.method == optimizer.CLOSED_FORM
        assert d.alpha_star == pytest.approx(3.27, abs=0.03)

    def test_uncovered_band_falls_back_to_brute_force(self):
        d, = optimizer.select_alpha(RG, K, [5.0], 1.0,
                                    trials=20_000, seed=3,
                                    alpha_grid=[1.0, 2.0, 4.0])
        assert d.method == optimizer.BRUTE_FORCE
        assert "premises" in d.note

    def test_small_k_falls_back_to_brute_force(self):
        d, = optimizer.select_alpha(RG, 3, [1e3], 1.0,
                                    trials=20_000, seed=4,
                                    alpha_grid=[1.0, 2.0, 4.0, 8.0])
        assert d.method == optimizer.BRUTE_FORCE

    def test_powers_share_one_draw(self, monkeypatch):
        # One E[fmax^2] draw, one beta* table and one error sweep serve every
        # power, and each decision equals the decision at that power alone.
        p_bars = [0.5, 5.0, 6.0, 1e3, 1e4]
        kwargs = dict(trials=10_000, seed=6, alpha_grid=[1.0, 2.0, 4.0])
        alone = [optimizer.select_alpha(RG, K, [p], 1.0, **kwargs)[0]
                 for p in p_bars]
        calls = []
        draw = FeatureModel.draw
        monkeypatch.setattr(FeatureModel, "draw",
                            lambda self, rng, shape: calls.append((rng, shape)) or
                            draw(self, rng, shape))
        shared = optimizer.select_alpha(RG, K, p_bars, 1.0, **kwargs)
        assert shared == alone
        assert [d.method for d in shared] == [optimizer.LOW_SNR_RULE, optimizer.BRUTE_FORCE,
                                              optimizer.BRUTE_FORCE, optimizer.CLOSED_FORM,
                                              optimizer.CLOSED_FORM]
        # E[fmax^2], one beta* draw for the grid, then one error sweep for
        # both brute-force powers, which computes no bound; it runs a second
        # generator of its stream through the features to reach the unit
        # noise. Consecutive blocks from one generator are one draw.
        draws = []
        for rng, (rows, k) in calls:
            if draws and draws[-1][0] is rng:
                draws[-1][1] += rows
            else:
                draws.append([rng, rows, k])
        assert [(rows, k) for _, rows, k in draws] == [(10_000, K), (400_000, K),
                                                       (10_000, K), (10_000, K)]

    def test_never_below_one(self):
        with pytest.raises(ValueError):
            optimizer.AlphaDecision(alpha_star=0.5, method="closed_form")


class TestBruteForce:
    def test_zero_noise_max_prefers_grid_maximum(self):
        d, = optimizer.brute_force_alpha(RG, K, [1.0], 0.0, [1.0, 2.0, 4.0, 8.0],
                                         trials=30_000, seed=5)
        assert d.alpha_star == 8.0

    def test_average_prefers_alpha_one(self):
        # The averaging search is a sweep and `lowest_error_alpha`, as in the
        # bound gate.
        grid = [1.0, 2.0, 4.0, 8.0, 16.0]
        for snr_db in (0.0, 6.0, 12.0):
            cfgs = [AirPoolConfig.for_average(RG, K, 10 ** (snr_db / 10.0), 1.0, alpha)
                    for alpha in grid]
            errors = analysis.estimate_errors_grid(RG, cfgs, K, trials=30_000, seed=6)
            assert optimizer.lowest_error_alpha(grid, errors).alpha_star == 1.0

    def test_low_snr_max_stays_within_one_step_of_one(self):
        rho0 = optimizer.low_snr_threshold(K, E2_K12)
        grid = [1.0, 2.0, 4.0, 8.0, 16.0]
        decisions = optimizer.brute_force_alpha(RG, K, [0.25, 0.5, rho0], 1.0, grid,
                                                trials=30_000, seed=7)
        assert all(d.alpha_star <= grid[1] for d in decisions)

    def test_shared_draws_match_per_point_loop(self):
        grid = optimizer.default_alpha_grid(8)
        d, = optimizer.brute_force_alpha(
            RG, K, [300.0], 1.0, grid, trials=20_000, seed=31,
            betas=optimizer.BetaTable(RG, K, beta_trials=50_000, seed=31))
        best = (math.inf, math.inf)
        for alpha in grid:
            beta, = feat.optimal_beta_grid(RG, K, [alpha], trials=50_000, seed=31)
            cfg = AirPoolConfig(PoolingMode.max(), alpha, beta.value, 300.0, 1.0,
                                feat.normalization_moments(RG, alpha))
            err, = analysis.estimate_errors_grid(RG, [cfg], K, trials=20_000, seed=31)
            best = min(best, (err.total.value, alpha))
        assert (d.alpha_star, d.objective_value) == (best[1], best[0])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            optimizer.brute_force_alpha(RG, K, [1.0], 0.0, [], trials=20_000)
        with pytest.raises(ValueError):
            optimizer.brute_force_alpha(RG, K, [1.0], 0.0, [4.0, 2.0], trials=20_000)


class TestBetaMemo:
    def test_empirical_models_keep_their_own_beta(self):
        # Each table is bound to one model: two sample sets of the same kind
        # never share a beta*.
        a = FeatureModel.empirical(np.random.default_rng(40).exponential(1.0, 500))
        b = FeatureModel.empirical(np.random.default_rng(41).random(500))
        tables = [optimizer.BetaTable(model, 6, beta_trials=20_000, seed=0)
                  for model in (a, b)]
        for model, betas in zip((a, b), tables):
            cfg = optimizer.config_for(model, PoolingMode.max(), 6, 4.0, 10.0, 1.0,
                                       betas)
            own = feat.optimal_beta_grid(model, 6, [4.0], trials=20_000, seed=0)[0].value
            assert cfg.beta == own
        with pytest.raises(ValueError):
            optimizer.config_for(a, PoolingMode.max(), 6, 4.0, 10.0, 1.0, tables[1])

    def test_table_matches_per_alpha_beta(self):
        betas = optimizer.BetaTable(RG, 5, beta_trials=30_000, seed=12)
        betas.fill([1.0, 3.0, 64.0])
        for alpha in (3.0, 1.0, 7.5, 64.0, 128.0):
            assert betas[alpha] == feat.optimal_beta_grid(RG, 5, [alpha], trials=30_000,
                                                          seed=12)[0].value

    def test_max_config_needs_a_table(self):
        with pytest.raises(ValueError):
            optimizer.config_for(RG, PoolingMode.max(), K, 4.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            optimizer.config_for(RG, PoolingMode.max(), K, 4.0, 10.0, 1.0,
                                 optimizer.BetaTable(RG, K - 1))


class TestCalibration:
    def test_identity_recovery(self):
        snrs = [1e3, 3e3, 1e4, 3e4]
        pairs = [(s, optimizer.closed_form_alpha(K, s, 1.0, E2_K12).alpha_star)
                 for s in snrs]
        fit = optimizer.fit_calibration(pairs, K, E2_K12)
        assert fit.c1 == pytest.approx(1.0, abs=1e-9)
        assert fit.c2 == pytest.approx(0.0, abs=1e-9)
        assert fit.fit_error <= 1e-18

    def test_exact_affine_recovery(self):
        snrs = [1e3, 3e3, 1e4, 3e4]
        pairs = [(s, 2.0 * optimizer.closed_form_alpha(K, s, 1.0, E2_K12).alpha_star
                  + 0.5) for s in snrs]
        fit = optimizer.fit_calibration(pairs, K, E2_K12)
        assert fit.c1 == pytest.approx(2.0, abs=1e-9)
        assert fit.c2 == pytest.approx(0.5, abs=1e-9)

    def test_brute_force_reference_fit(self):
        ratios = [1e3, 3e3, 1e4]
        brutes = optimizer.brute_force_alpha(
            RG, K, ratios, 1.0, optimizer.default_alpha_grid(16), trials=20_000, seed=8,
            betas=optimizer.BetaTable(RG, K, seed=8))
        pairs = [(ratio, brute.alpha_star) for ratio, brute in zip(ratios, brutes)]
        fit = optimizer.fit_calibration(pairs, K, E2_K12)
        assert math.isfinite(fit.fit_error) and fit.fit_error >= 0.0

    def test_requires_three_pairs(self):
        with pytest.raises(ValueError):
            optimizer.fit_calibration([(1e3, 3.0), (1e4, 4.0)], K, E2_K12)

    def test_degenerate_design_rejected(self):
        pairs = [(1e3, 3.0), (1e3, 3.1), (1e3, 2.9)]
        with pytest.raises(ValueError):
            optimizer.fit_calibration(pairs, K, E2_K12)
