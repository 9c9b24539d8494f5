"""Feature models, moments, the rescaled norm, and the beta* estimator."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from airpool import features as feat
from airpool._mc import (MonteCarloEstimate, finite_mean, mean_estimate, pairwise_nodes,
                         rng_from)
from airpool.features import FeatureModel

RG = FeatureModel.rectified_gaussian()


class TestSampling:
    def test_deterministic_given_seed(self):
        a = RG.draw(rng_from(123), 4)
        b = RG.draw(rng_from(123), 4)
        np.testing.assert_array_equal(a, b)
        assert np.all(a >= 0)

    def test_trailing_zero_keys_name_one_stream(self):
        # SeedSequence pads short keys with zeros: the error sweep's
        # (seed, 0, 0) is the stream (seed, 0) of E[fmax^2] and beta*.
        def head(rng):
            return rng.random(8).tobytes()

        seed = 7
        assert head(rng_from(seed, 0, 0)) == head(rng_from(seed, 0)) \
            == head(rng_from(seed))
        assert head(rng_from(seed, 1, 0)) == head(rng_from(seed, 1))
        assert head(rng_from(seed, 1)) != head(rng_from(seed))
        fmax_sq = RG.draw(rng_from(seed, 0, 0), (10_000, 4)).max(axis=1) ** 2
        assert feat.max_second_moment(RG, 4, trials=10_000, seed=seed) \
            == mean_estimate(fmax_sq, "max_second_moment")

    @pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 32 + 5, 2 ** 64 + 3, 2 ** 70])
    def test_seed_stream_is_default_rng(self, seed):
        # The stream (seed,) of `rng_from` is numpy's default_rng(seed), also
        # where the seed takes two or three words.
        assert rng_from(seed).random(8).tobytes() \
            == np.random.default_rng(seed).random(8).tobytes()

    def test_zero_keys_split_from_three_word_seeds(self):
        # From 2**64 on the seed takes three words, and (seed, 0, 0) no
        # longer fits SeedSequence's pool: the error sweep's stream differs
        # from the stream (seed, 0) of E[fmax^2] and beta*.
        def head(rng):
            return rng.random(8).tobytes()

        seed = 2 ** 64 + 3
        assert head(rng_from(seed, 0)) == head(rng_from(seed))
        assert head(rng_from(seed, 0, 0)) != head(rng_from(seed, 0))
        assert head(rng_from(seed, 1, 0)) != head(rng_from(seed, 1))

    @pytest.mark.parametrize("model", [
        RG, FeatureModel.uniform01(), FeatureModel.exponential_unit(),
        FeatureModel.empirical(np.linspace(0.0, 3.0, 1001))],
        ids=lambda model: model.kind)
    @pytest.mark.parametrize("shape", [(4097, 3), (3, 5), (2 * 4096, 12)])
    @pytest.mark.parametrize("seed", [1, 7, 2 ** 32 + 5, 2 ** 64 + 3])
    def test_block_draws_equal_one_shot_draw(self, model, shape, seed):
        # The Monte Carlo estimators draw by blocks; stacked, the blocks must
        # be the one-shot draw, and the generator must end where it would.
        one_shot, blockwise = rng_from(seed, 0), rng_from(seed, 0)
        want = model.draw(one_shot, shape)
        blocks = list(feat.draw_blocks(model, blockwise, *shape))
        assert all(len(b) <= feat._BLOCK_ROWS for b in blocks)
        assert np.concatenate(blocks).tobytes() == want.tobytes()
        assert blockwise.bit_generator.state == one_shot.bit_generator.state
        assert blockwise.random(4).tobytes() == one_shot.random(4).tobytes()

    def test_rectified_gaussian_draw_matches_clipped_normal(self):
        draws = RG.draw(np.random.default_rng(6), (1000, 4))
        ref = np.maximum(np.random.default_rng(6).standard_normal((1000, 4)), 0.0)
        assert np.array_equal(draws, ref)

    def test_rectified_gaussian_mass_at_zero(self):
        n = 200_000
        draws = RG.draw(np.random.default_rng(5), n)
        p_zero = float((draws == 0.0).mean())
        se = math.sqrt(0.5 * 0.5 / n)
        assert abs(p_zero - 0.5) <= 3.0 * se

    def test_uniform_mean(self):
        n = 200_000
        draws = FeatureModel.uniform01().draw(np.random.default_rng(6), n)
        se = math.sqrt(1.0 / 12.0 / n)
        assert abs(draws.mean() - 0.5) <= 4.0 * se

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            FeatureModel("gaussian")
        with pytest.raises(ValueError):
            FeatureModel.empirical([])
        with pytest.raises(ValueError):
            FeatureModel.empirical([1.0, -0.5])


class TestEmpiricalIngestion:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "features.txt"
        path.write_text("0.5\n1.25\n\n0\n3e-2\n")
        model = FeatureModel.from_file(path)
        np.testing.assert_allclose(model.samples, [0.5, 1.25, 0.0, 0.03])

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n1.0\nnot-a-number\n")
        with pytest.raises(ValueError, match=r":3:"):
            FeatureModel.from_file(path)

    def test_negative_value_rejected_with_line(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("0.5\n-1.0\n")
        with pytest.raises(ValueError, match=r":2:"):
            FeatureModel.from_file(path)


class TestMoments:
    def test_second_moment_closed_form(self):
        assert feat.moment_abs_power(RG, 2.0) == pytest.approx(0.5, rel=1e-12)

    def test_second_moment_monte_carlo_oracle(self):
        n = 2_000_000
        v = RG.draw(rng_from(3), n) ** 2.0
        assert abs(v.mean() - 0.5) <= 4.0 * v.std(ddof=1) / math.sqrt(n)

    def test_first_moment(self):
        assert feat.moment_abs_power(RG, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("model, s, exact", [
        (RG, 1.0, 1.0 / math.sqrt(2.0 * math.pi)), (RG, 2.0, 0.5), (RG, 4.0, 1.5),
        (RG, 6.0, 7.5),
        *[(FeatureModel.exponential_unit(), float(s), float(math.factorial(s)))
          for s in range(1, 8)]],
        ids=lambda v: v.kind if isinstance(v, FeatureModel) else None)
    def test_integer_orders_within_8_ulp_of_exact(self, model, s, exact):
        # Rectified Gaussian: 2^(s/2 - 1) Gamma((s + 1)/2) / sqrt(pi), whose
        # integer orders are 1/sqrt(2 pi), 1/2, 3/2, 15/2; unit exponential: s!.
        got = feat.moment_abs_power(model, s)
        assert abs(got - exact) <= 8.0 * math.ulp(exact)

    def test_zeroth_moment(self):
        for model in [RG, FeatureModel.uniform01(), FeatureModel.exponential_unit()]:
            assert feat.moment_abs_power(model, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_large_power_stays_finite(self):
        assert math.isfinite(feat.moment_abs_power(RG, 256.0))
        ms = feat.normalization_moments(RG, 128.0)
        assert math.isfinite(ms.eta) and math.isfinite(ms.nu_sq) and ms.nu_sq > 0

    def test_normalization_moments_alpha_one(self):
        ms = feat.normalization_moments(RG, 1.0)
        assert ms.eta == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
        assert ms.nu_sq == pytest.approx(0.5 - 1.0 / (2.0 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0, 8.0, 16.0])
    def test_analytic_vs_monte_carlo(self, alpha):
        exact = feat.normalization_moments(RG, alpha)
        n = 400_000
        v = RG.draw(np.random.default_rng(17), n) ** alpha
        eta_hat = float(v.mean())
        se_eta = float(v.std(ddof=1) / math.sqrt(n))
        assert abs(eta_hat - exact.eta) <= 4.0 * se_eta
        nu_hat = (v - eta_hat) ** 2
        se_nu = float(nu_hat.std(ddof=1) / math.sqrt(n))
        assert abs(nu_hat.mean() - exact.nu_sq) <= 4.0 * se_nu

    def test_monte_carlo_overflow_raises(self):
        # f^128 of a unit exponential reaches 1e150, so its square overflows;
        # `mean_estimate` names the estimator instead of returning inf.
        v = FeatureModel.exponential_unit().draw(rng_from(1, 0), 1_000_000) ** 128.0
        with np.errstate(over="ignore"), \
                pytest.raises(ArithmeticError, match="some_estimator: .*second moment"):
            mean_estimate(v, "some_estimator")

    @pytest.mark.parametrize("alpha", [1.0, 85.0, 86.0, 128.0])
    @pytest.mark.parametrize("model", [RG, FeatureModel.uniform01(),
                                       FeatureModel.exponential_unit(),
                                       FeatureModel.empirical([0.5, 20.0])],
                             ids=lambda m: m.kind)
    def test_moments_finite_or_overflow_error(self, model, alpha):
        # Gamma(2 alpha + 1) of the unit exponential passes float64 above
        # alpha = 85.31, and 20^(2 alpha) of the empirical samples at 128.
        overflows = {("exponential_unit", 86.0), ("exponential_unit", 128.0),
                     ("empirical", 128.0)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if (model.kind, alpha) in overflows:
                with pytest.raises(OverflowError, match=rf"E\[f\^{2 * alpha:g}\] of the "
                                   rf"{model.kind} feature model .* alpha = {alpha:g}$"):
                    feat.normalization_moments(model, alpha)
                return
            ms = feat.normalization_moments(model, alpha)
        assert all(math.isfinite(v) for v in (ms.eta, ms.nu_sq))

    def test_moment_set_clips_a_negative_variance(self):
        # 0.5 - 1.0^2 is the cancellation a closed form can leave.
        assert feat.MomentSet.of(2.0, 1.0, 0.5) == feat.MomentSet(2.0, 1.0, 0.0, True)
        assert feat.MomentSet.of(2.0, 1.0, 1.5) == feat.MomentSet(2.0, 1.0, 0.5, False)

    def test_degenerate_empirical_all_zero(self):
        ms = feat.normalization_moments(FeatureModel.empirical([0.0, 0.0, 0.0]), 1.0)
        assert ms.eta == 0.0 and ms.nu_sq == 0.0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            feat.normalization_moments(RG, 0.5)
        with pytest.raises(ValueError):
            feat.normalization_moments(RG, 200.0)


class TestMomentSums:
    """Every estimator divides its moment sums through `_mc.finite_mean`,
    which refuses to return a moment that overflowed float64."""

    def test_overflowing_mean_and_cross_moment_raise(self):
        big = np.array([1.5e308, 1.5e308])
        with np.errstate(over="ignore"):
            with pytest.raises(ArithmeticError, match="two_moments: .*mean"):
                mean_estimate(big, "two_moments")
            with pytest.raises(ArithmeticError, match="two_moments: .*cross moment"):
                finite_mean((big * 2.0).sum(), 2, "two_moments", "cross moment")
        assert mean_estimate(np.ones(2), "two_moments") == MonteCarloEstimate(1.0, 0.0, 2)


class TestRescaledNorm:
    def test_matches_naive_on_small_inputs(self):
        rng = np.random.default_rng(2)
        f = rng.random((200, 6)) + 0.1
        for alpha in [1.0, 2.0, 3.5, 8.0]:
            naive = (f ** alpha).sum(axis=1) ** (1.0 / alpha)
            np.testing.assert_allclose(rescaled_norm(f, alpha), naive,
                                       rtol=1e-12)

    def test_survives_large_alpha(self):
        f = np.array([[3.0, 2.9, 0.5, 0.0]])
        out = rescaled_norm(f, 128.0)
        assert np.isfinite(out).all() and out[0] >= 3.0

    def test_all_zero_row(self):
        assert rescaled_norm(np.zeros((1, 5)), 4.0)[0] == 0.0

    def test_bit_identical_to_dense_powers(self):
        f = RG.draw(np.random.default_rng(3), (2000, 3))
        assert np.any(f.max(axis=1) == 0.0)
        before = f.copy()
        for alpha in [1.0, 2.0, 3.7, 128.0]:
            out = rescaled_norm(f, alpha)
            assert np.array_equal(out, dense_lp_norm(f, alpha))
        assert np.array_equal(f, before)

    def test_column_major_input(self):
        f = np.asfortranarray(RG.draw(np.random.default_rng(4), (500, 6)))
        assert np.array_equal(rescaled_norm(f, 5.0), dense_lp_norm(f, 5.0))


def dense_power_sums(x, alpha):
    """The oracle: numpy's own row sums of the powers, on a C-ordered copy."""
    return (x.copy() ** alpha).sum(axis=1)


def power_sums_input(n, k, seed, zeros=0.3, ones=0.1):
    """An (n, k) array >= 0 with exact 0.0 and 1.0 entries and all-zero rows."""
    rng = np.random.default_rng(seed)
    u = rng.random((n, k))
    x = rng.exponential(0.5, (n, k))
    x[u < zeros] = 0.0
    x[(u >= zeros) & (u < zeros + ones)] = 1.0
    x[::97] = 0.0
    return x


def row_blocks(x):
    """Copies of consecutive blocks of x's rows, in x's memory order, of the
    sizes `features.draw_blocks` yields."""
    starts = np.cumsum([0] + pairwise_nodes(len(x), feat._BLOCK_ROWS))
    return [x[start:stop].copy(order="K") for start, stop in zip(starts, starts[1:])]


def block_power_sums(x, alphas):
    """The row sums of x ** alpha at each alpha through `_RowSums`, loading
    one block of x at a time."""
    row_sums = feat._RowSums(x.shape[1], len(x))
    sums, start = {alpha: np.empty(len(x)) for alpha in alphas}, 0
    for block in row_blocks(x):
        row_sums.load(block)
        for alpha in alphas:
            row_sums(alpha, sums[alpha][start:start + len(block)])
        start += len(block)
    return sums


class TestPowerSums:
    """`_RowSums` sums the powers of a block of rows column by column, in
    numpy's pairwise order; these pin it to numpy's own row sums, so a numpy
    that sums in another order fails here."""

    # 2.0 again after 128.0: a call on a loaded block after a larger alpha.
    ALPHAS = [1.0, 2.0, 3.7, 128.0, 2.0]

    def assert_equal_to_oracle(self, x, alphas=ALPHAS):
        for alpha, got in block_power_sums(x, alphas).items():
            want = dense_power_sums(x, alpha)
            assert got.tobytes() == want.tobytes(), (x.shape, alpha)

    def test_every_k_to_260_within_one_block(self):
        # Crosses numpy's 8 accumulators (K = 8), its 128-term run and the
        # recursive halving above it.
        for k in range(1, 261):
            self.assert_equal_to_oracle(power_sums_input(40, k, seed=k))

    # At K = 16 a 4096-row block holds 2**16 entries, at K = 17 more.
    @pytest.mark.parametrize("k", [1, 5, 8, 12, 16, 17, 128, 129, 200, 260])
    @pytest.mark.parametrize("blocks", [0.5, 1.0, 2.75])
    def test_across_blocks(self, k, blocks):
        n = int(blocks * feat._BLOCK_ROWS)
        self.assert_equal_to_oracle(power_sums_input(n, k, seed=n + k))

    def test_fortran_order_input(self):
        x = np.asfortranarray(power_sums_input(feat._BLOCK_ROWS + 5, 12, seed=3))
        self.assert_equal_to_oracle(x)

    def test_signed_zeros(self):
        # (-0.0) ** 3.0 is -0.0, and numpy's row sum of a row of them is 0.0.
        x = power_sums_input(300, 9, seed=4)
        x[5] = -0.0
        x[7, ::2] = -0.0
        self.assert_equal_to_oracle(x, [3.0])

    def test_a_load_keeps_no_reference_to_the_block(self):
        # The reconfiguration checks rescale a block in place after loading
        # it raw; the loaded copy must not change with it.
        x = power_sums_input(1000, 6, seed=5)
        row_sums, got = feat._RowSums(6, len(x)), np.empty(len(x))
        want = dense_power_sums(x, 2.0)
        row_sums.load(x)
        x.fill(7.0)
        assert row_sums(2.0, got).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3 * feat._BLOCK_ROWS), k=st.integers(1, 300),
           seed=st.integers(0, 2 ** 32 - 1),
           zeros=st.floats(0.0, 1.0), ones=st.floats(0.0, 1.0),
           alpha=st.one_of(st.sampled_from([1.0, 2.0, 128.0]), st.floats(1.0, 128.0)),
           fortran=st.booleans())
    def test_property_equals_numpy_row_sums(self, n, k, seed, zeros, ones, alpha,
                                            fortran):
        x = power_sums_input(n, k, seed, zeros, ones * (1.0 - zeros))
        self.assert_equal_to_oracle(np.asfortranarray(x) if fortran else x, [alpha])


def rescaled_norm(f, alpha):
    """The l_alpha norm of each row of f, from blocks copied from f, each
    loaded by `_RowSums.load_rescaled` (in place) and normed by `norms`."""
    f = np.array(np.atleast_2d(f), dtype=float)
    row_sums, norms = feat._RowSums(f.shape[1], len(f)), []
    for block in row_blocks(f):
        row_sums.load_rescaled(block)
        norms.append(row_sums.norms(alpha, np.empty(len(block))))
    return np.concatenate(norms)


def dense_lp_norm(f, alpha):
    """The rescaled norm with every entry powered (zeros included)."""
    fmax = f.max(axis=1)
    out = np.zeros(f.shape[0])
    pos = fmax > 0
    ratios = f[pos] / fmax[pos, None]
    out[pos] = fmax[pos] * (ratios ** alpha).sum(axis=1) ** (1.0 / alpha)
    return out


def dense_optimal_beta(model, k, alpha, trials, seed):
    """Per-alpha beta* oracle: its own draw from (seed, 0) and dense powers
    at every call."""
    if k == 1:
        return MonteCarloEstimate(1.0, 0.0, 0)
    f = model.draw(rng_from(seed, 0), (trials, k))
    norm = dense_lp_norm(f, alpha)
    a = f.max(axis=1) * norm
    b = norm * norm
    sums = [float(x.sum()) for x in (a, b, a * a, b * b, a * b)]
    n_done = trials
    mean_a, mean_b = sums[0] / n_done, sums[1] / n_done
    u = mean_a / mean_b
    var_a = max(sums[2] / n_done - mean_a ** 2, 0.0)
    var_b = max(sums[3] / n_done - mean_b ** 2, 0.0)
    cov_ab = sums[4] / n_done - mean_a * mean_b
    se_u = math.sqrt(max(var_a - 2.0 * u * cov_ab + u * u * var_b, 0.0)
                     / (mean_b ** 2 * n_done))
    return MonteCarloEstimate(float(u ** (-alpha)),
                                   float(alpha * u ** (-alpha - 1.0) * se_u), n_done)


MODELS = [RG, FeatureModel.uniform01(), FeatureModel.exponential_unit(),
          FeatureModel.empirical([0.0, 0.0, 0.3, 1.0, 2.5, 0.0, 4.0])]


class TestOptimalBetaGrid:
    GRID = [1.0, 1.5, 2.0, 3.7, 16.0, 128.0]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("k", [1, 3, 12, 16, 17])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_to_dense_per_alpha_oracle(self, model, k, seed):
        # 20,000 trials are eight blocks of 2,496 or 2,504 rows.
        grid = feat.optimal_beta_grid(model, k, self.GRID, trials=20_000, seed=seed)
        for alpha, est in zip(self.GRID, grid):
            assert est == dense_optimal_beta(model, k, alpha, 20_000, seed)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("k", [5, 16, 17, 27])
    def test_bit_identical_at_trials_off_the_multiples_of_8(self, model, k):
        # 12,345 trials are blocks of 3,080, 3,088 and 3,089 rows: the
        # pairwise tree ends in a run whose length is no multiple of 8. At
        # K = 27 a block holds more than 2**16 entries.
        grid = feat.optimal_beta_grid(model, k, self.GRID, trials=12_345, seed=4)
        for alpha, est in zip(self.GRID, grid):
            assert est == dense_optimal_beta(model, k, alpha, 12_345, 4)

    @pytest.mark.parametrize("model", [
        RG, FeatureModel.uniform01(), FeatureModel.exponential_unit()],
        ids=[RG.kind, feat.UNIFORM01, feat.EXPONENTIAL_UNIT])  # no bound in the name
    def test_peak_memory_below_dense_draw_multiple(self, model):
        # One pass over the draw, one block of rows at a time: no array of
        # `trials` rows is held, only one block's compacted draw, six
        # block-sized work rows and five sums per alpha and block. So
        # the peak is a small fraction of the dense (trials, K) draw, at 2
        # alphas and at 64: 0.057x and 0.074x for the rectified Gaussian
        # (half its entries are 0.0), 0.061x and 0.078x for the models
        # without zeros. Holding the compacted draw and two trials-sized
        # work rows read 0.83x and 1.46x.
        trials, k = 400_000, 12
        for count in (2, 64):
            alphas = list(np.linspace(1.0, feat.ALPHA_MAX, count))
            tracemalloc.start()
            try:
                feat.optimal_beta_grid(model, k, alphas, trials=trials, seed=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.15 * trials * k * 8, count

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError):
            feat.optimal_beta_grid(RG, 4, [2.0, 0.5], trials=10_000)


class TestMaxSecondMoment:
    def test_k_one_reduces_to_second_moment(self):
        est = feat.max_second_moment(RG, 1, trials=400_000, seed=9)
        assert abs(est.value - 0.5) <= 4.0 * est.std_error

    def test_uniform_pair_quadrature_oracle(self):
        # Integrate over {v <= u} where max(u, v) = u, then double (the
        # integrand is symmetric); this avoids the kink along the diagonal.
        half, err = integrate.dblquad(lambda v, u: u * u, 0.0, 1.0,
                                      0.0, lambda u: u)
        ref = 2.0 * half
        assert err < 1e-9
        assert ref == pytest.approx(0.5, abs=1e-9)
        est = feat.max_second_moment(FeatureModel.uniform01(), 2,
                                     trials=400_000, seed=10)
        assert abs(est.value - ref) <= 4.0 * est.std_error

    def test_doubled_trials_cross_check(self):
        a = feat.max_second_moment(RG, 4, trials=200_000, seed=11)
        b = feat.max_second_moment(RG, 4, trials=400_000, seed=12)
        assert abs(a.value - b.value) <= 4.0 * math.hypot(a.std_error, b.std_error)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("k", [2, 12])
    def test_bit_identical_to_one_shot_draw(self, model, k):
        # Drawn block by block, the row maxima are those of the one-shot draw.
        trials, seed = 3 * feat._BLOCK_ROWS + 1, 17
        fmax = model.draw(rng_from(seed, 0), (trials, k)).max(axis=1)
        assert feat.max_second_moment(model, k, trials=trials, seed=seed) \
            == mean_estimate(fmax ** 2, "max_second_moment")

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_prefixes_bit_identical_to_own_draws(self, model):
        # Prefixes that end inside a block and on a block boundary, in any
        # order and with a repeat: each is the draw of that many trials.
        block = feat._BLOCK_ROWS
        counts = [3 * block + 1, 10_000, 3 * block, 3 * block + 1]
        assert feat.max_second_moment_prefixes(model, 5, counts, seed=23) \
            == [feat.max_second_moment(model, 5, trials=n, seed=23) for n in counts]

    def test_prefixes_reject_a_short_count(self):
        with pytest.raises(ValueError):
            feat.max_second_moment_prefixes(RG, 4, [100_000, 100], seed=0)

    def test_quadrature_oracle_k12(self):
        ref, err = integrate.quad(
            lambda x: x * x * 12.0 * stats.norm.cdf(x) ** 11 * stats.norm.pdf(x),
            0.0, 12.0)
        assert err < 1e-9
        est = feat.max_second_moment(RG, 12, trials=400_000, seed=13)
        assert abs(est.value - ref) <= 4.0 * est.std_error


class TestOptimalBeta:
    def test_single_sensor_is_exact(self):
        est = feat.optimal_beta_grid(RG, 1, [8.0])[0]
        assert est.value == 1.0 and est.std_error == 0.0

    def test_within_unit_to_k_range(self):
        est = feat.optimal_beta_grid(RG, 12, [8.0], trials=200_000, seed=14)[0]
        assert 1.0 <= est.value <= 12.0

    def test_doubled_trials_cross_check(self):
        a = feat.optimal_beta_grid(RG, 12, [8.0], trials=150_000, seed=15)[0]
        b = feat.optimal_beta_grid(RG, 12, [8.0], trials=300_000, seed=16)[0]
        assert abs(a.value - b.value) <= 4.0 * math.hypot(a.std_error, b.std_error)

    def test_reproducible_per_seed(self):
        a = feat.optimal_beta_grid(RG, 6, [4.0], trials=50_000, seed=21)[0]
        b = feat.optimal_beta_grid(RG, 6, [4.0], trials=50_000, seed=21)[0]
        assert a == b
        # Another seed is a different (valid) estimate.
        c = feat.optimal_beta_grid(RG, 6, [4.0], trials=50_000, seed=22)[0]
        assert c.value != a.value
        assert abs(a.value - c.value) <= 4.0 * math.hypot(a.std_error, c.std_error)
