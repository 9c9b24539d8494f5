"""Special-function oracles: every routine is checked against an independent
computation (recursions, quadrature, bisection, and scipy)."""

import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, special

from airpool import specfun
from oracles import inverse_regularized_gamma_p, inverse_regularized_gamma_p_result


class TestLnGamma:
    def test_value_at_one(self):
        assert specfun.ln_gamma(1.0) == 0.0

    def test_value_at_two(self):
        assert specfun.ln_gamma(2.0) == 0.0

    @pytest.mark.parametrize("x", [3e305, 1e308, math.inf])
    def test_inf_where_lgamma_overflows_and_at_inf(self, x):
        assert specfun.ln_gamma(x) == math.inf

    @pytest.mark.parametrize("x", [1e-300, 1e-20, 1e-12])
    def test_series_oracle_near_zero(self, x):
        # ln Gamma(x) = -ln x - gamma x + O(x^2), gamma Euler's constant.
        assert specfun.ln_gamma(x) == pytest.approx(-math.log(x) - 0.5772156649015329 * x,
                                                    rel=1e-14)

    def test_finite_just_below_the_overflow(self):
        assert specfun.ln_gamma(2.55e305) == math.lgamma(2.55e305) < math.inf

    def test_value_at_half(self):
        assert specfun.ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)),
                                                      rel=1e-13)

    def test_recursion_oracle_at_10_5(self):
        # Independent oracle: Gamma(10.5) built by the product recursion
        # Gamma(x+1) = x Gamma(x) starting from Gamma(0.5) = sqrt(pi).
        value = math.sqrt(math.pi)
        x = 0.5
        while x < 10.5:
            value *= x
            x += 1.0
        assert specfun.ln_gamma(10.5) == pytest.approx(math.log(value), rel=1e-13)

    def test_matches_scipy_across_range(self):
        xs = np.geomspace(1e-3, 1e3, 400)
        for x in xs:
            mine = specfun.ln_gamma(float(x))
            ref = float(special.gammaln(x))
            assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_recursion_identity_property(self):
        # exp form where Gamma stays representable, log form everywhere.
        for x in np.geomspace(1e-3, 1e3, 300):
            lg1 = specfun.ln_gamma(float(x) + 1.0)
            lg0 = specfun.ln_gamma(float(x))
            assert abs(lg1 - (math.log(x) + lg0)) <= 1e-10 * max(1.0, abs(lg1))
            if x < 150:
                lhs = math.exp(lg1)
                rhs = x * math.exp(lg0)
                assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            specfun.ln_gamma(bad)


class TestRegularizedGammaP:
    def test_exponential_cdf_identity(self):
        for x in [0.0, 0.3, 1.0, 2.5, 7.0]:
            assert specfun.regularized_gamma_p(1.0, x) == pytest.approx(
                1.0 - math.exp(-x), abs=1e-12)

    def test_zero_at_origin(self):
        for k in [0.4, 1.0, 3.7, 50.0]:
            assert specfun.regularized_gamma_p(k, 0.0) == 0.0

    def test_quadrature_oracle(self):
        # Independent oracle: adaptive quadrature of the defining integral,
        # normalized inside the integrand so the error estimate applies to
        # the final value.
        for k, x in [(2.5, 3.0), (0.7, 0.2), (5.0, 4.5), (12.0, 20.0)]:
            gamma_k = math.exp(specfun.ln_gamma(k))
            ref, err = integrate.quad(
                lambda t: t ** (k - 1.0) * math.exp(-t) / gamma_k, 0.0, x,
                epsabs=1e-13, epsrel=1e-13, limit=200)
            assert err < 1e-11
            assert specfun.regularized_gamma_p(k, x) == pytest.approx(ref, abs=1e-10)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            k = float(rng.uniform(0.1, 30.0))
            x1 = float(rng.uniform(0.0, 40.0))
            x2 = x1 + float(rng.uniform(0.0, 10.0))
            assert specfun.regularized_gamma_p(k, x2) >= \
                specfun.regularized_gamma_p(k, x1) - 1e-14

    def test_matches_scipy(self):
        for k in [0.5, 1.0, 2.0, 2.5, 10.0, 50.0, 200.0]:
            for x in [0.0, 0.1, 1.0, 2.3, 9.0, 40.0, 200.0, 400.0]:
                assert specfun.regularized_gamma_p(k, x) == pytest.approx(
                    float(special.gammainc(k, x)), abs=1e-10)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 2.5, 10.0, 50.0, 200.0])
    def test_array_matches_float_calls_and_scipy(self, k):
        # Zero, both branches, the branch point k + 1 and infinity.
        x = np.concatenate([[0.0, k + 1.0, math.inf],
                            np.geomspace(1e-6, 4.0 * k + 40.0, 300)])
        p = specfun.regularized_gamma_p(k, x)
        assert isinstance(p, np.ndarray) and p.shape == x.shape
        assert all(p[i] == specfun.regularized_gamma_p(k, float(v))
                   for i, v in enumerate(x))
        np.testing.assert_allclose(p, special.gammainc(k, x), rtol=0.0, atol=1e-12)
        assert isinstance(specfun.regularized_gamma_p(k, 1.0), float)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "ITERATION_CAP", 1)
        with pytest.raises(ArithmeticError,
                           match=r"regularized_gamma_p: .*k=2.5; unconverged entries: 2"):
            specfun.regularized_gamma_p(2.5, np.array([0.0, 1.0, 3.0, 10.0]))
        with pytest.raises(ArithmeticError, match=r"regularized_gamma_p: .*k=2.5"):
            specfun.regularized_gamma_p(2.5, 10.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.regularized_gamma_p(0.0, 1.0)
        with pytest.raises(ValueError):
            specfun.regularized_gamma_p(2.0, -0.1)
        with pytest.raises(ValueError):
            specfun.regularized_gamma_p(2.0, np.array([1.0, math.nan]))


class TestInverseRegularizedGammaP:
    def test_exponential_inverse(self):
        assert inverse_regularized_gamma_p(1.0, 1.0 - math.exp(-2.0)) == \
            pytest.approx(2.0, abs=1e-8)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            k = float(rng.uniform(0.2, 40.0))
            x0 = float(rng.uniform(0.05, 60.0))
            p = specfun.regularized_gamma_p(k, x0)
            if not (1e-12 < p < 1.0 - 1e-12):
                continue
            x = inverse_regularized_gamma_p(k, p)
            assert abs(specfun.regularized_gamma_p(k, x) - p) <= 1e-8

    def test_bisection_oracle_at_2_half(self):
        # Independent oracle: direct bisection against scipy's forward P.
        lo, hi = 0.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if special.gammainc(2.0, mid) < 0.5:
                lo = mid
            else:
                hi = mid
        ref = 0.5 * (lo + hi)
        assert inverse_regularized_gamma_p(2.0, 0.5) == pytest.approx(
            ref, abs=1e-8)

    def test_domain_errors(self):
        for k, p in [(0.0, 0.5), (2.0, 0.0), (2.0, 1.0), (2.0, -0.2), (2.0, 1.3)]:
            with pytest.raises(ValueError):
                inverse_regularized_gamma_p(k, p)

    def test_result_metadata(self):
        res = inverse_regularized_gamma_p_result(3.0, 0.25)
        assert res.converged and res.iterations <= specfun.ITERATION_CAP


class TestLambertW0:
    def test_zero(self):
        assert specfun.lambert_w0(0.0) == 0.0

    def test_at_e(self):
        assert specfun.lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)

    def test_newton_oracle_at_10(self):
        # Independent oracle: plain Newton on w e^w - 10 from w = ln(10).
        w = math.log(10.0)
        for _ in range(60):
            f = w * math.exp(w) - 10.0
            w -= f / (math.exp(w) * (w + 1.0))
        assert specfun.lambert_w0(10.0) == pytest.approx(w, rel=1e-12)
        assert specfun.lambert_w0(10.0) == pytest.approx(
            float(special.lambertw(10.0).real), rel=1e-12)

    def test_defining_equation_on_grid(self):
        xs = np.concatenate([[-math.exp(-1.0) + 1e-6],
                             np.geomspace(1e-6, 1e6, 200)])
        for x in xs:
            w = specfun.lambert_w0(float(x))
            assert w >= -1.0
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            specfun.lambert_w0(-math.exp(-1.0) - 1e-6)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "ITERATION_CAP", 1)
        with pytest.raises(ArithmeticError, match=r"lambert_w0: .*x=3.5"):
            specfun.lambert_w0(3.5)

    def test_bits_pinned_on_the_whole_domain(self):
        # The sha256 of the results' bits from -1/e + 1e-6 to 2.7e307: ten
        # points a decade (the R10 series) down to +-1e-300. The inputs are
        # parsed from decimal text, which gives the same bits on every host;
        # np.geomspace does not, as its bits follow numpy's SIMD kernels.
        edge = -0.36787844117144236  # -1/e + 1e-6
        r10 = ("1", "1.25", "1.6", "2", "2.5", "3.15", "4", "5", "6.3", "8")
        xs = [edge] + [x for x in (float(f"{sign}{m}e{e}") for sign in "-+"
                                   for e in range(-300, 308) for m in r10)
                       if edge < x <= 2.7e307] + [2.7e307]
        w = np.array([specfun.lambert_w0(x) for x in xs], dtype="<f8")
        assert hashlib.sha256(w.tobytes()).hexdigest() == \
            "d3ed83be7ed29faeca1852eb15388f8efe3ff901fb0733548711b35121dd98c5"

    @pytest.mark.parametrize("x", [2.8e307, 1e308, 1.7e308])
    def test_above_2_7e307_raises_naming_x(self, x):
        # Halley's denominator overflows to inf there, so the iteration
        # stands still above the tolerance.
        with pytest.raises(ArithmeticError, match=r"lambert_w0: .*x="):
            specfun.lambert_w0(x)
