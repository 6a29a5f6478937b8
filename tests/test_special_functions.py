"""Numerics kernel tests.

The gamma-law moments are rising factorials and the Nakagami amplitude mean
a log-gamma difference from the standard library (``math.lgamma``); the
regularized incomplete gamma is the package's own series and continued
fraction (``power_analytic.lower_incomplete_gamma_regularized``).  The
checks run them where the package uses them (``power_analytic``) against
exact rational arithmetic, closed forms, ``scipy.special`` and mpmath, and
check that a scalar call and an array call agree bit for bit.  The outage
jet's exponential, and the series it is built from, are checked against
closed forms, mpmath Taylor coefficients and finite differences.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_sim.experiment_config import ExperimentConfig
from ris_sim.interference_analytic import LaplaceParams, transform_exponent_coeffs
from ris_sim.outage_epidemic import Jet, OutageParams, outage_transform_jet
from ris_sim.power_analytic import (
    GammaFit,
    lower_incomplete_gamma_regularized,
    nakagami_amplitude_mean,
    s0_gamma_cdf,
)


def _unit(shape):
    return GammaFit(shape, 1.0)


class TestLnGamma:
    def test_at_one(self):
        # unit exponential law: E{X^k} = k!, exact while k! has at most 53
        # significant bits
        for k in range(23):
            assert _unit(1.0).raw_moment(k) == math.factorial(k)

    @given(st.floats(min_value=1e-3, max_value=1e7), st.floats(min_value=1e-12, max_value=1e3),
           st.integers(min_value=0, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_rising_factorial(self, shape, scale, k):
        # scale^k shape (shape + 1) ... (shape + k - 1) in exact rationals; the
        # float sum and product round once each per factor, scale**k by at most
        # one ulp
        exact = Fraction(scale) ** k * math.prod(Fraction(shape) + i for i in range(k))
        got = GammaFit(shape, scale).raw_moment(k)
        assert got == pytest.approx(float(exact), rel=(2 * k + 3) * 2.0**-53)

    def test_amplitude_mean_against_scipy_gammaln(self):
        # the same log-gamma difference with scipy's gammaln: 1e-13 while the
        # log-gammas are small; beyond, each log-gamma carries a rounding of
        # about eps * |lgamma(m)| that the difference keeps, in both the
        # reference and the package
        for m in np.concatenate([np.linspace(0.5, 30.0, 300), np.geomspace(30.0, 1e6, 300)]):
            m = float(m)
            ref = math.exp(sps.gammaln(m + 0.5) - sps.gammaln(m)) / math.sqrt(m)
            cancellation = 4.0 * 2.0**-52 * (abs(math.lgamma(m)) + abs(math.lgamma(m + 0.5)))
            assert nakagami_amplitude_mean(m) == pytest.approx(
                ref, rel=max(1e-13, cancellation)), m

    def test_half(self):
        # Gamma(1) / (Gamma(1/2) sqrt(1/2)) = sqrt(2 / pi)
        assert nakagami_amplitude_mean(0.5) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_ratio_gamma_2p5_over_2(self):
        ratio = nakagami_amplitude_mean(2.0) * math.sqrt(2.0)
        assert ratio == pytest.approx(1.3293403881791372, rel=1e-12)

    def test_against_stdlib_grid(self):
        for x in np.concatenate([np.linspace(0.05, 2, 50), np.geomspace(2, 1000, 50)]):
            x = float(x)
            assert _unit(x).raw_moment(2) == pytest.approx(x * (x + 1.0), rel=1e-10)
            ref = math.exp(math.lgamma(x + 3.0) - math.lgamma(x))
            assert _unit(x).raw_moment(3) == pytest.approx(ref, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            GammaFit(0.0, 1.0)
        with pytest.raises(ValueError):
            nakagami_amplitude_mean(0.3)
        with pytest.raises(ValueError):
            s0_gamma_cdf(-1.5, _unit(2.0))


class TestIncompleteGamma:
    def test_zero(self):
        assert s0_gamma_cdf(0.0, _unit(2.5)) == 0.0
        assert np.array_equal(s0_gamma_cdf(np.zeros(3), _unit(2.5)), np.zeros(3))

    def test_limit_one(self):
        assert s0_gamma_cdf(1e4, _unit(2.5)) == pytest.approx(1.0, abs=1e-12)

    def test_exponential_median(self):
        assert s0_gamma_cdf(math.log(2.0), _unit(1.0)) == pytest.approx(0.5, abs=1e-12)
        x = np.geomspace(1e-6, 40.0, 200)
        assert np.abs(s0_gamma_cdf(x, _unit(1.0)) + np.expm1(-x)).max() < 1e-12

    def test_erlang_two(self):
        assert s0_gamma_cdf(2.0, _unit(2.0)) == pytest.approx(1.0 - 3.0 * math.exp(-2.0), abs=1e-12)
        x = np.geomspace(1e-6, 40.0, 200)
        expected = 1.0 - (1.0 + x) * np.exp(-x)
        assert np.abs(s0_gamma_cdf(x, _unit(2.0)) - expected).max() < 1e-12

    def test_against_scipy(self):
        # scaled law: the CDF at x * scale is the unit CDF at x, for arrays
        # and scalars alike
        xs = np.array([1e-8, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 700.0, 1500.0])
        for shape in [0.3, 0.7, 1.0, 2.0, 6.18, 50.0, 712.0]:
            fit = GammaFit(shape, 6.07e-11)
            ours = s0_gamma_cdf(xs * fit.scale, fit)
            assert np.abs(ours - sps.gammainc(shape, xs)).max() < 1e-10
            assert [s0_gamma_cdf(float(x), fit) for x in xs * fit.scale] == list(ours)

    def test_monotone_and_bounded(self):
        vals = s0_gamma_cdf(np.geomspace(1e-4, 100, 60), _unit(3.7))
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= 0.0)

    def test_complement(self):
        # upper tail against mpmath's regularized incomplete gamma
        for shape in [0.5, 1.0, 4.2, 80.0]:
            xs = np.array([0.2, 1.0, 7.0, 120.0])
            upper = 1.0 - s0_gamma_cdf(xs, _unit(shape))
            for x, got in zip(xs, upper):
                want = float(mp.gammainc(shape, float(x), mp.inf, regularized=True))
                assert got == pytest.approx(want, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            s0_gamma_cdf(-0.1, _unit(1.0))
        with pytest.raises(ValueError):
            s0_gamma_cdf(np.array([1.0, -0.1]), _unit(1.0))


class TestIncompleteGammaKernel:
    def test_matches_scipy(self):
        # log-spaced x over the whole range, and a dense band across x = a and
        # the branch point x = a + 1 where both loops need the most terms
        worst = 0.0
        for a in np.geomspace(0.05, 1e3, 41):
            band = a + np.sqrt(a) * np.linspace(-6.0, 6.0, 241)
            x = np.concatenate([np.geomspace(1e-10, 2e3, 400), band[band > 0.0],
                                a + 1.0 + np.linspace(-1e-6, 1e-6, 11)])
            worst = max(worst, np.abs(lower_incomplete_gamma_regularized(a, x)
                                      - sps.gammainc(a, x)).max())
        assert worst <= 1e-12

    @pytest.mark.parametrize("n_elements, trials", [
        (1, 100_000), (200, 100_000), (10_000, 100_000), (5_000_000, 1000)])
    def test_reachable_shapes(self, n_elements, trials):
        # the fits of validate-power at 1 to 5e6 elements (shape 1.01, 6.18,
        # 3864 and 4.44e6), the last the most that the serving-hop draws
        # allow; at 4.44e6 the exponent a ln x - x - lgamma(a + 1) cancels
        # across terms near 6e7, which costs about 2e-8
        fit = ExperimentConfig(n_elements=n_elements, trials=trials).serving_gamma_fit()
        a = fit.shape
        band = a + np.sqrt(a) * np.linspace(-8.0, 8.0, 321)
        x = np.concatenate([band[band > 0.0], a * np.geomspace(1e-3, 1e3, 121)])
        assert np.abs(s0_gamma_cdf(x * fit.scale, fit) - sps.gammainc(a, x)).max() <= 1e-7

    def test_scalar_and_array_calls_agree_bitwise(self):
        # an element's value must not depend on the slowest element it shares
        # an array with: validate-power makes one array call, acceptance
        # criterion 1 a scalar call per sample
        fit = GammaFit(6.1846, 6.07e-11)
        x = np.linspace(0.5, 25.0, 2000) * fit.scale
        array = s0_gamma_cdf(x, fit)
        assert [s0_gamma_cdf(float(v), fit) for v in x] == list(array)

    def test_non_finite(self):
        for x in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError):
                lower_incomplete_gamma_regularized(2.5, x)
        assert lower_incomplete_gamma_regularized(2.5, math.inf) == 1.0
        assert list(lower_incomplete_gamma_regularized(2.5, np.array([0.0, 1.0, math.inf]))) == [
            0.0, lower_incomplete_gamma_regularized(2.5, 1.0), 1.0]
        for a in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                lower_incomplete_gamma_regularized(a, 1.0)

    def test_iteration_cap(self):
        # at shape 1e14 either loop would need millions of terms next to x = a
        with pytest.raises(ArithmeticError):
            lower_incomplete_gamma_regularized(1e14, 1e14)
        with pytest.raises(ArithmeticError):
            lower_incomplete_gamma_regularized(1e14, 1e14 + 2.0)


coef_strategy = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=5, max_size=5
)


def _taylor(fn, coef):
    """mpmath Taylor coefficients of fn(sum_k coef[k] t^k) around t = 0."""
    with mp.workdps(40):
        poly = [mp.mpf(c) for c in coef]
        series = mp.taylor(lambda t: fn(mp.polyval(poly[::-1], t)), 0, len(coef) - 1)
        return np.array([float(c) for c in series])


class TestJet:
    @given(coef_strategy)
    @settings(max_examples=60, deadline=None)
    def test_exp_matches_mpmath_taylor(self, coef):
        got = Jet(coef).exp().coef
        want = _taylor(mp.exp, coef)
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    def test_affine_exponential_is_exact(self):
        # exp(-a s) around s=1 has coefficients e^{-a} (-a)^k / k!
        a = 3.25
        jet = Jet([-a, -a] + [0.0] * 7).exp()
        expected = [math.exp(-a) * (-a) ** k / math.factorial(k) for k in range(9)]
        assert np.abs(jet.coef - expected).max() < 1e-15

    def test_order_zero_is_plain_value(self):
        # a one-term series (fitted shape 1.2): the transform jet is the
        # transform value at s = 1
        params = OutageParams(
            fit=GammaFit(1.2, 1e-10), threshold=1e-2, power_w=1e-3,
            sigma2_w=1e-12, laplace=LaplaceParams(),
        )
        q_pow, q_lin, q_const = transform_exponent_coeffs(params.laplace, "before", "affine")
        arg = params.threshold / params.fit.scale
        noise = params.threshold * params.sigma2_w / (params.power_w * params.fit.scale)
        value = math.exp(-(noise + q_pow * arg ** (2.0 / 3.0) + q_lin * arg + q_const))
        jet = outage_transform_jet(params, "before", "affine")
        assert jet.order == 0
        assert jet.coef[0] == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("alpha", [3.0, 3.7])
    def test_outage_series_matches_mpmath_taylor(self, alpha):
        # every coefficient of the order-8 jet (fitted shape 9.3, so a
        # 9-term series), i.e. every binomial factor of the s^(2/alpha)
        # series, against mpmath's expansion of the folded transform exp(-E(s))
        # around s = 1; the interference-limited link makes the s^(2/alpha)
        # term a sizeable part of each coefficient
        params = OutageParams(
            fit=GammaFit(9.3, 6e-11), threshold=1e-2, power_w=1e-3,
            sigma2_w=1e-12, laplace=LaplaceParams(alpha=alpha),
        )
        for stage in ("before", "after"):
            for form in ("affine", "pgfl"):
                q_pow, q_lin, q_const = transform_exponent_coeffs(params.laplace, stage, form)
                with mp.workdps(50):
                    arg = mp.mpf(params.threshold) / params.fit.scale
                    noise = arg * params.sigma2_w / params.power_w
                    p = mp.mpf(2) / alpha

                    def f(s):
                        return mp.exp(-(noise * s + q_pow * (s * arg) ** p
                                        + q_lin * arg * s + q_const))

                    want = np.array([float(c) for c in mp.taylor(f, 1, 8)])
                got = outage_transform_jet(params, stage, form).coef
                assert got.size == 9
                assert np.abs(got / want - 1.0).max() < 1e-12, (stage, form)

    def test_derivatives_match_finite_differences(self):
        # composite with the same shape as the outage transform; the stencil
        # is evaluated in extended precision because the step-1e-4 third
        # difference sits below float64 cancellation noise
        mp.mp.dps = 50
        noise, p_coeff, lin, const = 0.52, 0.036, 0.0096, 0.0093
        p_exp = mp.mpf(2) / 3

        def f(s):
            s = mp.mpf(s)
            return mp.e ** (-(noise * s + p_coeff * s**p_exp + lin * s + const))

        # the exponent's Taylor coefficients around s = 1: s^p = sum_k C(p, k) (s - 1)^k
        binom = sps.binom(2.0 / 3.0, np.arange(4))
        exponent = -p_coeff * binom
        exponent[:2] -= noise + lin
        exponent[0] -= const
        jet = Jet(exponent).exp()
        h = mp.mpf("1e-4")
        fd1 = (f(1 + h) - f(1 - h)) / (2 * h)
        fd2 = (f(1 + h) - 2 * f(1) + f(1 - h)) / h**2
        fd3 = (f(1 + 2 * h) - 2 * f(1 + h) + 2 * f(1 - h) - f(1 - 2 * h)) / (2 * h**3)
        for order, fd in [(1, fd1), (2, fd2), (3, fd3)]:
            assert jet.derivative(order) == pytest.approx(float(fd), rel=1e-5)

    def test_rejects_large_order(self):
        # the outage series has 60 terms at most (factorial conditioning),
        # and one at least, whatever the fitted shape
        for shape, terms in ((0.3, 1), (60.6, 60), (1e4, 60)):
            params = OutageParams(
                fit=GammaFit(shape, 1e-10), threshold=1e-2, power_w=1e-3,
                sigma2_w=1e-12, laplace=LaplaceParams(),
            )
            assert outage_transform_jet(params, "before", "affine").coef.size == terms
