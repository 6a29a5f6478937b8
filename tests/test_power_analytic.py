"""Closed-form moments, gamma matching, and the distribution function."""

import math

import numpy as np
import pytest

from ris_sim.power_analytic import (
    GammaFit,
    MomentPair,
    gamma_fit_from_moments,
    nakagami_amplitude_mean,
    s0_gamma_cdf,
    s0_moments,
    sr_moments,
)

C = 6.3326e-5
ALPHA = 3.0
PL_DIRECT = C * 100.0**-ALPHA
PL_REFLECTED = C * (30.0 * 80.0) ** -ALPHA


class TestNakagamiMean:
    def test_rayleigh_case(self):
        assert nakagami_amplitude_mean(1.0) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)

    def test_shape_two(self):
        assert nakagami_amplitude_mean(2.0) == pytest.approx(0.9399856029866254, rel=1e-10)

    def test_hardening_limit(self):
        assert nakagami_amplitude_mean(1e6) == pytest.approx(1.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            nakagami_amplitude_mean(0.4)


class TestReflectedGainMoments:
    def test_single_element_second_moment(self):
        assert sr_moments(1, 2.0, 2.0).second_moment == pytest.approx(1.0, rel=1e-12)

    def test_frozen_reference_values(self):
        mp = sr_moments(200, 2.0, 2.0)
        assert mp.mean == pytest.approx(176.71458676442649, rel=1e-12)
        assert mp.second_moment == pytest.approx(31271.904949445405, rel=1e-12)

    def test_variance_nonnegative(self):
        for n in [1, 2, 10, 200, 1000]:
            assert sr_moments(n, 2.0, 2.0).variance >= 0.0

    def test_monte_carlo_agreement(self):
        # independent oracle: raw element-product sums, 1e6 draws, 1%
        rng = np.random.default_rng(42)
        total = total_sq = 0.0
        n_draws = 0
        for _ in range(20):
            h1 = np.sqrt(rng.gamma(2.0, 0.5, (50_000, 200)))
            h2 = np.sqrt(rng.gamma(2.0, 0.5, (50_000, 200)))
            sr = (h1 * h2).sum(axis=1)
            total += sr.sum()
            total_sq += (sr**2).sum()
            n_draws += sr.size
        mp = sr_moments(200, 2.0, 2.0)
        assert total / n_draws == pytest.approx(mp.mean, rel=0.01)
        assert total_sq / n_draws == pytest.approx(mp.second_moment, rel=0.01)


class TestGammaFit:
    def test_exponential_case(self):
        fit = gamma_fit_from_moments(MomentPair(1.0, 2.0))
        assert fit.shape == pytest.approx(1.0)
        assert fit.scale == pytest.approx(1.0)

    def test_reflected_gain_fit(self):
        fit = gamma_fit_from_moments(sr_moments(200, 2.0, 2.0))
        assert fit.shape == pytest.approx(711.9974007952891, rel=1e-10)
        assert fit.scale == pytest.approx(0.24819555038689645, rel=1e-10)

    def test_product_identity(self):
        mp = sr_moments(37, 2.0, 3.0)
        fit = gamma_fit_from_moments(mp)
        assert fit.shape * fit.scale == pytest.approx(mp.mean, rel=1e-14)

    def test_roundtrip(self):
        fit = GammaFit(shape=6.18, scale=6.07e-11)
        mean = fit.shape * fit.scale
        back = gamma_fit_from_moments(MomentPair(mean, mean * fit.scale + mean**2))
        assert back.shape == pytest.approx(fit.shape, rel=1e-12)
        assert back.scale == pytest.approx(fit.scale, rel=1e-12)

    def test_degenerate_error(self):
        with pytest.raises(ValueError):
            gamma_fit_from_moments(MomentPair(2.0, 4.0))


class TestServingPowerMoments:
    def test_no_reflection_reduces_to_rayleigh_power(self):
        mp = s0_moments(PL_DIRECT, 0.0, 200, 2.0, 2.0)
        assert mp.mean == pytest.approx(PL_DIRECT, rel=1e-12)
        assert mp.second_moment == pytest.approx(2.0 * PL_DIRECT**2, rel=1e-12)

    def test_no_direct_single_element(self):
        mp = s0_moments(0.0, PL_REFLECTED, 1, 2.0, 2.0)
        assert mp.mean == pytest.approx(PL_REFLECTED, rel=1e-12)

    def test_monte_carlo_agreement(self):
        # oracle: coherent-sum draws at the representative distances
        rng = np.random.default_rng(7)
        n = 100_000
        g = rng.rayleigh(math.sqrt(0.5), n)
        h1 = np.sqrt(rng.gamma(2.0, 0.5, (n, 200)))
        h2 = np.sqrt(rng.gamma(2.0, 0.5, (n, 200)))
        amp = math.sqrt(PL_DIRECT) * g + math.sqrt(PL_REFLECTED) * (h1 * h2).sum(axis=1)
        s0 = amp**2
        mp = s0_moments(PL_DIRECT, PL_REFLECTED, 200, 2.0, 2.0)
        assert s0.mean() == pytest.approx(mp.mean, rel=0.02)
        assert np.mean(s0**2) == pytest.approx(mp.second_moment, rel=0.02)


class TestDistributionFunctions:
    FIT = GammaFit(shape=6.18, scale=6.07e-11)

    def test_cdf_at_zero(self):
        assert s0_gamma_cdf(0.0, self.FIT) == 0.0

    def test_cdf_limit(self):
        assert s0_gamma_cdf(1e-7, self.FIT) == pytest.approx(1.0, abs=1e-12)

    def test_exponential_closed_form(self):
        fit = GammaFit(shape=1.0, scale=1.0)
        assert s0_gamma_cdf(1.0, fit) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)

    def test_cdf_monotone(self):
        xs = np.geomspace(1e-12, 1e-8, 50)
        vals = [s0_gamma_cdf(float(x), self.FIT) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            s0_gamma_cdf(-1.0, self.FIT)
