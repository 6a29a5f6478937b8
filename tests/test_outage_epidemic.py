"""Outage series, epidemic rates, and the SIS dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_sim.experiment_config import ExperimentConfig
from ris_sim.interference_analytic import LaplaceParams
from ris_sim.outage_epidemic import (
    OutageParams,
    SisParams,
    analytic_rates,
    log_coverage,
    outage_transform_jet,
    sis_equilibrium,
    sis_logistic_solution,
    sis_ode_solve,
)
from ris_sim.power_analytic import GammaFit

CFG = ExperimentConfig()


def _params(power_dbm=-5.0, **laplace_overrides):
    return CFG.outage_params(power_dbm=power_dbm, **laplace_overrides)


def _outage(params, stage, form):
    return -math.expm1(log_coverage(params, stage, form))


# The paper's rates in probability space, a reference for the coverage-space
# chain of analytic_rates (as _nested_reflected is for the quadrature oracle).

def _check_probability(value, name):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def infection_rate(p_o, p_o_prime):
    """beta = (1 - P_o) * P_o'."""
    _check_probability(p_o, "p_o")
    _check_probability(p_o_prime, "p_o_prime")
    return (1.0 - p_o) * p_o_prime


def recovery_rate(p_o, p_o_prime):
    """mu = P_o * (1 - P_o')."""
    _check_probability(p_o, "p_o")
    _check_probability(p_o_prime, "p_o_prime")
    return p_o * (1.0 - p_o_prime)


def propagation_intensity(p_o, p_o_prime):
    """R0 = beta / mu; +inf where mu = 0, exactly 1 where P_o = P_o'."""
    beta = infection_rate(p_o, p_o_prime)
    mu = recovery_rate(p_o, p_o_prime)
    if p_o == p_o_prime:
        return 1.0
    if mu == 0.0:
        return math.inf
    return beta / mu


class TestOutageSeries:
    def test_zero_threshold_is_zero(self):
        p = OutageParams(
            fit=GammaFit(6.0, 1e-10), threshold=0.0, power_w=1e-3,
            sigma2_w=1e-12, laplace=LaplaceParams(),
        )
        assert _outage(p, "before", "affine") == 0.0
        assert _outage(p, "after", "pgfl") == 0.0

    def test_no_interference_no_noise(self):
        p = OutageParams(
            fit=GammaFit(6.0, 1e-10), threshold=1e-2, power_w=1e-3,
            sigma2_w=0.0, laplace=LaplaceParams(lambda_b=0.0),
        )
        for form in ("affine", "pgfl"):
            assert _outage(p, "before", form) == pytest.approx(0.0, abs=1e-14)

    def test_series_order_bounds(self):
        # the rounded shape, clamped to [1, 60]
        for shape, order in ((0.2, 1), (0.49, 1), (0.51, 1), (1.51, 2), (59.6, 60),
                             (60.49, 60), (60.51, 60), (74.5, 60), (500.0, 60)):
            p = OutageParams(
                fit=GammaFit(shape, 1e-10), threshold=1e-2, power_w=1e-3,
                sigma2_w=1e-12, laplace=LaplaceParams(),
            )
            assert p.series_order == order, shape

    def test_series_order_defaults_to_rounded_shape(self):
        p = OutageParams(
            fit=GammaFit(6.42, 1e-10), threshold=1e-2, power_w=1e-3,
            sigma2_w=1e-12, laplace=LaplaceParams(),
        )
        assert p.series_order == 6

    @pytest.mark.parametrize("form", ["affine", "pgfl"])
    def test_monotone_in_power_and_stage_ordering(self, form):
        grid = [-20.0, -10.0, -5.0, 0.0, 10.0, 20.0, 30.0]
        before = [_outage(_params(p), "before", form) for p in grid]
        after = [_outage(_params(p), "after", form) for p in grid]
        assert all(b <= a + 1e-12 for a, b in zip(before, before[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(after, after[1:]))
        for po, pop in zip(before, after):
            assert pop >= po - 1e-12

    def test_jet_matches_finite_differences(self):
        # central differences of the scalar transform as the oracle; the
        # stencil runs in extended precision (float64 cancellation at step
        # 1e-4 would exceed the tolerance for order three)
        import mpmath as mp

        from ris_sim.interference_analytic import transform_exponent_coeffs

        mp.mp.dps = 50
        params = _params()
        eta = params.fit.scale
        noise_coeff = params.threshold * params.sigma2_w / (params.power_w * eta)
        arg = params.threshold / eta
        two_over_alpha = mp.mpf(2) / 3

        h = mp.mpf("1e-4")
        for stage in ("before", "after"):
            q_pow, q_lin, q_const = transform_exponent_coeffs(
                params.laplace, stage, "affine"
            )

            def f(s):
                s = mp.mpf(s)
                exponent = (
                    noise_coeff * s
                    + q_pow * (arg * s) ** two_over_alpha
                    + q_lin * arg * s
                    + q_const
                )
                return mp.e ** (-exponent)

            jet = outage_transform_jet(params, stage, "affine")
            fd1 = (f(1 + h) - f(1 - h)) / (2 * h)
            fd2 = (f(1 + h) - 2 * f(1) + f(1 - h)) / h**2
            fd3 = (
                f(1 + 2 * h) - 2 * f(1 + h) + 2 * f(1 - h) - f(1 - 2 * h)
            ) / (2 * h**3)
            assert jet.derivative(1) == pytest.approx(float(fd1), rel=1e-5)
            assert jet.derivative(2) == pytest.approx(float(fd2), rel=1e-5)
            assert jet.derivative(3) == pytest.approx(float(fd3), rel=1e-5)

    def test_log_coverage_consistent_with_probability(self):
        # the series summed in probability space from the unshifted jet:
        # 1 - P_o = sum_{x<k} (-1)^x F^(x)(1) / x!
        p = _params(-10.0)
        for stage in ("before", "after"):
            coef = outage_transform_jet(p, stage, "affine").coef
            coverage = float(np.dot((-1.0) ** np.arange(coef.size), coef))
            assert _outage(p, stage, "affine") == pytest.approx(1.0 - coverage, rel=1e-12)


class TestRates:
    def test_infection_examples(self):
        assert infection_rate(0.0, 1.0) == 1.0
        assert infection_rate(1.0, 0.7) == 0.0
        assert infection_rate(0.2, 0.3) == pytest.approx(0.24)

    def test_recovery_examples(self):
        assert recovery_rate(0.5, 1.0) == 0.0
        assert recovery_rate(0.0, 0.3) == 0.0
        assert recovery_rate(0.2, 0.3) == pytest.approx(0.14)

    def test_intensity_examples(self):
        assert propagation_intensity(0.37, 0.37) == 1.0
        assert propagation_intensity(0.2, 0.3) == pytest.approx(12.0 / 7.0)
        assert propagation_intensity(0.3, 0.2) < 1.0

    def test_intensity_degenerate(self):
        assert propagation_intensity(0.0, 0.5) == math.inf

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            infection_rate(-0.1, 0.5)
        with pytest.raises(ValueError):
            recovery_rate(0.5, 1.2)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_rates_sum_below_one(self, p_o, p_o_prime):
        assert infection_rate(p_o, p_o_prime) + recovery_rate(p_o, p_o_prime) <= 1.0 + 1e-12

    def test_intensity_argwise_monotonicity(self):
        grid = np.linspace(0.05, 0.95, 10)
        for p_o in grid:
            vals = [propagation_intensity(p_o, q) for q in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))
        for q in grid:
            vals = [propagation_intensity(p_o, q) for p_o in grid]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_analytic_rates_consistency(self):
        p = _params(-10.0)
        res = analytic_rates(p, "affine")
        po = _outage(p, "before", "affine")
        pop = _outage(p, "after", "affine")
        assert res.p_o == pytest.approx(po, rel=1e-12)
        assert res.p_o_prime == pytest.approx(pop, rel=1e-12)
        assert res.beta == pytest.approx(infection_rate(po, pop), rel=1e-10)
        assert res.mu == pytest.approx(recovery_rate(po, pop), rel=1e-10)
        assert res.r0 == pytest.approx(propagation_intensity(po, pop), rel=1e-8)


class TestSisDynamics:
    def test_disease_free_stays_zero(self):
        p = SisParams(beta=0.01, mu=0.5, n_total=100, x0=0)
        _, s, x = sis_ode_solve(p, t_end=10.0, dt=0.01)
        assert np.all(x == 0.0)
        assert np.all(s == 100.0)

    def test_conservation_exact(self):
        p = SisParams(beta=0.01, mu=0.5, n_total=100, x0=5)
        _, s, x = sis_ode_solve(p, t_end=10.0, dt=0.01)
        assert np.all(s + x == 100.0)

    def test_endemic_equilibrium(self):
        p = SisParams(beta=0.01, mu=0.5, n_total=100, x0=5)
        _, _, x = sis_ode_solve(p, t_end=100.0, dt=0.01)
        assert x[-1] == pytest.approx(50.0, abs=1e-6)

    def test_equilibrium_algebra(self):
        assert sis_equilibrium(SisParams(0.01, 0.5, 100, 5)) == pytest.approx(50.0)
        assert sis_equilibrium(SisParams(0.001, 0.5, 100, 5)) == 0.0
        assert sis_equilibrium(SisParams(0.2, 0.0, 100, 5)) == 100.0
        assert sis_equilibrium(SisParams(0.0, 0.5, 100, 5)) == 0.0

    def test_rk4_tracks_logistic_short(self):
        p = SisParams(beta=0.01, mu=0.5, n_total=100, x0=5)
        t, _, x = sis_ode_solve(p, t_end=5.0, dt=1e-3)
        exact = sis_logistic_solution(p, t)
        assert np.abs(x - exact).max() < 1e-6

    def test_logistic_degenerate_cases(self):
        decay = SisParams(beta=0.0, mu=0.3, n_total=10, x0=4)
        t = np.linspace(0, 5, 11)
        assert sis_logistic_solution(decay, t) == pytest.approx(4 * np.exp(-0.3 * t))
        critical = SisParams(beta=0.05, mu=0.05 * 10, n_total=10, x0=4)
        assert sis_logistic_solution(critical, t) == pytest.approx(
            4.0 / (1.0 + 0.05 * 4.0 * t)
        )

    def test_subcritical_closed_form(self):
        p = SisParams(beta=0.001, mu=0.5, n_total=100, x0=20)
        t, _, x = sis_ode_solve(p, t_end=5.0, dt=1e-3)
        exact = sis_logistic_solution(p, t)
        assert np.abs(x - exact).max() < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            SisParams(beta=-0.1, mu=0.5, n_total=10, x0=1)
        with pytest.raises(ValueError):
            SisParams(beta=0.1, mu=0.5, n_total=10, x0=11)
        with pytest.raises(ValueError):
            sis_ode_solve(SisParams(0.1, 0.1, 10, 1), t_end=1.0, dt=0.0)
