"""Interference transform closed forms against the quadrature oracle."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate as scipy_integrate
from scipy import special as scipy_special

from ris_sim import interference_analytic as ia
from ris_sim.interference_analytic import (
    LaplaceParams,
    empirical_laplace,
    laplace_after,
    laplace_before,
    laplace_quadrature_oracle,
)

P = LaplaceParams()


class TestParams:
    def test_alpha_must_exceed_two(self):
        with pytest.raises(ValueError):
            LaplaceParams(alpha=2.0)

    def test_distance_ordering(self):
        with pytest.raises(ValueError):
            LaplaceParams(d_min=10.0, d_max=5.0)

    def test_near_density(self):
        assert P.lambda_u_near == pytest.approx(1e-5 * 1e-2 * math.pi * 100.0, rel=1e-12)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            laplace_before(-1.0, P, "affine")


class TestClosedForms:
    def test_pgfl_is_one_at_zero(self):
        assert laplace_before(0.0, P, "pgfl") == 1.0
        assert laplace_after(0.0, P, "pgfl") == 1.0

    def test_affine_documented_offset_at_zero(self):
        # the published form keeps an s-independent exponent term, so its
        # value at s = 0 sits below 1; frozen as a regression guard
        assert laplace_before(0.0, P, "affine") == pytest.approx(0.9907128645, rel=1e-9)

    def test_no_interferers_gives_one(self):
        empty = LaplaceParams(lambda_b=0.0)
        for s in [0.0, 1e3, 1e9]:
            assert laplace_before(s, empty, "affine") == 1.0
            assert laplace_before(s, empty, "pgfl") == 1.0
            assert laplace_after(s, empty, "pgfl") == 1.0

    def test_after_at_most_before(self):
        for form in ("affine", "pgfl"):
            for s in np.geomspace(1e2, 1e9, 15):
                assert laplace_after(float(s), P, form) <= laplace_before(float(s), P, form)

    def test_static_users_collapse_stages(self):
        frozen = LaplaceParams(lambda_u=0.0)
        for s in [1e3, 1e6]:
            assert laplace_after(s, frozen, "pgfl") == laplace_before(s, frozen, "pgfl")

    def test_complete_monotonicity_grid(self):
        # a true transform of a nonnegative variable cannot increase in s
        for form in ("affine", "pgfl"):
            grid = np.geomspace(1e1, 1e10, 50)
            vals = [laplace_before(float(s), P, form) for s in grid]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_density_monotonicity(self):
        s = 1e6
        base = laplace_before(s, P, "pgfl")
        assert laplace_before(s, LaplaceParams(lambda_b=2e-5), "pgfl") < base
        assert laplace_before(s, LaplaceParams(lambda_r=2e-5), "pgfl") < base
        assert laplace_after(s, LaplaceParams(lambda_u=2e-2), "pgfl") < laplace_after(
            s, P, "pgfl"
        )

    def test_bounds(self):
        for form in ("affine", "pgfl"):
            for s in np.geomspace(1e0, 1e10, 30):
                v = laplace_before(float(s), P, form)
                assert 0.0 < v <= 1.0

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            laplace_before(1.0, P, "bogus")


class TestQuadratureOracle:
    def test_one_at_zero(self):
        assert laplace_quadrature_oracle(0.0, P) == 1.0

    def test_no_interferers(self):
        assert laplace_quadrature_oracle(1e6, LaplaceParams(lambda_b=0.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_direct_only_identity(self):
        # with no surfaces and s*c = 1 the exponent is the standard field
        # integral 2 pi^2 lambda_b csc(2 pi / alpha) / alpha
        params = LaplaceParams(lambda_r=0.0)
        s = 1.0 / params.c
        expected = math.exp(
            -2.0 * math.pi**2 * params.lambda_b / (math.sin(2 * math.pi / 3) * 3.0)
        )
        assert laplace_quadrature_oracle(s, params) == pytest.approx(expected, rel=1e-9)
        assert laplace_before(s, params, "pgfl") == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("s", [1e3, 1e6, 1e9])
    def test_pgfl_matches_oracle(self, s):
        for stage in ("before", "after"):
            oracle = laplace_quadrature_oracle(s, P, stage)
            closed = (laplace_before if stage == "before" else laplace_after)(s, P, "pgfl")
            assert abs(closed - oracle) / oracle < 1e-6

    def test_failed_extrapolation_raises(self, monkeypatch):
        # a negative integral of a nonnegative integrand with a small error
        # estimate, as QUADPACK once returned for the wide-span case of
        # TestReflectedExponent
        monkeypatch.setattr(ia.integrate, "quad", lambda *args, **kwargs: (-7.69e-5, 1.7e-16))
        with pytest.raises(ArithmeticError, match="quadrature failed"):
            laplace_quadrature_oracle(1e6, P)

    def test_affine_deviation_is_the_constant_term(self):
        # at small s the mismatch against the oracle approaches the frozen
        # offset; this keeps the documented discrepancy loud
        oracle = laplace_quadrature_oracle(1e2, P, "before")
        affine = laplace_before(1e2, P, "affine")
        assert abs(affine / oracle - 0.9907128645) < 1e-4


def _scipy_quad(fn, lo, hi):
    """QUADPACK's integral of a scalar integrand (infinite ``hi`` allowed),
    with the oracle's tolerances and its checks."""
    val, err = scipy_integrate.quad(fn, lo, hi, **ia._QUAD_OPTS)
    assert math.isfinite(val) and val >= 0.0 and err <= max(1e-10, 1e-6 * val), (val, err)
    return val


def _nested_reflected(s, p):
    """The reflected-cluster integral with its inner integral as a second
    adaptive quadrature (no closed form), both by QUADPACK on scalars."""
    k = s * p.n_elements * p.c**2
    if k == 0.0 or p.lambda_r == 0.0:
        return 0.0
    a = p.alpha

    def inner(v):
        def integrand(u):
            return u / (1.0 + (u * v) ** a / k)

        return _scipy_quad(integrand, p.d_min, p.d_max)

    two_pi_lr = 2.0 * math.pi * p.lambda_r

    def outer(v):
        return -math.expm1(-two_pi_lr * inner(v)) * v

    knee = max(k ** (1.0 / a) / p.d_min, p.d_min)
    return _scipy_quad(outer, 0.0, knee) + _scipy_quad(outer, knee, np.inf)


def _quadpack_oracle(s, p, stage):
    """The oracle with QUADPACK on scalar integrands and infinite ranges, as
    it was computed before the array rule: the direct field over [0, knee]
    and [knee, inf), the reflected factor over [0, lo], [lo, hi] and
    [hi, inf)."""
    if s == 0.0:
        return 1.0
    k, a = s * p.c, p.alpha

    def field(v):
        return v / (1.0 + v**a / k)

    knee = k ** (1.0 / a)
    direct = _scipy_quad(field, 0.0, knee) + _scipy_quad(field, knee, np.inf)
    k = s * p.n_elements * p.c**2
    inner = ia._cluster_inner(p, k)
    two_pi_lr = 2.0 * math.pi * p.lambda_r

    def outer(v):
        return -math.expm1(-two_pi_lr * float(inner(v))) * v

    lo, hi = k ** (1.0 / a) / p.d_max, k ** (1.0 / a) / p.d_min
    reflected = sum(_scipy_quad(outer, x, y) for x, y in ((0.0, lo), (lo, hi), (hi, np.inf)))
    exponent = 2.0 * math.pi * p.lambda_b * (direct + reflected)
    if stage == "after":
        exponent += 2.0 * math.pi * p.lambda_u_near * direct
    return math.exp(-exponent)


class TestAgainstQuadpack:
    @pytest.mark.parametrize("stage", ["before", "after"])
    def test_grid_matches(self, stage):
        for s in np.geomspace(1e2, 1e9, 50):
            assert laplace_quadrature_oracle(float(s), P, stage) == pytest.approx(
                _quadpack_oracle(float(s), P, stage), rel=1e-12)


def _fresh_oracle(s, p, stage):
    """The oracle with every integral evaluated afresh."""
    if s == 0.0:
        return 1.0
    exponent = 2.0 * math.pi * p.lambda_b * ia._ppp_direct_integral(s * p.c, p.alpha)
    exponent += 2.0 * math.pi * p.lambda_b * ia._reflected_cluster_exponent.__wrapped__(s, p)
    if stage == "after":
        exponent += (
            2.0 * math.pi * p.lambda_u_near * ia._ppp_direct_integral(s * p.c, p.alpha)
        )
    return math.exp(-exponent)


class TestOracleMemo:
    """The reflected-cluster integral is memoized on (s, p)."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        ia._reflected_cluster_exponent.cache_clear()

    @staticmethod
    def _count_quad(monkeypatch):
        calls = [0]
        quad = ia.integrate.quad

        def counting(*args, **kwargs):
            calls[0] += 1
            return quad(*args, **kwargs)

        monkeypatch.setattr(ia.integrate, "quad", counting)
        return calls

    @pytest.mark.parametrize(
        "params", [P, LaplaceParams(lambda_b=0.0)], ids=["default", "no-bs"]
    )
    def test_memoized_equals_fresh(self, params):
        for s in [0.0, 1e2, 1e6, 1e9]:
            for stage in ("before", "after", "before"):
                assert laplace_quadrature_oracle(s, params, stage) == _fresh_oracle(
                    s, params, stage
                )
            assert ia._reflected_cluster_exponent(s, params) == pytest.approx(
                _nested_reflected(s, params), rel=1e-9
            )

    def test_after_pass_reuses_the_nested_integral(self, monkeypatch):
        grid = [float(s) for s in np.geomspace(1e2, 1e9, 50)]
        calls = self._count_quad(monkeypatch)
        for s in grid:
            laplace_quadrature_oracle(s, P, "before")
        before, info = calls[0], ia._reflected_cluster_exponent.cache_info()
        for s in grid:
            laplace_quadrature_oracle(s, P, "after")
        after = ia._reflected_cluster_exponent.cache_info()
        assert (after.hits - info.hits, after.misses - info.misses) == (len(grid), 0)
        # the after pass integrates the direct field alone, in one call
        assert calls[0] - before == len(grid)

    def test_key_includes_the_params(self):
        s = 1e6
        values = set()
        for params in (P, replace(P, lambda_r=2e-5), replace(P, n_elements=400)):
            value = ia._reflected_cluster_exponent(s, params)
            assert value == ia._reflected_cluster_exponent.__wrapped__(s, params)
            assert value == pytest.approx(_nested_reflected(s, params), rel=1e-9)
            values.add(value)
        assert len(values) == 3

    def test_failure_is_not_cached(self, monkeypatch):
        calls = [0]

        def failing(*args, **kwargs):
            calls[0] += 1
            return math.nan, 0.0

        monkeypatch.setattr(ia.integrate, "quad", failing)
        for expected_calls in (1, 2):
            with pytest.raises(ArithmeticError):
                ia._reflected_cluster_exponent(1e6, P)
            assert calls[0] == expected_calls
        monkeypatch.undo()
        assert ia._reflected_cluster_exponent(1e6, P) == (
            ia._reflected_cluster_exponent.__wrapped__(1e6, P)
        )


def _mp_inner(v, p, k):
    """integral_{d_min}^{d_max} u / (1 + (u v)**alpha / k) du at 400 digits,
    from the antiderivative (u**2 / 2) 2F1(1, 2/alpha; 1 + 2/alpha; -x(u))."""
    with mpmath.workdps(400):
        a, v, k = mpmath.mpf(p.alpha), mpmath.mpf(v), mpmath.mpf(k)

        def antiderivative(u):
            u = mpmath.mpf(u)
            return u * u / 2 * mpmath.hyp2f1(1, 2 / a, 1 + 2 / a, -((u * v) ** a) / k)

        return antiderivative(p.d_max) - antiderivative(p.d_min)


def _betainc_inner(v, p, k):
    """The inner integral from scipy's regularized incomplete beta function,
    as the oracle took it before its Gauss–Jacobi rules:
    k**a / (alpha v**2) B(a, 1-a) (I_t2 - I_t1), a = 2/alpha, t = x / (1 + x),
    an end with x >= 1 through its complement I_{1/(1+x)}(1-a, a).

    Returns the value and its rounding: each I, at most 1, is good to about
    1e-15, and B(a, 1-a) grows like 1/(alpha-2) as alpha nears 2, where the
    difference of two I near 1 cancels."""
    a = 2.0 / p.alpha
    root_k = k ** (1.0 / p.alpha)
    x1, x2 = ((d * v / root_k) ** p.alpha for d in (p.d_min, p.d_max))

    def lower(x):
        return scipy_special.betainc(a, 1.0 - a, x / (1.0 + x))

    def upper(x):
        return scipy_special.betainc(1.0 - a, a, 1.0 / (1.0 + x))

    if x2 < 1.0:
        diff = lower(x2) - lower(x1)
    elif x1 < 1.0:
        diff = 1.0 - lower(x1) - upper(x2)
    else:
        diff = upper(x1) - upper(x2)
    scale = (root_k / v) ** 2 * scipy_special.beta(a, 1.0 - a) / p.alpha
    return scale * diff, 2e-15 * scale


def _mp_reflected(s, p):
    """The reflected-cluster exponent at 25 digits, the inner integral from
    the antiderivatives in 1/x(u) past x(d_min) = 1 (no cancellation).

    The outer integral is taken decade by decade up to v = 1e20 and in
    closed form beyond, where x(u) >> 1 over [d_min, d_max] and the outer
    integrand is linear in the inner one, 2 pi lambda_r k v**(1 - alpha)
    (d_min**(2 - alpha) - d_max**(2 - alpha)) / (alpha - 2): at alpha near 2
    that tail decays too slowly for a quadrature over [V, inf).
    """
    with mpmath.workdps(25):
        a = mpmath.mpf(p.alpha)
        k = mpmath.mpf(s) * p.n_elements * mpmath.mpf(p.c) ** 2

        def inner(v):
            def x(u):
                return (mpmath.mpf(u) * v) ** a / k

            if v == 0 or x(p.d_min) < 1:
                def lower(u):
                    return mpmath.mpf(u) ** 2 / 2 * mpmath.hyp2f1(1, 2 / a, 1 + 2 / a, -x(u))

                return lower(p.d_max) - lower(p.d_min)

            def upper(u):  # integral from u to infinity
                return (mpmath.mpf(u) ** 2 / ((a - 2) * x(u))
                        * mpmath.hyp2f1(1, 1 - 2 / a, 2 - 2 / a, -1 / x(u)))

            return upper(p.d_min) - upper(p.d_max)

        two_pi_lr = 2 * mpmath.pi * mpmath.mpf(p.lambda_r)
        edges = [0] + [mpmath.mpf(10) ** e for e in range(-17, 21)]
        body = sum(
            mpmath.quad(lambda v: -mpmath.expm1(-two_pi_lr * inner(v)) * v, [lo, hi])
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        span = mpmath.mpf(p.d_min) ** (2 - a) - mpmath.mpf(p.d_max) ** (2 - a)
        return body + two_pi_lr * k * span * edges[-1] ** (2 - a) / (a - 2) ** 2


class TestJacobiRule:
    @pytest.mark.parametrize("c", [-0.99995, -2.0 / 3.0, -1.0 / 3.0, -0.05])
    def test_exact_to_degree_23(self, c):
        nodes, weights = ia._jacobi_rule(c, 12)
        for j in range(24):
            assert weights @ nodes**j == pytest.approx(1.0 / (c + j + 1.0), rel=1e-14)


class TestClusterInner:
    """The inner surface integral against a 400-digit hypergeometric reference."""

    K = 1e4 * P.n_elements * P.c**2

    @staticmethod
    def _v(x1, p, k):
        # the v at which the kernel ratio at u = d_min is x1
        return k ** (1.0 / p.alpha) * x1 ** (1.0 / p.alpha) / p.d_min

    @pytest.mark.parametrize("alpha", [2.2, 3.0, 3.7, 5.0])
    @pytest.mark.parametrize("x1", [
        1e-300,  # kernel 1 to rounding
        1e-15, 1e-6, 0.5,  # both ends below 1
        1.0 - 1e-9,  # just below 1: the upper end through its complement
        1.0 + 1e-9, 2.0, 1e6,  # both ends through their complements
        1e20,  # x / (1 + x) rounds to 1 at both ends
    ])
    def test_matches_mpmath(self, alpha, x1):
        p = LaplaceParams(alpha=alpha)
        v = self._v(x1, p, self.K)
        assert ia._cluster_inner(p, self.K)(v) == pytest.approx(
            float(_mp_inner(v, p, self.K)), rel=1e-12)

    @pytest.mark.parametrize("alpha", [2.0001, 2.2, 3.0, 3.7, 5.0, 8.0])
    @pytest.mark.parametrize("x1", [1e-300, 1e-15, 1e-6, 0.5, 1.0 - 1e-9, 1.0 + 1e-9,
                                    2.0, 1e6, 1e20])  # the grid of test_matches_mpmath
    def test_matches_incomplete_beta(self, alpha, x1):
        p = LaplaceParams(alpha=alpha)
        v = self._v(x1, p, self.K)
        value, rounding = _betainc_inner(v, p, self.K)
        assert ia._cluster_inner(p, self.K)(v) == pytest.approx(value, rel=1e-13,
                                                                abs=rounding)

    @pytest.mark.parametrize("alpha", [2.2, 3.0, 3.7, 5.0])
    def test_span_across_one(self, alpha):
        # x from far below 1 at d_min to where x / (1 + x) rounds to 1 at d_max
        p = LaplaceParams(alpha=alpha, d_max=1e9)
        for x1 in (1e-12, 0.9):
            v = self._v(x1, p, self.K)
            assert ia._cluster_inner(p, self.K)(v) == pytest.approx(
                float(_mp_inner(v, p, self.K)), rel=1e-12)
        assert 1.0 / (1.0 + (p.d_max * v) ** alpha / self.K) < 1e-16

    @pytest.mark.parametrize("alpha", [2.2, 3.0, 3.7, 5.0])
    def test_limits_in_v(self, alpha):
        p = LaplaceParams(alpha=alpha)
        half_span = 0.5 * (p.d_max**2 - p.d_min**2)
        assert ia._cluster_inner(p, self.K)(0.0) == half_span
        assert ia._cluster_inner(p, self.K)(1e-300) == half_span
        # v**alpha overflows a float: at this k the integral underflows
        huge = 10.0 ** (320.0 / alpha)
        with pytest.raises(OverflowError):
            huge**alpha
        assert 0.0 <= ia._cluster_inner(p, self.K)(huge) <= 1e-300
        # and at a large k it does not
        k = 1e40
        assert ia._cluster_inner(p, k)(huge) == pytest.approx(
            float(_mp_inner(huge, p, k)), rel=1e-12)


class TestReflectedExponent:
    @pytest.mark.parametrize("alpha", [3.0, 3.7])
    def test_matches_mpmath(self, alpha):
        # at alpha = 3.7 a nested quadrature whose inner integral has an
        # absolute error floor is 2.8e-8 off here
        p = LaplaceParams(alpha=alpha, lambda_r=1e-4, n_elements=200, d_min=1.0, d_max=1e3)
        s = 1e4
        assert ia._reflected_cluster_exponent.__wrapped__(s, p) == pytest.approx(
            float(_mp_reflected(s, p)), rel=1e-10)

    def test_wide_span_matches_mpmath(self):
        # the kernel turns over at v = 1.6e-15 (u = d_max) and 1.3e-7
        # (u = d_min), the integrand's mass sits near v = 0.02, and its tail
        # decays like v**-1.2; QUADPACK over all of [0, 1.25e5] returns a
        # negative integral here
        p = LaplaceParams(alpha=2.2, d_min=125187.0, d_max=1.0128476335031e13, c=0.5,
                          n_elements=44, lambda_r=0.5)
        assert ia._reflected_cluster_exponent.__wrapped__(1e-5, p) == pytest.approx(
            float(_mp_reflected(1e-5, p)), rel=1e-10)


class TestTails:
    """Past the last quadrature edge V each integral is finished in closed
    form; the next term of its tail series must stay below 1e-12 of it."""

    @pytest.mark.parametrize("alpha", [2.05, 2.2, 3.0])
    @pytest.mark.parametrize("start, coeff", [(1e-7, 1e-12), (1.0, 0.2), (40.0, 3e11)])
    def test_fewest_decades_meeting_the_bound(self, alpha, start, coeff):
        edges = ia._decades(start, coeff, alpha)
        assert len(edges) >= 2 and edges[0] == start
        assert edges == pytest.approx([start * 10.0**j for j in range(len(edges))])
        assert coeff * edges[-1] ** -alpha < ia._TAIL_RTOL
        if len(edges) > 2:
            assert coeff * edges[-2] ** -alpha >= ia._TAIL_RTOL

    def test_unmet_bound_raises(self):
        # the first decade past 1e308 overflows a float
        with pytest.raises(ArithmeticError, match="closed-form tail"):
            ia._decades(1e308, 1.0, 3.0)

    @pytest.mark.parametrize("alpha", [2.05, 2.2])
    @pytest.mark.parametrize("k", [1e-3, 63.326, 1e5])
    def test_direct_matches_mpmath(self, alpha, k):
        # integral_0^inf v / (1 + v**alpha / k) dv = k**(2/alpha) (pi/alpha) / sin(2 pi/alpha)
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            exact = mpmath.mpf(k) ** (2 / a) * mpmath.pi / (a * mpmath.sin(2 * mpmath.pi / a))
        assert ia._ppp_direct_integral(k, alpha) == pytest.approx(float(exact), rel=1e-10)

    @pytest.mark.parametrize("alpha", [2.05, 2.2])
    def test_reflected_matches_mpmath(self, alpha):
        p = LaplaceParams(alpha=alpha, lambda_r=1e-4, n_elements=200, d_min=1.0, d_max=1e3)
        for s in (1e4, 1e8):
            assert ia._reflected_cluster_exponent.__wrapped__(s, p) == pytest.approx(
                float(_mp_reflected(s, p)), rel=1e-10)


class TestEmpiricalLaplace:
    def test_exactly_one_at_zero(self):
        est, stderr = empirical_laplace(0.0, np.full(2000, 3.3e-11))
        assert est == 1.0
        assert stderr == 0.0

    def test_requires_ensemble(self):
        with pytest.raises(ValueError):
            empirical_laplace(1.0, np.ones(10))

    def test_matches_known_law(self):
        # exponential samples have transform 1 / (1 + s mean)
        rng = np.random.default_rng(0)
        samples = rng.exponential(2.0, 200_000)
        est, stderr = empirical_laplace(0.5, samples)
        assert abs(est - 0.5) < 4 * stderr
