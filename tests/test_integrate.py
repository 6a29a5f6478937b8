"""The adaptive Gauss–Kronrod rule behind the quadrature oracle."""

import math

import numpy as np
import pytest

from ris_sim.integrate import GAUSS, KRONROD, NODES, quad

OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=200)


class TestRule:
    @staticmethod
    def _on_unit_interval(weights, degree):
        # the rule mapped to [0, 1], where x**degree integrates to 1 / (degree + 1)
        x = 0.5 * (NODES + 1.0)
        return 0.5 * weights @ x**degree * (degree + 1)

    def test_nodes_and_weights(self):
        assert NODES.shape == KRONROD.shape == GAUSS.shape == (21,)
        assert (np.diff(NODES) > 0).all() and NODES[10] == 0.0
        assert NODES == pytest.approx(-NODES[::-1], abs=0)
        assert KRONROD.sum() == pytest.approx(2.0, rel=1e-15)
        assert GAUSS.sum() == pytest.approx(2.0, rel=1e-15)
        assert np.count_nonzero(GAUSS) == 10 and (KRONROD > 0).all()

    @staticmethod
    def _even_error(weights, degree):
        # on [-1, 1], where the first monomial a symmetric rule misses is even
        return abs(weights @ NODES**degree - 2.0 / (degree + 1))

    def test_kronrod_exact_to_degree_31(self):
        for degree in range(32):
            assert self._on_unit_interval(KRONROD, degree) == pytest.approx(1.0, rel=1e-14)
        assert self._even_error(KRONROD, 30) < 1e-15
        assert self._even_error(KRONROD, 32) > 1e-12

    def test_gauss_exact_to_degree_19(self):
        for degree in range(20):
            assert self._on_unit_interval(GAUSS, degree) == pytest.approx(1.0, rel=1e-14)
        assert self._even_error(GAUSS, 18) < 1e-15
        assert self._even_error(GAUSS, 20) > 1e-7


class TestQuad:
    def test_smooth_integrand(self):
        val, err = quad(np.exp, [0.0, 1.0], **OPTS)
        assert val == pytest.approx(math.e - 1.0, rel=1e-15)
        assert err < 1e-13

    def test_breakpoints_and_refinement(self):
        # an integrable endpoint singularity needs many bisections
        val, err = quad(np.sqrt, [0.0, 0.5, 1.0], **OPTS)
        assert val == pytest.approx(2.0 / 3.0, rel=1e-11)
        assert err <= 1e-11 * val

    def test_one_call_per_pass_on_every_interval_it_evaluates(self):
        sizes = []

        def f(x):
            sizes.append(x.shape)
            return 1.0 / x

        val, _ = quad(f, [1.0, 10.0, 100.0, 1000.0], **OPTS)
        assert val == pytest.approx(math.log(1000.0), rel=1e-12)
        assert sizes[0] == (3 * 21,)
        assert all(len(shape) == 1 and shape[0] % 42 == 0 for shape in sizes[1:])

    def test_limit_stops_refinement(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.abs(x - 1.0 / 3.0) ** -0.5

        val, err = quad(f, [0.0, 1.0], epsabs=0.0, epsrel=1e-15, limit=8)
        # one interval, then seven bisections of two new intervals each
        assert sum(calls) == 21 + 7 * 42
        assert err > 1e-15 * val

    def test_zero_width_intervals_add_nothing(self):
        assert quad(np.cos, [0.0, 0.0, 1.0, 1.0], **OPTS)[0] == pytest.approx(
            math.sin(1.0), rel=1e-15)

    def test_nonfinite_integrand_returns_at_once(self):
        calls = []

        def f(x):
            calls.append(1)
            return np.full(x.shape, np.nan)

        val, err = quad(f, [0.0, 1.0], **OPTS)
        assert math.isnan(val) and math.isnan(err) and len(calls) == 1

    @pytest.mark.parametrize("edges", [[0.0], [1.0, 0.0], [0.0, np.inf], [[0.0, 1.0]]])
    def test_bad_edges(self, edges):
        with pytest.raises(ValueError, match="edges"):
            quad(np.exp, edges, **OPTS)
