"""Outage probabilities via the gamma-tail derivative series, the infection
and recovery rates and propagation intensity built from them, and the SIS
dynamics.

The outage series treats the serving power as gamma distributed with an
integer (Erlang) shape; each term is a derivative at s = 1 of the product of
a noise factor and the interference transform.  Both are exp(-E(s)) for one
exponent E(s) = a s + b s^p + c, whose Taylor series around s = 1 is written
down directly (the s^p coefficients are binomial); the derivatives are the
Taylor coefficients of its exponential, held in a ``Jet``.

``analytic_rates`` is the one chain from the outage pair to beta, mu and
R0 = beta / mu; it works in coverage space (``log_coverage``) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interference_analytic import LaplaceParams, transform_exponent_coeffs
from .power_analytic import GammaFit

__all__ = [
    "Jet",
    "OutageParams",
    "SisParams",
    "RatesResult",
    "outage_transform_jet",
    "log_coverage",
    "analytic_rates",
    "sis_ode_solve",
    "sis_equilibrium",
    "sis_logistic_solution",
]


@dataclass(frozen=True)
class Jet:
    """Taylor coefficients of a smooth function around a fixed point.

    ``coef[k]`` is the k-th Taylor coefficient; the k-th derivative is
    ``coef[k] * k!``.  Length is order + 1.
    """

    coef: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coef", np.asarray(self.coef, dtype=float))
        if self.coef.ndim != 1 or self.coef.size == 0:
            raise ValueError("jet coefficients must be a nonempty 1-D sequence")

    @property
    def order(self) -> int:
        return self.coef.size - 1

    def derivative(self, k: int) -> float:
        if not 0 <= k <= self.order:
            raise ValueError(f"derivative order {k} outside jet order {self.order}")
        return self.coef[k] * math.factorial(k)

    def exp(self) -> "Jet":
        a = self.coef
        n = a.size
        e = np.zeros(n)
        e[0] = math.exp(a[0])
        if not math.isfinite(e[0]):
            raise ArithmeticError("jet exp overflowed at the constant term")
        j = np.arange(1, n)
        # an overflow shows as a non-finite coefficient, checked below
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, n):
                # e_k = (1/k) * sum_{j=1..k} j * a_j * e_{k-j}
                e[k] = np.dot(j[:k] * a[1 : k + 1], e[k - 1 :: -1]) / k
        if not np.all(np.isfinite(e)):
            raise ArithmeticError("jet exp produced non-finite coefficients")
        return Jet(e)


@dataclass(frozen=True)
class OutageParams:
    """Inputs of the outage series."""

    fit: GammaFit
    threshold: float
    power_w: float
    sigma2_w: float
    laplace: LaplaceParams

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("SINR threshold must be nonnegative")
        if self.power_w <= 0:
            raise ValueError("transmit power must be positive")
        if self.sigma2_w < 0:
            raise ValueError("noise power must be nonnegative")

    @property
    def series_order(self) -> int:
        """Erlang order of the truncated sum: the fitted gamma shape, rounded
        and clamped to [1, 60] (factorial conditioning).

        A fitted shape above 60.5 (``n_elements`` of 887 or more at the
        default link) is summed at order 60, which moves P_o: at
        ``n_elements: 1000`` and -20 dBm the shape is 74.51, and P_o reads
        0.01040 at order 60 against 0.01020 at order 75.
        """
        return max(1, min(60, round(self.fit.shape)))


@dataclass(frozen=True)
class SisParams:
    """Susceptible-infected-susceptible rates and population."""

    beta: float
    mu: float
    n_total: float
    x0: float

    def __post_init__(self):
        if self.beta < 0 or self.mu < 0:
            raise ValueError("rates must be nonnegative")
        if not 0 <= self.x0 <= self.n_total:
            raise ValueError("initial infected count must lie in [0, n_total]")


def _transform_coefficients(
    params: OutageParams, stage: str, form: str
) -> tuple[float, float, float, float, float]:
    """(noise, power_coeff, power_exponent, linear, constant) of the
    composite exponent after folding the transform argument s T / eta."""
    eta = params.fit.scale
    arg_scale = params.threshold / eta
    q_pow, q_lin, q_const = transform_exponent_coeffs(params.laplace, stage, form)
    two_over_alpha = 2.0 / params.laplace.alpha
    noise = params.threshold * params.sigma2_w / (params.power_w * eta)
    return noise, q_pow * arg_scale**two_over_alpha, two_over_alpha, q_lin * arg_scale, q_const


def _shifted_exponent_jet(params: OutageParams, stage: str, form: str) -> tuple[Jet, float]:
    """Jet around s = 1 of the composite exponent less its value there, and
    that value ``level``.

    With E(s) = (noise + lin) s + p_coeff s^p + const the transform is
    exp(-E(s)) = exp(shifted) * exp(-level), where shifted = E(1) - E(s) has
    a zero constant term, so its exp starts at 1.  Around s = 1,
    s^p = sum_k b_k (s - 1)^k with the binomial coefficients b_0 = 1,
    b_k = ((p + 1) / k - 1) b_{k-1}.
    """
    noise, p_coeff, p_exp, lin, const = _transform_coefficients(params, stage, form)
    level = noise + p_coeff + lin + const
    coef = np.zeros(params.series_order)
    if coef.size > 1:
        coef[1] = -(noise + lin)
    b = 1.0
    for k in range(1, coef.size):
        b *= (p_exp + 1.0) / k - 1.0
        coef[k] -= p_coeff * b
    return Jet(coef), level


def outage_transform_jet(params: OutageParams, stage: str, form: str) -> Jet:
    """Jet around s = 1 of exp(-s T sigma^2 / (P eta)) * L(s T / eta)."""
    shifted, level = _shifted_exponent_jet(params, stage, form)
    return Jet(shifted.exp().coef * math.exp(-level))


def log_coverage(params: OutageParams, stage: str, form: str) -> float:
    """log of the truncated derivative series sum_{x<k} ((-1)^x/x!) F^(x)(1).

    The constant part of the exponent is factored out before the jet is
    exponentiated, so the alternating sum runs over same-sign terms with a
    unit leading coefficient.  That keeps the coverage usable far into the
    tail (noise exponents in the thousands) where forming 1 - P_o in
    probability space would lose everything to rounding.
    """
    if params.threshold == 0.0:
        # no outage below zero SINR; the affine form's constant offset
        # would otherwise leak into this trivial case
        return 0.0
    shifted, level = _shifted_exponent_jet(params, stage, form)
    jet = shifted.exp()
    signs = (-1.0) ** np.arange(params.series_order)
    series_sum = float(np.dot(signs, jet.coef))
    if not (math.isfinite(series_sum) and series_sum > 0.0):
        raise ArithmeticError("outage series produced a non-positive or non-finite sum")
    return min(0.0, math.log(series_sum) - level)


@dataclass(frozen=True)
class RatesResult:
    """Analytic outage pair and the epidemic rates derived from it."""

    p_o: float
    p_o_prime: float
    beta: float
    mu: float
    r0: float


def analytic_rates(params: OutageParams, form: str) -> RatesResult:
    """Outage pair, beta = (1 - P_o) P_o', mu = P_o (1 - P_o') and
    R0 = beta / mu, evaluated in coverage space.

    R0 = [cov_b (1 - cov_a)] / [(1 - cov_b) cov_a] stays well conditioned
    even where both outage probabilities round to 1.  Equal coverage before
    and after movement gives exactly 1 (movement changes nothing), and
    mu = 0 gives +inf, the supercritical-degenerate case.
    """
    lcb = log_coverage(params, "before", form)
    lca = log_coverage(params, "after", form)
    cov_b, cov_a = math.exp(lcb), math.exp(lca)
    p_o, p_o_prime = -math.expm1(lcb), -math.expm1(lca)
    beta = cov_b * p_o_prime
    mu = p_o * cov_a
    if lcb == lca:
        r0 = 1.0
    elif p_o == 0.0 or lcb - lca > 700.0:
        r0 = math.inf
    else:
        r0 = math.exp(lcb - lca) * p_o_prime / p_o
    return RatesResult(p_o, p_o_prime, beta, mu, r0)


def sis_ode_solve(
    p: SisParams, t_end: float, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step RK4 for dX/dt = beta X (N - X) - mu X.

    Returns (t, S, X); S is reported as N - X, so the population is conserved
    exactly at every step.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    n_steps = int(round(t_end / dt))
    t = np.linspace(0.0, n_steps * dt, n_steps + 1)
    # Python floats: the same float64 arithmetic without numpy-scalar calls
    beta, mu, n_total = float(p.beta), float(p.mu), float(p.n_total)
    xi = float(p.x0)
    x = [xi]

    def rhs(xv: float) -> float:
        return beta * xv * (n_total - xv) - mu * xv

    for _ in range(n_steps):
        k1 = rhs(xi)
        k2 = rhs(xi + 0.5 * dt * k1)
        k3 = rhs(xi + 0.5 * dt * k2)
        k4 = rhs(xi + dt * k3)
        xi = xi + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        x.append(xi)
    x = np.array(x)
    return t, p.n_total - x, x


def sis_equilibrium(p: SisParams) -> float:
    """Stable infected level: max(0, N - mu/beta), or 0 when beta = 0."""
    if p.beta == 0.0:
        return 0.0
    return max(0.0, p.n_total - p.mu / p.beta)


def sis_logistic_solution(p: SisParams, t: np.ndarray) -> np.ndarray:
    """Closed-form trajectory of the SIS ODE (logistic in X).

    With r = beta*N - mu and K = N - mu/beta:
    X(t) = K X0 e^{rt} / (K + X0 (e^{rt} - 1)); the beta = 0 and r = 0
    degenerate cases reduce to pure decay and hyperbolic decay.
    """
    t = np.asarray(t, dtype=float)
    if p.x0 == 0.0:
        return np.zeros_like(t)
    if p.beta == 0.0:
        return p.x0 * np.exp(-p.mu * t)
    r = p.beta * p.n_total - p.mu
    if r == 0.0:
        return p.x0 / (1.0 + p.beta * p.x0 * t)
    k = r / p.beta
    em = np.exp(-r * t)
    return k * p.x0 / (k * em + p.x0 * (1.0 - em))
