"""Closed-form moments of the reflected gain and the total serving power,
gamma moment matching, and the resulting distribution function.

The reflected gain is a sum of N independent Nakagami amplitude products;
its first two moments are exact.  The serving power is the square of the
coherently combined direct and reflected amplitudes; its second moment uses
the gamma-matched moments of the reflected gain for the cubic and quartic
terms, which is where the approximation lives.

The distribution function is the regularized incomplete gamma function,
computed here by its power series and continued fraction rather than
imported from ``scipy.special``, whose import cost validate-power about
0.3 s of its 1.0 s and 18 MB of its 56 MB peak memory (20,000 samples, on
2 vCPUs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MomentPair",
    "GammaFit",
    "nakagami_amplitude_mean",
    "sr_moments",
    "gamma_fit_from_moments",
    "s0_moments",
    "s0_gamma_cdf",
    "ks_distance",
    "lower_incomplete_gamma_regularized",
]

SQRT_PI_OVER_2 = math.sqrt(math.pi) / 2.0  # half-normal mean, E{|g|}
GAMMA_3_2 = SQRT_PI_OVER_2                 # Gamma(3/2)
GAMMA_5_2 = 1.5 * SQRT_PI_OVER_2           # Gamma(5/2)


@dataclass(frozen=True)
class MomentPair:
    """First and second raw moments of a nonnegative random variable."""

    mean: float
    second_moment: float

    def __post_init__(self):
        if self.second_moment < self.mean**2 - 1e-12 * abs(self.second_moment):
            raise ValueError("second moment implies negative variance")

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean**2


@dataclass(frozen=True)
class GammaFit:
    """Shape/scale pair; shape*scale and shape*scale^2 match the moments."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError("gamma shape and scale must be positive")

    def raw_moment(self, k: int) -> float:
        """E{X^k} = scale^k * Gamma(shape + k) / Gamma(shape), the rising
        factorial shape (shape + 1) ... (shape + k - 1) times scale^k."""
        return self.scale**k * math.prod(self.shape + i for i in range(k))


def nakagami_amplitude_mean(m: float) -> float:
    """Mean amplitude Gamma(m + 1/2) / (Gamma(m) sqrt(m)) at unit power."""
    if m < 0.5:
        raise ValueError(f"Nakagami shape must be at least 0.5, got {m}")
    return math.exp(math.lgamma(m + 0.5) - math.lgamma(m)) / math.sqrt(m)


def sr_moments(n_elements: int, m1: float, m2: float) -> MomentPair:
    """Exact first two moments of the aligned reflected gain.

    mean = N mu1 mu2; second moment = N + N(N-1) (mu1 mu2)^2, with mu_i the
    Nakagami amplitude means.  The cross terms vanish at N = 1.
    """
    if n_elements < 1:
        raise ValueError("n_elements must be at least 1")
    mu = nakagami_amplitude_mean(m1) * nakagami_amplitude_mean(m2)
    mean = n_elements * mu
    second = n_elements + n_elements * (n_elements - 1) * mu**2
    return MomentPair(mean, second)


def gamma_fit_from_moments(mp: MomentPair) -> GammaFit:
    """Moment-matched gamma law: shape = mean^2/var, scale = var/mean."""
    var = mp.variance
    if var <= 0:
        raise ValueError("zero variance: distribution is degenerate, no gamma fit")
    return GammaFit(shape=mp.mean**2 / var, scale=var / mp.mean)


def s0_moments(
    pl_direct: float, pl_reflected: float, n_elements: int, m1: float, m2: float
) -> MomentPair:
    """Moments of the assisted serving power (direct + reflected amplitude)^2.

    The first moment expands exactly over direct, cross, and reflected terms
    using E{|g|^2} = 1 and E{|g|} = sqrt(pi/4).  The second moment is the
    binomial expansion of the fourth power, with half-normal moments
    Gamma(1 + k/2) for the direct amplitude and gamma-fit moments for the
    reflected gain (exact up to order two, matched beyond).
    """
    if pl_direct < 0 or pl_reflected < 0:
        raise ValueError("path-loss gains must be nonnegative")
    sr = sr_moments(n_elements, m1, m2)
    mean = (
        pl_direct
        + 2.0 * math.sqrt(pl_direct * pl_reflected) * SQRT_PI_OVER_2 * sr.mean
        + pl_reflected * sr.second_moment
    )

    fit = gamma_fit_from_moments(sr)
    m3 = fit.raw_moment(3)
    m4 = fit.raw_moment(4)
    second = (
        pl_direct**2 * 2.0
        + 4.0 * pl_direct**1.5 * math.sqrt(pl_reflected) * GAMMA_5_2 * sr.mean
        + 6.0 * pl_direct * pl_reflected * sr.second_moment
        + 4.0 * math.sqrt(pl_direct) * pl_reflected**1.5 * GAMMA_3_2 * m3
        + pl_reflected**2 * m4
    )
    return MomentPair(mean, second)


def s0_gamma_cdf(x: float | np.ndarray, fit: GammaFit) -> float | np.ndarray:
    """Gamma-law CDF P(shape, x / scale), element-wise for an array ``x``
    (a float for a scalar); see ``lower_incomplete_gamma_regularized``."""
    return lower_incomplete_gamma_regularized(fit.shape, np.asarray(x, dtype=float) / fit.scale)


def ks_distance(cdf: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance of sorted samples from a law
    whose CDF at them is ``cdf``: the largest gap to the empirical steps."""
    steps = np.arange(cdf.size + 1) / cdf.size
    return float(max(np.abs(steps[1:] - cdf).max(), np.abs(steps[:-1] - cdf).max()))


# The series needs about 8 sqrt(a) terms next to x = a (16,100 at a = 4.44e6,
# the shape of 5e6 elements), the fraction fewer, so the cap covers shapes up
# to about 1.5e8; beyond, the rounding of the exponent a ln x alone exceeds 1e-7.
_MAX_TERMS = 100_000


def lower_incomplete_gamma_regularized(a: float, x: float | np.ndarray) -> float | np.ndarray:
    """Regularized lower incomplete gamma function P(a, x), element-wise for
    an array ``x`` (a float for a scalar).

    Below x = a + 1 it sums the power series
    sum_n x^n / ((a+1)...(a+n)) times exp(a ln x - x - lgamma(a+1)); at or
    above, it takes one minus Legendre's continued fraction for Q(a, x) times
    exp(a ln x - x - lgamma(a)), evaluated by the modified Lentz method
    (Press et al., Numerical Recipes, 3rd ed., sections 5.2 and 6.2).  P(a, 0)
    is 0 and P(a, inf) is 1.

    Both loops stop when their next update no longer changes any element (it
    lies below half an ulp of it).  Later updates are smaller still (the
    series' terms shrink from the first on, the fraction's steps at least
    once j > a), so an element's value does not depend on the others in its
    array: a scalar call and an array call agree bit for bit.  Against
    ``scipy.special.gammainc`` the error is below 1e-12 for shapes up to 1e3;
    beyond, it grows with the rounding of the exponent, about eps a ln a
    (2e-8 at a = 4.44e6).  A NaN or negative ``x``, or a shape that is not
    positive and finite, raises ValueError; a loop that reaches its cap of
    ``_MAX_TERMS`` terms raises ArithmeticError.
    """
    if not 0.0 < a < math.inf:
        raise ValueError(f"gamma shape must be positive and finite, got {a}")
    x = np.asarray(x, dtype=float)[()]
    if not _all(x >= 0.0):
        raise ValueError(f"x must be nonnegative, got {np.min(x)}")
    if not isinstance(x, np.ndarray):
        if x < a + 1.0:
            return float(_lower_series(a, x)) if x > 0.0 else 0.0
        return float(1.0 - _upper_fraction(a, x)) if x < math.inf else 1.0
    p = (x == math.inf).astype(float)  # P(a, 0) and P(a, inf)
    low = (0.0 < x) & (x < a + 1.0)
    high = (a + 1.0 <= x) & (x < math.inf)
    p[low] = _lower_series(a, x[low])
    p[high] = 1.0 - _upper_fraction(a, x[high])
    return p


def _all(flags) -> bool:
    """Whether every flag is set, for one numpy flag or an array of them
    (``numpy.bool_.all`` costs microseconds, ``bool`` does not)."""
    return bool(flags.all() if flags.ndim else flags)


def _lower_series(a: float, x):
    """P(a, x) for 0 < x < a + 1 from the power series; the term ratio
    x / (a + n) is below one from the first term on."""
    term = total = 1.0
    for n in range(1, _MAX_TERMS + 1):
        term = term * x / (a + n)
        updated = total + term
        if _all(updated == total):
            return total * np.exp(a * np.log(x) - x - math.lgamma(a + 1.0))
        total = updated
    raise ArithmeticError(f"incomplete gamma series: no convergence in {_MAX_TERMS} terms at a={a}")


def _upper_fraction(a: float, x):
    """Q(a, x) for a + 1 <= x < inf from the continued fraction
    f = b_0 + a_1 / (b_1 + a_2 / (b_2 + ...)), b_j = x + 1 - a + 2j,
    a_j = j (a - j), with Q = exp(a ln x - x - lgamma(a)) / f.

    Lentz's f_j = f_(j-1) C_j D_j is taken as f_(j-1) (1 + step_j), with the
    relative step C_j D_j - 1 = -a_j D_j (C_(j-1) D_(j-1) - 1) / C_(j-1)
    carried by its own recurrence: computed as a product, C_j D_j would stay
    an ulp or two off one, and the update would never vanish.  For x >= a
    (b_0 >= 1) every C_j and 1 / D_j is at least j + 1, by induction on j,
    so neither needs Lentz's guard against zero.
    """
    b = x - a + 1.0
    f = c = b
    d = 0.0
    step = -1.0
    for j in range(1, _MAX_TERMS + 1):
        aj = j * (a - j)
        b = b + 2.0
        d = 1.0 / (b + aj * d)
        step = -aj * step * d / c
        c = b + aj / c
        updated = f + f * step
        if _all(updated == f):
            return np.exp(a * np.log(x) - x - math.lgamma(a)) / f
        f = updated
    raise ArithmeticError(
        f"incomplete gamma continued fraction: no convergence in {_MAX_TERMS} terms at a={a}")
