"""Closed-form moments of the reflected gain and the total serving power,
gamma moment matching, and the resulting distribution function.

The reflected gain is a sum of N independent Nakagami amplitude products;
its first two moments are exact.  The serving power is the square of the
coherently combined direct and reflected amplitudes; its second moment uses
the gamma-matched moments of the reflected gain for the cubic and quartic
terms, which is where the approximation lives.
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
    """Regularized lower incomplete gamma at x / scale, element-wise for an
    array ``x`` (a float for a scalar)."""
    from scipy.special import gammainc

    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError(f"x must be nonnegative, got {x.min()}")
    cdf = gammainc(fit.shape, x / fit.scale)
    return float(cdf) if cdf.ndim == 0 else cdf
