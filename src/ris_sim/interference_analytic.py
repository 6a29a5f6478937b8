"""Closed-form Laplace transforms of the aggregate interference before and
after user movement, plus an independent quadrature oracle over the
generating-functional integrals.

Two closed forms are provided for the reflected-interference factor:

* ``affine`` reproduces the published expression verbatim: the exponent is
  affine in s (a linear term plus an s-independent offset).  Because of the
  offset the transform does not equal 1 at s = 0, which violates the Laplace
  transform axiom; this is deliberate and surfaced, not patched.
* ``pgfl`` carries the (s N c^2)**(2/alpha) power law that the
  generating-functional integrals actually produce under the same
  [d_min, d_max] truncation.  It satisfies L(0) = 1 and matches the
  quadrature oracle to better than 1e-6 at the default densities.

The quadrature oracle is the behavioral arbiter whenever the two disagree.
It keeps the nested generating-functional expectation of the reflected
factor: an adaptive quadrature over the BS distance v of
1 - exp(-2 pi lambda_r inner(v)), taken with ``expm1`` and never
linearized.  The inner surface integral,
integral_{d_min}^{d_max} u / (1 + (u v)**alpha / k) du, is evaluated exactly
by the change of variables t = x / (1 + x), x = (u v)**alpha / k:

    inner(v) = k**(2/alpha) / (alpha v**2) * B(2/alpha, 1 - 2/alpha)
               * (I_t2(2/alpha, 1 - 2/alpha) - I_t1(2/alpha, 1 - 2/alpha))

with I the regularized incomplete beta function (DLMF 8.17), an end with
x >= 1 entering through its complement I_{1/(1+x)}(1 - 2/alpha, 2/alpha).
This is the same integral to rounding, not an approximation, so the oracle
stays independent of the closed forms: it never uses their s**(2/alpha)
power law, and the outer integral keeps the full nonlinearity, which the
pgfl closed form linearizes.  The direct-field integral stays an adaptive
quadrature, since its closed form is exactly what the oracle checks.

The reflected integral depends on (s, p) alone and not on the stage, so it
is memoized: it is a pure function of a float and a frozen (hashable)
dataclass, the cache is bounded (128 entries, more than the 50-point grids
that evaluate both stages), and a failing quadrature raises, so a failure
is never cached.  With the inner integral in closed form one oracle point
costs 3.5 ``quad`` calls on average (two for the direct field, and three
for the reflected factor in the first stage only), 1–2 ms on a 2-vCPU
host.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from dataclasses import dataclass

import numpy as np


def _lazy_module(name: str):
    """Module ``name``, executed on its first attribute access (the
    ``importlib.util.LazyLoader`` recipe); an imported one is reused."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


# scipy.integrate pulls in scipy.optimize, linalg, sparse and spatial, about
# 0.35 s of start-up that only the oracle needs, and scipy.special (with
# numpy.f2py behind its array-API layer) about 0.28 s that only the oracle
# and the gamma CDF need.  They stay module attributes, looked up as
# ``integrate.quad`` at each call and as ``special.betainc`` once per
# transform variable s (when the oracle builds its inner integrand), so a
# call can be wrapped or patched.  The first attribute access loads a module
# without a lock (Python 3.11), which is safe because the oracle is only
# ever called from one thread, and because ``cli.main`` loads ``special``
# for the two commands that use it before any thread or worker process
# exists.
integrate = _lazy_module("scipy.integrate")
special = _lazy_module("scipy.special")

__all__ = [
    "LaplaceParams",
    "REFLECTED_FORMS",
    "transform_exponent_coeffs",
    "laplace_before",
    "laplace_after",
    "laplace_quadrature_oracle",
    "empirical_laplace",
]

REFLECTED_FORMS = ("affine", "pgfl")


@dataclass(frozen=True)
class LaplaceParams:
    """Everything entering the interference transforms.

    ``d_min``/``d_max`` truncate the reflected-path distance integral (the
    untruncated integral diverges).  ``r_i`` is the interference radius that
    sets the near-user density lambda_b * lambda_u * pi * r_i**2.
    """

    lambda_b: float = 1e-5
    lambda_r: float = 1e-5
    lambda_u: float = 1e-2
    c: float = 6.3326e-5
    alpha: float = 3.0
    n_elements: int = 200
    d_min: float = 1.0
    d_max: float = 1000.0
    r_i: float = 10.0

    def __post_init__(self):
        if not self.alpha > 2:
            raise ValueError(f"alpha must exceed 2 for convergence, got {self.alpha}")
        if not 0 < self.d_min < self.d_max:
            raise ValueError("require 0 < d_min < d_max")
        if not self.r_i > 0:
            raise ValueError("r_i must be positive")
        for name in ("lambda_b", "lambda_r", "lambda_u"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not self.c > 0:
            raise ValueError("path-loss constant must be positive")

    @property
    def lambda_u_near(self) -> float:
        return self.lambda_b * self.lambda_u * math.pi * self.r_i**2


def _csc_2pi_over_alpha(alpha: float) -> float:
    return 1.0 / math.sin(2.0 * math.pi / alpha)


def transform_exponent_coeffs(
    p: LaplaceParams, stage: str, form: str = "affine"
) -> tuple[float, float, float]:
    """Coefficients (q_pow, q_lin, q_const) such that the transform equals
    exp(-(q_pow * s**(2/alpha) + q_lin * s + q_const)).

    The s**(2/alpha) bucket collects the direct-interference factor, the
    near-user factor (stage "after"), and the pgfl reflected factor; the
    published affine reflected factor contributes the linear and constant
    buckets instead.
    """
    if stage not in ("before", "after"):
        raise ValueError(f"stage must be 'before' or 'after', got {stage!r}")
    if form not in REFLECTED_FORMS:
        raise ValueError(f"form must be one of {REFLECTED_FORMS}, got {form!r}")
    a = p.alpha
    csc = _csc_2pi_over_alpha(a)
    two_over_a = 2.0 / a

    q_pow = 2.0 * math.pi**2 * p.lambda_b * csc * p.c**two_over_a / a
    q_lin = 0.0
    q_const = 0.0

    log_span = math.log(p.d_max) - math.log(p.d_min)
    if form == "affine":
        q_lin = (
            2.0 * math.pi * p.lambda_b
            * (2.0 * math.pi**2 * p.lambda_r * csc * p.n_elements**2 * p.c**2 / a**2)
            * log_span
        )
        q_const = (
            2.0 * math.pi * p.lambda_b
            * (a / (a - 1.0))
            * (p.d_max ** (1.0 - 1.0 / a) - p.d_min ** (1.0 - 1.0 / a))
        )
    else:
        q_pow += (
            4.0 * math.pi**3 * p.lambda_b * p.lambda_r * csc / a
            * (p.n_elements * p.c**2) ** two_over_a
            * log_span
        )

    if stage == "after":
        q_pow += 2.0 * math.pi**2 * p.lambda_u_near * csc * p.c**two_over_a / a
    return q_pow, q_lin, q_const


def _closed_form(s: float, p: LaplaceParams, stage: str, form: str) -> float:
    if s < 0:
        raise ValueError(f"transform variable must be nonnegative, got {s}")
    q_pow, q_lin, q_const = transform_exponent_coeffs(p, stage, form)
    return math.exp(-(q_pow * s ** (2.0 / p.alpha) + q_lin * s + q_const))


def laplace_before(s: float, p: LaplaceParams, form: str = "affine") -> float:
    """Interference transform with only the fixed infrastructure active."""
    return _closed_form(s, p, "before", form)


def laplace_after(s: float, p: LaplaceParams, form: str = "affine") -> float:
    """Transform once near mobile users contribute; adds the
    lambda_b*lambda_u*pi*r_i**2 factor on top of laplace_before."""
    return _closed_form(s, p, "after", form)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=200)


def _checked_quad(fn, lo, hi, points=None) -> float:
    """Integral of a nonnegative integrand; a negative value can only come
    from a failed extrapolation and raises like a large error estimate."""
    val, err = integrate.quad(fn, lo, hi, points=points, **_QUAD_OPTS)
    if not math.isfinite(val) or val < 0.0 or err > max(1e-10, 1e-6 * abs(val)):
        raise ArithmeticError(
            f"quadrature failed: value={val}, abserr={err}, interval=({lo}, {hi})"
        )
    return val


def _ppp_direct_integral(kernel_scale: float, alpha: float) -> float:
    """integral_0^inf (1 - 1/(1 + kernel_scale * v**-alpha)) v dv."""
    if kernel_scale == 0.0:
        return 0.0

    def integrand(v: float) -> float:
        # algebraically 1 - 1/(1 + k v^-a), written overflow-safe
        return v / (1.0 + v**alpha / kernel_scale)

    knee = kernel_scale ** (1.0 / alpha)
    return _checked_quad(integrand, 0.0, knee) + _checked_quad(integrand, knee, np.inf)


def _kernel_ratio(w: float, root_k: float, alpha: float) -> float:
    """(w / root_k)**alpha, inf where it overflows a float."""
    try:
        return (w / root_k) ** alpha
    except OverflowError:
        return math.inf


def _cluster_inner(p: LaplaceParams, k: float):
    """The function v -> integral_{d_min}^{d_max} u / (1 + (u v)**alpha / k) du,
    in closed form.

    With x = (u v)**alpha / k and t = x / (1 + x) the integral is
    k**(2/alpha) / (alpha v**2) * B(2/alpha, 1 - 2/alpha) * (I_t2 - I_t1),
    I_t = I_t(2/alpha, 1 - 2/alpha) the regularized incomplete beta
    function.  An end with x >= 1 enters through its complement
    1 - I_t = I_{1/(1+x)}(1 - 2/alpha, 2/alpha): t itself would round to 1
    as v grows and take the difference with it.  What depends on (p, k)
    alone, B included, is computed once here, not at each of the outer
    quadrature's evaluations.
    """
    a, d_min, d_max = p.alpha, p.d_min, p.d_max
    root_k = k ** (1.0 / a)
    lo, hi = 2.0 / a, 1.0 - 2.0 / a
    beta = special.beta(lo, hi)
    betainc, betaincc = special.betainc, special.betaincc
    half_span = 0.5 * (d_max * d_max - d_min * d_min)

    def complement(x: float, w: float) -> float:
        # 1 - I_t, from 1 / (1 + x) = (root_k / w)**alpha to rounding once x overflows
        y = 1.0 / (1.0 + x) if math.isfinite(x) else (root_k / w) ** a
        return betainc(hi, lo, y)

    def inner(v: float) -> float:
        x1 = _kernel_ratio(d_min * v, root_k, a)
        x2 = _kernel_ratio(d_max * v, root_k, a)
        if x2 < 1e-17:
            # the kernel is 1 to rounding over the whole interval (v = 0 included)
            return half_span
        if x2 < 1.0:
            diff = betainc(lo, hi, x2 / (1.0 + x2)) - betainc(lo, hi, x1 / (1.0 + x1))
        elif x1 < 1.0:
            diff = betaincc(lo, hi, x1 / (1.0 + x1)) - complement(x2, d_max * v)
        else:
            diff = complement(x1, d_min * v) - complement(x2, d_max * v)
        r = root_k / v
        return float(r * r * beta * diff / a)

    return inner


@functools.lru_cache(maxsize=128)
def _reflected_cluster_exponent(s: float, p: LaplaceParams) -> float:
    """integral_0^inf (1 - exp(-2 pi lambda_r * inner(v))) v dv with the inner
    surface integral truncated to [d_min, d_max] and evaluated by
    ``_cluster_inner``."""
    k = s * p.n_elements * p.c**2
    if k == 0.0 or p.lambda_r == 0.0:
        return 0.0
    a = p.alpha
    two_pi_lr = 2.0 * math.pi * p.lambda_r
    inner = _cluster_inner(p, k)

    def outer(v: float) -> float:
        return -math.expm1(-two_pi_lr * inner(v)) * v

    # the kernel at u = d_max and at u = d_min turns over at lo and hi: below
    # lo the integrand is linear in v, beyond hi it decays like v**(1-alpha),
    # and its mass can sit anywhere from lo on.  An interval much longer
    # than the mass around it can come back with a negative integral.
    root_k = k ** (1.0 / a)
    lo, hi = root_k / p.d_max, root_k / p.d_min
    return (_checked_quad(outer, 0.0, lo) + _checked_quad(outer, lo, hi)
            + _checked_quad(outer, hi, np.inf))


def laplace_quadrature_oracle(s: float, p: LaplaceParams, stage: str = "before") -> float:
    """Direct numerical evaluation of the generating-functional integrals.

    Independent of the closed forms: the direct and near-user factors
    integrate the Lorentzian kernel over (0, inf); the reflected factor keeps
    the full nested expectation (no linearization) with the surface distance
    truncated to [d_min, d_max].  Equals 1 exactly at s = 0.
    """
    if s < 0:
        raise ValueError(f"transform variable must be nonnegative, got {s}")
    if stage not in ("before", "after"):
        raise ValueError(f"stage must be 'before' or 'after', got {stage!r}")
    if s == 0.0:
        return 1.0
    direct = _ppp_direct_integral(s * p.c, p.alpha)
    exponent = 2.0 * math.pi * p.lambda_b * direct
    exponent += 2.0 * math.pi * p.lambda_b * _reflected_cluster_exponent(s, p)
    if stage == "after":
        exponent += 2.0 * math.pi * p.lambda_u_near * direct
    return math.exp(-exponent)


def empirical_laplace(s: float, interference_samples: np.ndarray) -> tuple[float, float]:
    """Monte Carlo estimate of E{exp(-s I)} with its standard error.

    ``interference_samples`` holds realized aggregate interference powers
    (one per trial); at least 1e3 are required for a usable error bar.
    """
    samples = np.asarray(interference_samples, dtype=float)
    if samples.size < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples.size}")
    if s < 0:
        raise ValueError(f"transform variable must be nonnegative, got {s}")
    values = np.exp(-s * samples)
    est = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(values.size))
    return est, stderr
