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
by the change of variables x = (u v)**alpha / k: it is
k**(2/alpha) / (alpha v**2) times the difference between the two ends of
the incomplete beta function J(x) = integral_0^x y**(2/alpha-1) / (1+y) dy
(DLMF 8.17), whose limit J(inf) is pi / sin(2 pi / alpha).  Two 12-node
Gauss–Jacobi rules give J to rounding (see ``_cluster_inner``), not as an
approximation, so the oracle stays independent of the closed forms: it
never uses their s**(2/alpha) power law, and the outer integral keeps the
full nonlinearity, which the pgfl closed form linearizes.  The direct-field
integral stays an adaptive quadrature, since its closed form is exactly what
the oracle checks.

Both outer integrals run ``integrate.quad``, the package's own vectorized
Gauss–Kronrod rule, over finite breakpoints only: segments of at most a
decade up to a point V past the kernel's turn-over, then the tail beyond V
in closed form, the leading term of the integrand's series in v**-alpha.  V
is the first decade at which the series' next term falls below 1e-12 of
that leading term, a bound checked at each call, so a tail that decays as
slowly as v**(1-alpha) at alpha near 2 is never left to an infinite-range
extrapolation.

Neither integral depends on the stage, so both are memoized: the direct
one is a pure function of two floats, the reflected one of a float and a
frozen (hashable) dataclass, each cache is bounded (128 entries, more than
the 50-point grids that evaluate both stages), and a failing quadrature
raises, so a failure is never cached.  One oracle point of such a grid
costs one ``quad`` call on average (the direct field and the reflected
factor, each in the first stage only) of about three refinement passes,
0.4-0.6 ms on a 2-vCPU host.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import integrate

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
    p: LaplaceParams, stage: str, form: str
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


def laplace_before(s: float, p: LaplaceParams, form: str) -> float:
    """Interference transform with only the fixed infrastructure active."""
    return _closed_form(s, p, "before", form)


def laplace_after(s: float, p: LaplaceParams, form: str) -> float:
    """Transform once near mobile users contribute; adds the
    lambda_b*lambda_u*pi*r_i**2 factor on top of laplace_before."""
    return _closed_form(s, p, "after", form)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=200)

# the largest share of a closed-form tail that its first neglected term may be
_TAIL_RTOL = 1e-12


def _checked_quad(fn, edges) -> float:
    """Integral of a nonnegative integrand over the breakpoints ``edges``; a
    negative value, which the rule's positive weights cannot give, raises
    like a large error estimate."""
    val, err = integrate.quad(fn, edges, **_QUAD_OPTS)
    if not math.isfinite(val) or val < 0.0 or err > max(1e-10, 1e-6 * abs(val)):
        raise ArithmeticError(
            f"quadrature failed: value={val}, abserr={err}, "
            f"interval=({edges[0]}, {edges[-1]})"
        )
    return val


def _decades(start: float, next_coeff: float, alpha: float) -> list[float]:
    """Edges start, 10 start, ..., V = start * 10**m for a tail whose
    integral over [V, inf) is its leading term times
    (1 - next_coeff * V**-alpha + ...): the fewest decades, at least one,
    that leave the next term below _TAIL_RTOL of the leading one.  Raises
    when V leaves the float range or the bound does not hold there."""
    edges = [start, start * 10.0]
    while math.isfinite(edges[-1]) and next_coeff * edges[-1] ** -alpha >= _TAIL_RTOL:
        edges.append(edges[-1] * 10.0)
    ratio = next_coeff * edges[-1] ** -alpha
    if not (math.isfinite(edges[-1]) and ratio < _TAIL_RTOL):
        raise ArithmeticError(
            f"closed-form tail from V={edges[-1]}: next term {ratio} of the leading one, "
            f"not below {_TAIL_RTOL}"
        )
    return edges


@functools.lru_cache(maxsize=128)
def _ppp_direct_integral(kernel_scale: float, alpha: float) -> float:
    """integral_0^inf (1 - 1/(1 + kernel_scale * v**-alpha)) v dv.

    Quadrature over [0, knee], knee = k**(1/alpha), and decades past it up
    to V, plus the tail beyond V in closed form: there the integrand is
    k v**(1-alpha) (1 - k v**-alpha + ...), so the tail is
    k V**(2-alpha) / (alpha-2) and its next term is k V**-alpha
    (alpha-2) / (2 alpha-2) of that.
    """
    if kernel_scale == 0.0:
        return 0.0
    k, a = kernel_scale, alpha

    def integrand(v: np.ndarray) -> np.ndarray:
        # algebraically 1 - 1/(1 + k v^-a), written overflow-safe
        with np.errstate(over="ignore"):
            return v / (1.0 + v**a / k)

    edges = _decades(k ** (1.0 / a), k * (a - 2.0) / (2.0 * a - 2.0), a)
    tail = k * edges[-1] ** (2.0 - a) / (a - 2.0)
    return _checked_quad(integrand, [0.0, *edges]) + tail


@functools.lru_cache(maxsize=32)
def _jacobi_rule(c: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for integral_0^1 s**c f(s) ds,
    -1 < c < 0, by Golub & Welsch (Math. Comp. 23, 1969): the eigenvalues of
    the Jacobi matrix of the shifted Jacobi polynomials P^(0, c), and 1/(c+1)
    times the squared first components of its eigenvectors.  The entries
    (c+1)/(c+2) and (m-1)(m+1), m = 2j + c, are formed without cancellation,
    so the rule stays exact to rounding as c nears -1."""
    j = np.arange(1.0, n)
    m = 2.0 * j + c
    diag = np.empty(n)
    diag[0] = (c + 1.0) / (c + 2.0)
    diag[1:] = 0.5 + 0.5 * c * c / (m * (m + 2.0))
    off = j * (j + c) / (m * np.sqrt((2.0 * j - 1.0 + c) * (m + 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0] ** 2 / (c + 1.0)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by the cache
    return nodes, weights


def _cluster_inner(p: LaplaceParams, k: float):
    """The function v -> integral_{d_min}^{d_max} u / (1 + (u v)**alpha / k) du,
    in closed form, elementwise on an array of v (a scalar v gives a scalar).

    With x = (u v)**alpha / k and a = 2/alpha the integral is
    k**a / (alpha v**2) * (J(x2) - J(x1)), J(x) = integral_0^x
    y**(a-1) / (1 + y) dy at the ends x1, x2 of [d_min, d_max], and
    J(inf) = B(a, 1-a) = pi / sin(pi a).  Each piece is a 12-node
    Gauss-Jacobi rule (``_jacobi_rule``, built once per alpha):

    * x <= 1: J(x) = x**a integral_0^1 s**(a-1) / (1 + x s) ds;
    * x >= 1: J(inf) - J(x) = x**(a-1) integral_0^1 s**-a / (1 + s/x) ds, so
      an end far past 1 is not the difference of two numbers near J(inf).
      Once x overflows, x**(a-1) = (root_k / w)**(alpha-2) and
      1/x = (root_k / w)**alpha come from w = u v.

    The only pole of each integrand, s = -1/x or s = -x, is at distance at
    least 1 from [0, 1], so the rule's error falls like
    (3 + 2 sqrt 2)**(-2n), about 4e-19 at n = 12, whatever x.  What depends
    on (p, k) alone is computed once here, not at each of the outer
    quadrature's evaluations.
    """
    alpha, d_min, d_max = p.alpha, p.d_min, p.d_max
    root_k = k ** (1.0 / alpha)
    a = 2.0 / alpha
    head_nodes, head_weights = _jacobi_rule(a - 1.0, 12)
    tail_nodes, tail_weights = _jacobi_rule(-a, 12)
    # sin(pi a) = sin(pi (1 - a)), with 1 - a exact once a is past 1/2
    total = math.pi / math.sin(math.pi * min(a, 1.0 - a))
    half_span = 0.5 * (d_max * d_max - d_min * d_min)

    def head(x: np.ndarray) -> np.ndarray:
        # J(x) for x <= 1
        return x**a * ((1.0 / (1.0 + np.multiply.outer(x, head_nodes))) @ head_weights)

    def tail(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        # J(inf) - J(x) for x >= 1, from (root_k / w)**alpha = 1/x once x overflows
        scale, inv = x ** (a - 1.0), 1.0 / x
        over = np.isinf(x)
        q = root_k / w[over]
        scale[over] = q ** (alpha - 2.0)
        inv[over] = q**alpha
        return scale * ((1.0 / (1.0 + np.multiply.outer(inv, tail_nodes))) @ tail_weights)

    def inner(v):
        v = np.asarray(v, dtype=float)
        with np.errstate(over="ignore"):
            # the kernel ratios at u = d_min and d_max, inf where they overflow
            x1 = (d_min * v / root_k) ** alpha
            x2 = (d_max * v / root_k) ** alpha
        # the kernel is 1 to rounding over the whole interval (v = 0 included)
        out = np.full(v.shape, half_span)
        below = (x2 >= 1e-17) & (x2 < 1.0)
        across = (x2 >= 1.0) & (x1 < 1.0)
        above = x1 >= 1.0
        out[below] = head(x2[below]) - head(x1[below])
        out[across] = total - head(x1[across]) - tail(x2[across], d_max * v[across])
        out[above] = (tail(x1[above], d_min * v[above])
                      - tail(x2[above], d_max * v[above]))
        inside = below | across | above
        r = root_k / v[inside]
        with np.errstate(over="ignore"):
            # inf is the kernel's limit, where the outer integrand is v
            out[inside] = r * r * out[inside] / alpha
        return out[()]

    return inner


@functools.lru_cache(maxsize=128)
def _reflected_cluster_exponent(s: float, p: LaplaceParams) -> float:
    """integral_0^inf (1 - exp(-2 pi lambda_r * inner(v))) v dv with the inner
    surface integral truncated to [d_min, d_max] and evaluated by
    ``_cluster_inner``.

    Past v = k**(1/alpha) / d_min the inner integral is
    k v**-alpha (C - k v**-alpha C2 + ...), C and C2 the integrals of
    u**(1-alpha) and u**(1-2 alpha) over [d_min, d_max], so the integrand is
    2 pi lambda_r k C v**(1-alpha) (1 - k v**-alpha (C2/C + pi lambda_r C)
    + ...).  Quadrature runs over decades from that point up to V, and the
    tail beyond V is 2 pi lambda_r k C V**(2-alpha) / (alpha-2), its next
    term k V**-alpha (alpha-2) / (2 alpha-2) (C2/C + pi lambda_r C) of that.
    """
    k = s * p.n_elements * p.c**2
    if k == 0.0 or p.lambda_r == 0.0:
        return 0.0
    a, d_min, d_max = p.alpha, p.d_min, p.d_max
    two_pi_lr = 2.0 * math.pi * p.lambda_r
    inner = _cluster_inner(p, k)

    def outer(v: np.ndarray) -> np.ndarray:
        return -np.expm1(-two_pi_lr * inner(v)) * v

    # the kernel at u = d_max and at u = d_min turns over at lo and hi: below
    # lo the integrand is linear in v, beyond hi it decays like v**(1-alpha),
    # and its mass can sit anywhere from lo on, so [lo, hi] is cut into
    # segments of at most a decade as well
    root_k = k ** (1.0 / a)
    lo, hi = root_k / d_max, root_k / d_min
    c1 = (d_min ** (2.0 - a) - d_max ** (2.0 - a)) / (a - 2.0)
    c2 = (d_min ** (2.0 - 2.0 * a) - d_max ** (2.0 - 2.0 * a)) / (2.0 * a - 2.0)
    next_coeff = k * (a - 2.0) / (2.0 * a - 2.0) * (c2 / c1 + 0.5 * two_pi_lr * c1)
    edges = _decades(hi, next_coeff, a)
    tail = two_pi_lr * k * c1 * edges[-1] ** (2.0 - a) / (a - 2.0)
    between = np.geomspace(lo, hi, math.ceil(math.log10(d_max / d_min)) + 1)[:-1]
    return _checked_quad(outer, [0.0, *between, *edges]) + tail


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
