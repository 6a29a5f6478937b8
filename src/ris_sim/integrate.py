"""Globally adaptive Gauss–Kronrod quadrature over finite breakpoints, with
the integrand evaluated on arrays.

``quad`` applies QUADPACK's 21-point Kronrod rule and its embedded 10-point
Gauss rule to every interval between the given edges, then bisects, pass by
pass, the intervals with the largest error estimates until the summed
estimate meets the tolerance or the interval count reaches ``limit``.  Each
pass calls the integrand once, on one float array that holds the 21 nodes of
every interval it evaluates, so the Python overhead is per pass, not per
node.  There is no extrapolation and no infinite range: an integrand with an
endpoint singularity or a slowly decaying tail is the caller's to split or
to finish in closed form.
"""

from __future__ import annotations

import numpy as np

__all__ = ["quad"]

# QUADPACK's qk21 (Piessens, de Doncker-Kapenga, Überhuber & Kahaner,
# QUADPACK, Springer 1983): the Kronrod nodes on [0, 1] from the outside in,
# the centre last, with their weights; the 10-point Gauss rule uses every
# other node, from the second on, and no centre.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745184342, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.zeros(11)
_WG[1:10:2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
]

# the 21 nodes on [-1, 1] in ascending order, and both rules' weights there
NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
KRONROD = np.concatenate((_WGK[:-1], _WGK[::-1]))
GAUSS = np.concatenate((_WG[:-1], _WG[::-1]))

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _rule(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K21 integrals of ``f`` over the intervals [lo, hi] and their error
    estimates, as QUADPACK's qk21 scales |K21 - G10|."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi)[:, None] + half[:, None] * NODES
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    kronrod = fx @ KRONROD
    err = np.abs((kronrod - fx @ GAUSS) * half)
    # the integrals of |f| and of |f - mean f| over each interval
    absval = (np.abs(fx) @ KRONROD) * half
    asc = (np.abs(fx - 0.5 * kronrod[:, None]) @ KRONROD) * half
    scale = asc != 0.0
    err[scale] = asc[scale] * np.minimum(1.0, (200.0 * err[scale] / asc[scale]) ** 1.5)
    # no estimate below 50 ulps of the integral of |f|
    floor = absval > _TINY / (50.0 * _EPS)
    err[floor] = np.maximum(50.0 * _EPS * absval[floor], err[floor])
    return kronrod * half, err


def quad(f, edges, epsabs: float, epsrel: float, limit: int) -> tuple[float, float]:
    """Integral of ``f`` from ``edges[0]`` to ``edges[-1]`` with the
    breakpoints ``edges``, and its estimated absolute error.

    ``f`` maps a 1-D float array of abscissae to the array of its values.
    Refinement stops once the summed error estimate is at most
    max(epsabs, epsrel * |integral|), or when bisecting would take the
    interval count past ``limit``; the caller judges the estimate then.  A
    non-finite estimate stops it at once.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.isfinite(edges).all() or (
            np.diff(edges) < 0.0).any():
        raise ValueError(f"edges must be two or more finite, nondecreasing points: {edges}")
    lo, hi = edges[:-1], edges[1:]
    value, err = _rule(f, lo, hi)
    while True:
        total, errsum = float(value.sum()), float(err.sum())
        excess = errsum - max(epsabs, epsrel * abs(total))
        room = limit - lo.size
        if not excess > 0.0 or room <= 0:
            return total, errsum
        # bisect the fewest largest-error intervals whose errors cover the excess
        order = np.argsort(-err, kind="stable")
        count = min(int(np.searchsorted(np.cumsum(err[order]), excess)) + 1, room)
        split, keep = order[:count], np.sort(order[count:])
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_value, new_err = _rule(f, new_lo, new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        value = np.concatenate((value[keep], new_value))
        err = np.concatenate((err[keep], new_err))
