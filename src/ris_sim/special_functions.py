"""Truncated power series (jet) arithmetic.

Jets carry the Taylor coefficients of a function around a fixed expansion
point and stay closed under +, -, *, exp and real powers.  They are what the
outage series uses to extract high-order derivatives of the
noise-times-interference transform without symbolic algebra.

The gamma special functions (log-gamma, regularized incomplete gamma) come
from ``scipy.special``; ``power_analytic`` uses them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Jet",
    "jet_variable",
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

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError("jet orders differ")
            return other.coef
        out = np.zeros_like(self.coef)
        out[0] = float(other)
        return out

    def __add__(self, other) -> "Jet":
        return Jet(self.coef + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        return Jet(self.coef - self._coerce(other))

    def __mul__(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError("jet orders differ")
            n = self.coef.size
            full = np.convolve(self.coef, other.coef)
            return Jet(full[:n])
        return Jet(self.coef * float(other))

    __rmul__ = __mul__

    def exp(self) -> "Jet":
        a = self.coef
        n = a.size
        e = np.zeros(n)
        e[0] = math.exp(a[0])
        if not math.isfinite(e[0]):
            raise ArithmeticError("jet exp overflowed at the constant term")
        j = np.arange(1, n)
        for k in range(1, n):
            # e_k = (1/k) * sum_{j=1..k} j * a_j * e_{k-j}
            e[k] = np.dot(j[:k] * a[1 : k + 1], e[k - 1 :: -1]) / k
        if not np.all(np.isfinite(e)):
            raise ArithmeticError("jet exp produced non-finite coefficients")
        return Jet(e)

    def pow(self, exponent: float) -> "Jet":
        """Real power of a jet with positive constant term."""
        a = self.coef
        if a[0] <= 0.0:
            raise ValueError("jet pow requires a positive constant term")
        n = a.size
        p = np.zeros(n)
        p[0] = a[0] ** exponent
        for k in range(1, n):
            s = 0.0
            for j in range(1, k + 1):
                s += ((exponent + 1.0) * j / k - 1.0) * a[j] * p[k - j]
            p[k] = s / a[0]
        return Jet(p)


def jet_variable(value: float, order: int) -> Jet:
    """Jet of the identity function s around the expansion point ``value``."""
    coef = np.zeros(order + 1)
    coef[0] = value
    if order >= 1:
        coef[1] = 1.0
    return Jet(coef)
