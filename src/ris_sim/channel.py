"""Radio parameters, the free-space path-loss constant, and the unit-power
fading amplitude samplers.

Unit-power normalization throughout: every fading amplitude satisfies
E{|h|^2} = 1.  The direct link is Rayleigh, both reflected hops are
Nakagami-m.  The per-link path losses and the serving and interference
draws built from these parameters live in ``montecarlo``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

__all__ = [
    "ChannelParams",
    "pathloss_constant",
    "sample_rayleigh",
    "sample_nakagami",
]


@dataclass(frozen=True)
class ChannelParams:
    """Radio parameters of one deployment.

    ``c`` is the linear path gain at 1 m.  ``alpha`` must exceed 2 for the
    interference integrals to converge.
    """

    c: float = 6.3326e-5
    alpha: float = 3.0
    m1: float = 2.0
    m2: float = 2.0
    n_elements: int = 200

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("path-loss constant must be positive")
        if not self.alpha > 2:
            raise ValueError(f"alpha must exceed 2, got {self.alpha}")
        if self.m1 < 0.5 or self.m2 < 0.5:
            raise ValueError("Nakagami shapes must be at least 0.5")
        if self.n_elements < 1:
            raise ValueError("n_elements must be a positive integer")


def pathloss_constant(frequency: float, gain_tx: float = 1.0, gain_rx: float = 1.0) -> float:
    """Free-space gain at 1 m: (wavelength * sqrt(Gt*Gr) / 4 pi)^2."""
    if not frequency > 0:
        raise ValueError(f"frequency must be positive, got {frequency}")
    wavelength = SPEED_OF_LIGHT / frequency
    return (wavelength * math.sqrt(gain_tx * gain_rx) / (4.0 * math.pi)) ** 2


def sample_rayleigh(rng: np.random.Generator, size=None):
    """Rayleigh amplitude with E{|g|^2} = 1 (mean sqrt(pi/4))."""
    return rng.rayleigh(scale=math.sqrt(0.5), size=size)


def sample_nakagami(m: float, rng: np.random.Generator, size):
    """Array of ``size`` Nakagami-m amplitudes with unit second moment."""
    if m < 0.5:
        raise ValueError(f"Nakagami shape must be at least 0.5, got {m}")
    # numpy's gamma(m, scale) is scale * standard_gamma(m): the same draws
    amp = rng.standard_gamma(m, size)
    amp *= 1.0 / m
    return np.sqrt(amp, out=amp)
