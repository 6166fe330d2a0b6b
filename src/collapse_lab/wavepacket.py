"""Closed forms for the free spreading Gaussian packet, with quadrature oracles.

A packet starting as ``(2 pi a^2)^(-1/4) exp(-x^2 / (4 a^2))`` evolves
freely to ``N_t exp(-x^2 / (4 z))`` with ``z = a^2 + i hbar t / (2 m)``,
so its probability density stays Gaussian with standard deviation
``sqrt(a^2 + t^2 hbar^2 / (4 m^2 a^2))``.

Restricting the momentum-operator matrix element to a narrow window
``[x_f - eps, x_f + eps]`` and normalizing assigns the detected segment the
complex momentum ``m x_f / (t - 2 i m a^2 / hbar)`` in the eps -> 0 limit.
:func:`postselected_momentum_quadrature` evaluates the defining ratio of
truncated integrals numerically (derivative by high-order differences,
adaptive quadrature) and serves as the independent check on the closed
form; the deviation between the two shrinks quadratically in eps.

Everything works in natural units by default (hbar = 1); the SI constants
are for the electron spreading estimate only.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "PacketParams",
    "PostSelection",
    "evolved_packet",
    "packet_width",
    "postselected_momentum_closed",
    "postselected_momentum_quadrature",
    "polar_decomposition",
    "dominant_momentum",
    "HBAR_SI",
    "ELECTRON_MASS_SI",
]

HBAR_SI = 1.054571817e-34  # J s
ELECTRON_MASS_SI = 9.1093837015e-31  # kg


@dataclass(frozen=True)
class PacketParams:
    """Free Gaussian packet: initial half-width a, mass m, elapsed time t."""

    a: float
    m: float = 1.0
    hbar: float = 1.0
    t: float = 0.0

    def __post_init__(self):
        if not (self.a > 0 and self.m > 0 and self.hbar > 0):
            raise ValueError("a, m, hbar must all be positive")
        if self.t < 0:
            raise ValueError("t must be nonnegative")

    @property
    def z(self) -> complex:
        """Complex squared width a^2 + i hbar t / (2 m)."""
        return self.a**2 + 0.5j * self.hbar * self.t / self.m


@dataclass(frozen=True)
class PostSelection:
    """Detection window [x_f - epsilon, x_f + epsilon]."""

    x_f: float
    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")


def evolved_packet(params: PacketParams, x: float) -> complex:
    """Value of the freely evolved, normalized packet at position x.

    psi_t(x) = (2 pi a^2)^(-1/4) * sqrt(a^2 / z) * exp(-x^2 / (4 z)).
    """
    z = params.z
    n_t = (2.0 * math.pi * params.a**2) ** (-0.25) * cmath.sqrt(params.a**2 / z)
    return n_t * cmath.exp(-(x**2) / (4.0 * z))


def packet_width(params: PacketParams) -> float:
    """Position standard deviation sqrt(a^2 + t^2 hbar^2 / (4 m^2 a^2))."""
    a, m, hbar, t = params.a, params.m, params.hbar, params.t
    return math.sqrt(a**2 + (t * hbar) ** 2 / (4.0 * m**2 * a**2))


def postselected_momentum_closed(
    params: PacketParams, sel: PostSelection
) -> complex:
    """Closed-form window momentum m x_f / (t - 2 i m a^2 / hbar).

    Valid in the narrow-window regime; a warning is issued when epsilon
    exceeds a tenth of the current packet width.
    """
    if sel.epsilon > packet_width(params) / 10.0:
        warnings.warn(
            "window epsilon exceeds width/10; the closed form assumes a "
            "narrow detection window",
            stacklevel=2,
        )
    denom = params.t - 2.0j * params.m * params.a**2 / params.hbar
    return params.m * sel.x_f / denom


def _packet_derivative(params: PacketParams, x: float, h: float) -> complex:
    """Five-point central difference of the evolved packet."""
    f = lambda u: evolved_packet(params, u)
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12.0 * h)


def postselected_momentum_quadrature(
    params: PacketParams, sel: PostSelection
) -> complex:
    """Window momentum from the defining ratio of truncated integrals.

    Numerator: integral over the window of psi* (-i hbar d(psi)/dx), with
    the derivative taken by high-order finite differences so the route is
    independent of the closed-form algebra.  Denominator: window
    probability.  Adaptive quadrature at 1e-10 relative tolerance.
    """
    # scipy.integrate (with scipy.optimize, linalg and fft behind it) loads
    # here, so only the commands that run this oracle pay for it
    from scipy.integrate import quad

    lo, hi = sel.x_f - sel.epsilon, sel.x_f + sel.epsilon
    h = 1e-4 * packet_width(params)

    def integral(f) -> float:
        value, _ = quad(f, lo, hi, epsabs=1e-14, epsrel=1e-10, limit=200)
        return value

    def num_integrand(x: float) -> complex:
        return (
            np.conj(evolved_packet(params, x))
            * (-1j * params.hbar)
            * _packet_derivative(params, x, h)
        )

    def den_integrand(x: float) -> float:
        return abs(evolved_packet(params, x)) ** 2

    num = complex(integral(lambda x: num_integrand(x).real),
                  integral(lambda x: num_integrand(x).imag))
    if not np.isfinite(num):
        raise NumericalError("quadrature returned a non-finite value")
    den = integral(den_integrand)
    if den <= 0 or not np.isfinite(den):
        raise NumericalError("window probability quadrature failed")
    return num / den


def polar_decomposition(value: complex) -> tuple[float, float]:
    """(r, theta) with value = r * exp(i theta); theta from the value itself."""
    return abs(value), cmath.phase(value)


def dominant_momentum(params: PacketParams, x_f: float) -> complex:
    """Momentum whose completed-square shifted variable vanishes at x_f.

    Writing the momentum-space expansion of the evolved packet as a
    Gaussian in ``p' = s1 * p - (i x / (2 hbar)) * s2`` with
    ``s1 = sqrt((2 m a^2 + i t hbar) / (2 m hbar^2))`` and
    ``s2 = 1 / s1``, the packet at x is dominated by momenta near
    ``p'(x) = 0``; solving at x = x_f reproduces the closed-form window
    momentum exactly.
    """
    a, m, hbar, t = params.a, params.m, params.hbar, params.t
    s1 = cmath.sqrt((2.0 * m * a**2 + 1j * t * hbar) / (2.0 * m * hbar**2))
    s2 = cmath.sqrt((2.0 * m * hbar**2) / (2.0 * m * a**2 + 1j * t * hbar))
    return (1j * x_f / (2.0 * hbar)) * s2 / s1
