"""Classical bounce trajectory in the well and its Fourier-series views.

The position of an elastically bouncing particle is a sawtooth wave, its
momentum a square wave. This module provides truncated Fourier partial
sums of both, the specific weighted (Fejer-style) averages of those
partial sums that arise as the classical limit of equal-weight packets,
the Gibbs-overshoot measurement for the truncated momentum series, and
the classical reduced uncertainty built from the averaged series.

Double sums are collapsed to single sums with integer weights (the inner
sums are cumulative), making every evaluation O(order) per time sample.
Scalar and array t take the same path: a scalar comes back as np.float64,
equal bit for bit to the matching element of an array call.

Every series reduces t modulo the float period T before forming phases.
The reduction itself is exact, but T carries a rounding error of up to
eps/2 relative, so after t/T periods the reduced time is off by about
(t/T) eps T, and a value is off by up to about (t/T) eps in units of a
(or p_c): long times lose precision linearly. At (500, 23) and
t = 0.3T + kT, fejer_position differs from a 50-digit evaluation by
1.8e-14, 1.8e-11 and 1.8e-8 a for k = 10^3, 10^6 and 10^9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClassicalOrbit",
    "sawtooth_position",
    "square_momentum",
    "fourier_partial_position",
    "fourier_partial_momentum",
    "gibbs_overshoot",
    "fejer_position",
    "fejer_position_sq",
    "fejer_momentum",
    "fejer_momentum_sq",
    "classical_reduced_uncertainty",
]


@dataclass(frozen=True)
class ClassicalOrbit:
    """Particle of mass mu bouncing in [0, a] with momentum magnitude p_c."""

    a: float = 1.0
    p_c: float = 1.0
    mu: float = 1.0

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.p_c > 0 and self.mu > 0):
            raise ValueError(
                f"orbit parameters must be strictly positive, got "
                f"a={self.a}, p_c={self.p_c}, mu={self.mu}"
            )

    @property
    def period(self) -> float:
        return 2.0 * self.a * self.mu / self.p_c

    @property
    def omega(self) -> float:
        return 2.0 * math.pi / self.period


def _reduced(orbit: ClassicalOrbit, t) -> np.ndarray:
    """t modulo the period, in [0, T)."""
    return np.mod(np.asarray(t, dtype=float), orbit.period)


def sawtooth_position(orbit: ClassicalOrbit, t):
    """Exact classical position: linear ramp 0 -> a on [0, T/2], back on [T/2, T]."""
    tp = _reduced(orbit, t)
    half = orbit.period / 2.0
    val = np.where(
        tp <= half,
        orbit.a * tp / half,
        2.0 * orbit.a - orbit.a * tp / half,
    )
    return val[()]


def square_momentum(orbit: ClassicalOrbit, t):
    """Exact classical momentum: +p_c on (0, T/2), -p_c on (T/2, T).

    At the turning instants (t = 0 and t = T/2 modulo T) the value is 0,
    the midpoint of the jump; this matches the value every Fourier-based
    representation converges to there.
    """
    tp = _reduced(orbit, t)
    half = orbit.period / 2.0
    val = np.where(
        (tp == 0.0) | (tp == half),
        0.0,
        np.where(tp < half, orbit.p_c, -orbit.p_c),
    )
    return val[()]


def _harmonic_sum(trig, theta: np.ndarray, harmonics, weights):
    """sum_r weights[r] * trig(harmonics[r] * theta), over the last axis."""
    return (weights * trig(np.multiply.outer(theta, harmonics))).sum(axis=-1)


def fourier_partial_position(orbit: ClassicalOrbit, m: int, t):
    """Truncated Fourier series of the sawtooth through harmonic 2m+1.

    a/2 - (4a/pi^2) * sum_{r=0}^{m} cos((2r+1) w t) / (2r+1)^2
    """
    if m < 0:
        raise ValueError(f"series order must be >= 0, got m={m}")
    theta = _reduced(orbit, t) * orbit.omega
    d = 2.0 * np.arange(m + 1) + 1.0
    s = _harmonic_sum(np.cos, theta, d, 1.0 / d**2)
    val = orbit.a / 2.0 - (4.0 * orbit.a / math.pi**2) * s
    return val[()]


def fourier_partial_momentum(orbit: ClassicalOrbit, m: int, t):
    """Truncated Fourier series of the square-wave momentum through harmonic 2m+1.

    (4 p_c / pi) * sum_{r=0}^{m} sin((2r+1) w t) / (2r+1)
    """
    if m < 0:
        raise ValueError(f"series order must be >= 0, got m={m}")
    theta = _reduced(orbit, t) * orbit.omega
    d = 2.0 * np.arange(m + 1) + 1.0
    val = (4.0 * orbit.p_c / math.pi) * _harmonic_sum(np.sin, theta, d, 1.0 / d)
    return val[()]


def gibbs_overshoot(orbit: ClassicalOrbit, m: int, refine_points: int = 1000) -> float:
    """Peak of the truncated momentum series near the jump, over p_c.

    The first (largest) ripple sits within one lobe width pi/((2m+1) w) of
    the jump at t = 0; the peak is located on a fine grid inside that lobe.
    As m grows the ratio approaches the Wilbraham-Gibbs constant
    (2/pi) * integral_0^pi sin(u)/u du ~= 1.17898.
    """
    if m < 1:
        raise ValueError(f"series order must be >= 1, got m={m}")
    lobe = math.pi / ((2 * m + 1) * orbit.omega)
    ts = np.linspace(lobe / refine_points, lobe, refine_points)
    vals = fourier_partial_momentum(orbit, m, ts)
    return float(np.max(vals)) / orbit.p_c


def fejer_position(orbit: ClassicalOrbit, N: int, t):
    """Weighted average of the first N sawtooth partial sums.

    a/2 - (8a/pi^2) * (1/(2N+1)) * sum_{l=0}^{N-1} sum_{r=0}^{l}
        cos((2r+1) w t) / (2r+1)^2

    The inner sums are cumulative, so the double sum collapses to a single
    sum with weight (N - r) on harmonic 2r+1. N = 0 leaves the constant
    term a/2. Unlike the truncated series, this average stays
    inside [0, a] for every N and t.
    """
    if N < 0:
        raise ValueError(f"average order must be >= 0, got N={N}")
    theta = _reduced(orbit, t) * orbit.omega
    r = np.arange(N)
    d = 2.0 * r + 1.0
    s = _harmonic_sum(np.cos, theta, d, (N - r) / d**2)
    val = orbit.a / 2.0 - (8.0 * orbit.a / math.pi**2) / (2 * N + 1) * s
    return val[()]


def fejer_position_sq(orbit: ClassicalOrbit, N: int, t):
    """Weighted average representing the square of the position.

    a^2/3 + (4a^2/pi^2) * (1/(2N+1)) * sum_{l=1}^{2N} sum_{r=1}^{l}
        (-1)^r cos(r w t) / r^2

    The outer sum runs to 2N because the squared trajectory carries every
    harmonic up to 2N, not only the odd ones; collapsing gives weight
    (2N - r + 1) on harmonic r. N = 0 returns the constant a^2/3.
    """
    if N < 0:
        raise ValueError(f"average order must be >= 0, got N={N}")
    theta = _reduced(orbit, t) * orbit.omega
    r = np.arange(1, 2 * N + 1)
    w = (2 * N - r + 1) * (-1.0) ** r / r.astype(float) ** 2
    s = _harmonic_sum(np.cos, theta, r.astype(float), w)
    val = orbit.a**2 / 3.0 + (4.0 * orbit.a**2 / math.pi**2) / (2 * N + 1) * s
    return val[()]


def fejer_momentum(orbit: ClassicalOrbit, N: int, t):
    """Analytic time derivative of fejer_position times the mass.

    (8 p_c / pi) * (1/(2N+1)) * sum_{l=0}^{N-1} sum_{r=0}^{l}
        sin((2r+1) w t) / (2r+1)

    using mu*a*w/pi = p_c. N = 0 returns 0. Bounded by p_c for all N and t
    (no overshoot), in contrast to the truncated momentum series.
    """
    if N < 0:
        raise ValueError(f"average order must be >= 0, got N={N}")
    theta = _reduced(orbit, t) * orbit.omega
    r = np.arange(N)
    d = 2.0 * r + 1.0
    s = _harmonic_sum(np.sin, theta, d, (N - r) / d)
    val = (8.0 * orbit.p_c / math.pi) / (2 * N + 1) * s
    return val[()]


def fejer_momentum_sq(orbit: ClassicalOrbit) -> float:
    """Averaged square of the momentum: the square wave squared is p_c^2."""
    return orbit.p_c**2


def classical_reduced_uncertainty(orbit: ClassicalOrbit, kind: str, N: int, t):
    """Dimensionless spread sqrt(1 - F<f>^2 / F<f^2>) of the averaged series.

    kind is "position" or "momentum". The radical is clamped to [0, 1]
    against round-off. For momentum the second moment is the constant
    p_c^2, so the value is 1 wherever the averaged momentum vanishes.
    """
    if kind == "position":
        mean = fejer_position(orbit, N, t)
        second = fejer_position_sq(orbit, N, t)
    elif kind == "momentum":
        mean = fejer_momentum(orbit, N, t)
        second = fejer_momentum_sq(orbit)
    else:
        raise ValueError(f"kind must be 'position' or 'momentum', got {kind!r}")
    second_arr = np.asarray(second, dtype=float)
    if np.any(second_arr <= 0.0):
        raise ValueError("second moment must be positive")
    val = np.sqrt(np.clip(1.0 - np.asarray(mean) ** 2 / second_arr, 0.0, 1.0))
    return val[()]
