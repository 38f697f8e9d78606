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

Block rule. A series over an array of instants is summed in blocks of
core._block_rows(harmonics) instants, at most core._CHUNK = 8192
instants x harmonics, the rule the packet moments use. A block forms its
product of instants and harmonics once and overwrites it with the
weighted terms, so no temporary exceeds 64 KiB, whatever the number of
instants or the order. Each row is summed as a whole row in every block,
so the values do not depend on where the blocks fall; a t that fits in
one block, a scalar included, runs that block alone, with no loop,
reshape or concatenation. The blocks read f = frac(t / T) (below), and
`_cycle` keeps the f of the last array t, read-only and keyed by t's
contents and the orbit's cycle rate (`core._LastInstants`), so the
series of one orbit on one array reduce it once and give the values a
reduction of their own gives, bit for bit: the two Fejer averages of the
CLI trajectories series, and the three that its uncertainty series and
`limits.limit_sequence` compare, each on one time grid. A scalar or 0-d t
never looks, and an array of more than _PANELS * _CHUNK instants is not
kept.

Every function reduces t to f = frac(t / T) in [-1/2, 1/2] by the exact
reduction of the packet moments (`core._fraction`), with 1/T = p_c/(2a mu)
formed from exact rationals and cached on the orbit, so f is exact to
rounding for |t| below 2^52 T (about 4.5e15 T); a larger or non-finite t
raises ValueError. The sawtooth is 2a|f| and the square wave sign(f) p_c.
Harmonic h of a series has the phase 2 pi h f, and its weighted cosine
or sine comes from the one tangent t = tan(pi h f) of the half phase
(`core._half_angle`, shared with the packet moments and the width scan),
as 2w/(1 + t^2) - w or 2wt/(1 + t^2), term by term, with the harmonics
and weights taken from a cached read-only table. numpy runs float64 tan
on SVML and sin and cos on scalar libm, so this halves the cost of an
array series at N = 22 (DECISIONS.md, "Every phase trig from one
half-angle tangent").

Accuracy against a 60-digit evaluation, on the p_c = 500 pi orbit at
t = f0 T + kT with k from 0 to 10^12, N = 23 and 316: fejer_position
and fejer_position_sq stay within 1.0 eps (of a and a^2) at every f0
below, and sawtooth_position is exact. fejer_momentum, in eps of p_c:

    f0                            N = 23    N = 316
    0, 1e-9                       0.01      0.00
    0.01, 0.123456, 0.3, 0.49     6.5       5.9
    0.77                          3.3       5.2
    1/2 - 1e-4                    23        271
    1/2                           17        237

Next to the turn at f = 1/2 each phase 2 pi h f carries the rounding of
pi times h < 2N, which leaves about N eps; the libm sines left 34, 28,
448 and 353 eps there. Reducing modulo the float period, before the
exact reduction, left errors of up to 8.1e7, 1.2e8 and 1.8e9 eps at
k = 10^9.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import WellConfig, spectral_data
from .core import _LastInstants, _block_rows, _fraction, _half_angle, _rate, _reduced_spread, _rint

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

    @functools.cached_property
    def _cycle_rate(self) -> tuple[float, ...]:
        """1/T = p_c / (2 a mu) from exact rationals, as `core._rate`, cached on the instance."""
        p, a, m = (float(v).as_integer_ratio() for v in (self.p_c, self.a, self.mu))
        return _rate(p[0] * a[1] * m[1], p[1] * 2 * a[0] * m[0])


def _matched_orbit(cfg: WellConfig, n: int) -> ClassicalOrbit:
    """The orbit matched to level n of the well: p_c = p_n, and the cycle
    rate 2n / T_rev from the exact rational of `WellConfig._revival_ratio`.

    From the rounded p_n alone, frac(t / T) drifted from the packet's
    2n frac(t / T_rev) by about 1e-4 cycles at 10^9 revivals (n = 500).
    """
    orbit = ClassicalOrbit(a=cfg.a, p_c=spectral_data(cfg, n).p_n, mu=cfg.mu)
    num, den = cfg._revival_ratio
    orbit.__dict__["_cycle_rate"] = _rate(2 * n * num, den)  # fills the cached property
    return orbit


_instants = _LastInstants()  # f of the last array of instants, keyed by the cycle rate


def _cycle(orbit: ClassicalOrbit, t):
    """f = frac(t / T) in [-1/2, 1/2], exact to rounding; a Python float for a scalar t.

    The f of an array t is kept, read-only, for the next call on the same
    rate and contents (`core._LastInstants`); a scalar or 0-d t skips that.
    """
    tag = None
    if isinstance(t, np.ndarray) and t.ndim:
        tag, f = _instants.find(orbit._cycle_rate, t, 1)
        if f is not None:
            return f
    hi, lo = _fraction(orbit._cycle_rate, t)
    f = hi + lo
    f = f - (np.rint(f) if isinstance(f, np.ndarray) else _rint(f))  # hi + lo may round past 1/2
    if tag is not None:
        f.setflags(write=False)
        _instants.keep(orbit._cycle_rate, tag, f)
    return f


def sawtooth_position(orbit: ClassicalOrbit, t):
    """Exact classical position: linear ramp 0 -> a on [0, T/2], back on [T/2, T]."""
    return 2.0 * orbit.a * np.abs(_cycle(orbit, t))


def square_momentum(orbit: ClassicalOrbit, t):
    """Exact classical momentum: +p_c on (0, T/2), -p_c on (T/2, T).

    At the turning instants (t = 0 and t = T/2 modulo T) the value is 0,
    the midpoint of the jump; this matches the value every Fourier-based
    representation converges to there.
    """
    f = _cycle(orbit, t)
    return np.where((f == 0.0) | (np.abs(f) == 0.5), 0.0, np.sign(f) * orbit.p_c)[()]


@functools.lru_cache(maxsize=64, typed=True)
def _table(series: str, order: int):
    """pi times the harmonics, the weights (2w, w) and the sine flag of one series.

    Built once per series and order, read-only; a typed cache, so 2.0 raises here.
    """
    order = operator.index(order)
    if order < 0:
        raise ValueError(f"{series} order must be >= 0, got {order}")
    sine = series.endswith("momentum")
    if series == "fejer_position_sq":
        r = np.arange(1, 2 * order + 1)
        h = r.astype(float)
        w = (2 * order - r + 1) * (-1.0) ** r / h**2
    else:
        fourier = series.startswith("fourier")
        r = np.arange(order + 1 if fourier else order)
        h = 2.0 * r + 1.0
        w = (1.0 if fourier else order - r) / (h if sine else h**2)
    h *= math.pi
    weights = (2.0 * w, w)
    for arr in (h, *weights):
        arr.setflags(write=False)
    return h, weights, sine


def _weighted_sums(f, pi_h, weights, sine):
    """sum_r w[r] trig(2 pi h[r] f) per instant, from one product overwritten in place.

    The product is the half phase pi h f, and `core._half_angle` turns it
    into w times the cosine or sine of each term, in place. A scalar f
    takes a plain product, which is the same IEEE operation as the outer
    one, at a third of its cost.
    """
    x = (np.multiply.outer if isinstance(f, np.ndarray) else np.multiply)(f, pi_h)
    if sine:
        _half_angle(x, None, x, weights)
    else:
        _half_angle(x, x, None, weights)
    return np.add.reduce(x, axis=-1)


def _series(orbit: ClassicalOrbit, series: str, order: int, t):
    """sum_r w[r] trig(h[r] theta) at theta = 2 pi frac(t / T), over the table of `series`.

    Instants go in blocks of `core._block_rows(harmonics)`; a t that fits in
    one block, a scalar included, takes no call beyond that block's own.
    """
    pi_h, weights, sine = _table(series, order)
    f = _cycle(orbit, t)
    step = _block_rows(pi_h.size)
    if not isinstance(f, np.ndarray) or f.size <= step:
        return _weighted_sums(f, pi_h, weights, sine)
    flat = f.reshape(-1)
    sums = [_weighted_sums(flat[i : i + step], pi_h, weights, sine) for i in range(0, flat.size, step)]
    return np.concatenate(sums).reshape(f.shape)


def fourier_partial_position(orbit: ClassicalOrbit, m: int, t):
    """Truncated Fourier series of the sawtooth through harmonic 2m+1.

    a/2 - (4a/pi^2) * sum_{r=0}^{m} cos((2r+1) w t) / (2r+1)^2
    """
    s = _series(orbit, "fourier_position", m, t)
    return orbit.a / 2.0 - (4.0 * orbit.a / math.pi**2) * s


def fourier_partial_momentum(orbit: ClassicalOrbit, m: int, t):
    """Truncated Fourier series of the square-wave momentum through harmonic 2m+1.

    (4 p_c / pi) * sum_{r=0}^{m} sin((2r+1) w t) / (2r+1)
    """
    s = _series(orbit, "fourier_momentum", m, t)
    return (4.0 * orbit.p_c / math.pi) * s


def gibbs_overshoot(orbit: ClassicalOrbit, m: int, refine_points: int = 1000) -> float:
    """Peak of the truncated momentum series near the jump, over p_c.

    The first (largest) ripple sits within one lobe width pi/((2m+1) w) of
    the jump at t = 0; the peak is located on a fine grid inside that lobe.
    As m grows the ratio approaches the Wilbraham-Gibbs constant
    (2/pi) * integral_0^pi sin(u)/u du ~= 1.17898.
    """
    if m < 1:
        raise ValueError(f"series order must be >= 1, got m={m}")
    if refine_points < 1:
        raise ValueError(f"need refine_points >= 1, got {refine_points}")
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
    s = _series(orbit, "fejer_position", N, t)
    return orbit.a / 2.0 - (8.0 * orbit.a / math.pi**2) / (2 * N + 1) * s


def fejer_position_sq(orbit: ClassicalOrbit, N: int, t):
    """Weighted average representing the square of the position.

    a^2/3 + (4a^2/pi^2) * (1/(2N+1)) * sum_{l=1}^{2N} sum_{r=1}^{l}
        (-1)^r cos(r w t) / r^2

    The outer sum runs to 2N because the squared trajectory carries every
    harmonic up to 2N, not only the odd ones; collapsing gives weight
    (2N - r + 1) on harmonic r. N = 0 returns the constant a^2/3.
    """
    s = _series(orbit, "fejer_position_sq", N, t)
    return orbit.a**2 / 3.0 + (4.0 * orbit.a**2 / math.pi**2) / (2 * N + 1) * s


def fejer_momentum(orbit: ClassicalOrbit, N: int, t):
    """Analytic time derivative of fejer_position times the mass.

    (8 p_c / pi) * (1/(2N+1)) * sum_{l=0}^{N-1} sum_{r=0}^{l}
        sin((2r+1) w t) / (2r+1)

    using mu*a*w/pi = p_c. N = 0 returns 0. Bounded by p_c for all N and t
    (no overshoot), in contrast to the truncated momentum series.
    """
    s = _series(orbit, "fejer_momentum", N, t)
    return (8.0 * orbit.p_c / math.pi) / (2 * N + 1) * s


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
        mean, second = fejer_position(orbit, N, t), fejer_position_sq(orbit, N, t)
    elif kind == "momentum":
        mean, second = fejer_momentum(orbit, N, t), fejer_momentum_sq(orbit)
    else:
        raise ValueError(f"kind must be 'position' or 'momentum', got {kind!r}")
    if np.any(np.asarray(second) <= 0.0):
        raise ValueError("second moment must be positive")
    return _reduced_spread(mean, second)
