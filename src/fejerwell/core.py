"""Physical configuration, energy spectrum, and equal-weight wave packets
for a particle in a one-dimensional infinite square well.

All quantities are expressed in the unit system carried by :class:`WellConfig`;
the default configuration uses natural units a = mu = hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WellConfig",
    "PacketSpec",
    "SpectralData",
    "energy",
    "classical_period",
    "spectral_data",
    "stationary_wavefunction",
    "packet_wavefunction",
]


@dataclass(frozen=True)
class WellConfig:
    """Infinite square well on [0, a] holding a particle of mass mu.

    Defaults to natural units (a = mu = hbar = 1).
    """

    a: float = 1.0
    mu: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.mu > 0 and self.hbar > 0):
            raise ValueError(
                f"well parameters must be strictly positive, got "
                f"a={self.a}, mu={self.mu}, hbar={self.hbar}"
            )


@dataclass(frozen=True)
class PacketSpec:
    """Equal-weight superposition of the 2N+1 eigenstates n-N .. n+N.

    Every member carries amplitude 1/sqrt(2N+1). N < n keeps all level
    indices valid (lowest member is n - N >= 1).
    """

    n: int
    N: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"central quantum number must be >= 1, got n={self.n}")
        if self.N < 0:
            raise ValueError(f"packet half-width must be >= 0, got N={self.N}")
        if self.N >= self.n:
            raise ValueError(
                f"half-width must satisfy N < n, got n={self.n}, N={self.N}"
            )

    @property
    def size(self) -> int:
        """Number of superposed stationary states, 2N+1."""
        return 2 * self.N + 1

    def levels(self) -> np.ndarray:
        """Level indices n-N .. n+N as an integer array."""
        return self.n + np.arange(-self.N, self.N + 1)


@dataclass(frozen=True)
class SpectralData:
    """Classical-correspondence quantities derived from level n.

    p_n: magnitude of the level-n momentum, n*pi*hbar/a; the classical
        momentum matched to the packet.
    e_n: level-n energy, p_n^2/(2 mu).
    period: classical bounce period T = 2*a*mu/p_n.
    omega_n: packet angular frequency pi*p_n/(mu*a), equal to 2*pi/T.
    """

    p_n: float
    e_n: float
    period: float
    omega_n: float


def spectral_data(cfg: WellConfig, n: int) -> SpectralData:
    """All classical-correspondence quantities for level n at once."""
    if n < 1:
        raise ValueError(f"level index must be >= 1, got n={n}")
    p_n = n * math.pi * cfg.hbar / cfg.a
    return SpectralData(
        p_n=p_n,
        e_n=p_n * p_n / (2.0 * cfg.mu),
        period=2.0 * cfg.a * cfg.mu / p_n,
        omega_n=math.pi * p_n / (cfg.mu * cfg.a),
    )


def energy(cfg: WellConfig, m: int) -> float:
    """Energy of stationary level m: (m*pi*hbar/a)^2 / (2*mu)."""
    return spectral_data(cfg, m).e_n


def classical_period(cfg: WellConfig, n: int) -> float:
    """Bounce period T = 2*a*mu/p_n of the classical particle matched to level n."""
    return spectral_data(cfg, n).period


def _check_position(cfg: WellConfig, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > cfg.a):
        raise ValueError(f"position outside the well [0, {cfg.a}]")
    return x


def stationary_wavefunction(cfg: WellConfig, m: int, x):
    """Normalized eigenfunction sqrt(2/a)*sin(m*pi*x/a), zero at both walls.

    Accepts scalar or array x in [0, a]; a scalar comes back as np.float64.
    """
    if m < 1:
        raise ValueError(f"level index must be >= 1, got m={m}")
    xa = _check_position(cfg, x)
    val = math.sqrt(2.0 / cfg.a) * np.sin(m * math.pi * xa / cfg.a)
    return val[()]


def packet_wavefunction(cfg: WellConfig, spec: PacketSpec, x, t: float):
    """Equal-weight packet amplitude at position x and time t.

    psi(x,t) = (2N+1)^(-1/2) * sum_{m=n-N}^{n+N} psi_m(x) exp(-i E_m t / hbar).

    The value is exactly real at t = 0. Accepts scalar or array x; a scalar
    comes back as np.complex128.
    """
    xa = _check_position(cfg, x)
    levels = spec.levels().astype(float)
    k = levels * math.pi / cfg.a
    energies = (cfg.hbar * k) ** 2 / (2.0 * cfg.mu)
    phases = np.exp(-1j * energies * t / cfg.hbar)
    modes = math.sqrt(2.0 / cfg.a) * np.sin(np.multiply.outer(k, xa))
    psi = np.tensordot(phases, modes, axes=(0, 0)) / math.sqrt(spec.size)
    return psi[()]


# --- blocks, exact time reduction and the reduced spread, shared by both layers

_CHUNK = 1 << 13  # max elements per (instants x columns) block: 64 KiB of float64


def _block_rows(width: int) -> int:
    """Instants per block of at most _CHUNK instants x width elements, at least one."""
    return max(1, _CHUNK // max(width, 1))


def _split(a, bits: int):
    """Veltkamp split a = hi + lo, hi keeping 53 - bits significant bits."""
    c = (2.0**bits + 1.0) * a
    hi = c - (c - a)
    return hi, a - hi


def _rate(num: int, den: int) -> tuple[float, ...]:
    """The exact rate num/den = 1/period for `_fraction`.

    Returns hi + lo, the 27-bit split of hi, and the bound 2^52 / hi on |t|.
    """
    hi = num / den  # int / int is correctly rounded
    p, q = hi.as_integer_ratio()
    return (hi, (num * q - p * den) / (den * q), *_split(hi, 27), 2.0**52 / hi)


def _fraction(rate, t):
    """frac(t * rate) per instant, as an unevaluated pair hi + lo, |hi| <= 1/2.

    t times the high part of the rate is an exact Dekker two-product p + e,
    so hi = p - rint(p) is exact; the low part adds one rounded product.
    The pair is exact to rounding while |t| * rate < 2^52 (about 4.5e15
    periods); a non-finite t or one past that raises ValueError. |t| is
    compared with the bound before any product, so the check cannot
    overflow.
    """
    c_hi, c_lo, ch, cl, limit = rate
    # nan and inf are outside; a 0-d t is compared as a Python float, which
    # is about ten times cheaper than any numpy reduction
    if t.ndim == 0:
        inside = abs(float(t)) < limit
    else:
        inside = np.count_nonzero(abs(t) < limit) == t.size
    if not inside:
        raise ValueError(
            f"need finite t with |t| < {limit:.6g} (2^52 periods) for an exact phase"
        )
    p = t * c_hi
    th, tl = _split(t, 27)
    e = ((th * ch - p) + th * cl + tl * ch) + tl * cl
    return p - np.rint(p), e + t * c_lo


def _reduced_spread(mean, second):
    """sqrt(1 - mean^2 / second), clamped to [0, 1]; np.float64 for a scalar mean."""
    return np.sqrt(np.clip(1.0 - np.asarray(mean) ** 2 / second, 0.0, 1.0))[()]
