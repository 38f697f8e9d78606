"""Physical configuration, energy spectrum, and equal-weight wave packets
for a particle in a one-dimensional infinite square well.

All quantities are expressed in the unit system carried by :class:`WellConfig`;
the default configuration uses natural units a = mu = hbar = 1.
"""

from __future__ import annotations

import functools
import math
import operator
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

    @functools.cached_property
    def _revival_ratio(self) -> tuple[int, int]:
        """1/T_rev = pi hbar / (4 mu a^2) as integers (num, den), with pi to 106 bits."""
        (hi_n, hi_d), (lo_n, lo_d) = math.pi.as_integer_ratio(), _PI_LO.as_integer_ratio()
        h, m, a = (float(v).as_integer_ratio() for v in (self.hbar, self.mu, self.a))
        num = (hi_n * lo_d + lo_n * hi_d) * h[0] * m[1] * a[1] ** 2
        return num, hi_d * lo_d * h[1] * 4 * m[0] * a[0] ** 2

    @functools.cached_property
    def _revival_rate(self) -> tuple[float, ...]:
        """1/T_rev from `_revival_ratio`, as `_rate`.

        Cached on the instance: a lookup in its __dict__, where a cache
        keyed by the dataclass hash spends about 0.5 us per call hashing.
        """
        return _rate(*self._revival_ratio)


@dataclass(frozen=True)
class PacketSpec:
    """Equal-weight superposition of the 2N+1 eigenstates n-N .. n+N.

    Every member carries amplitude 1/sqrt(2N+1). N < n keeps all level
    indices valid (lowest member is n - N >= 1). n and N are stored as
    Python ints (numpy integers are converted; a float raises TypeError).
    """

    n: int
    N: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "N", operator.index(self.N))
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
    """x as a float array, each element in [0, a]; nan is outside."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= cfg.a)):
        raise ValueError(f"position outside the well [0, {cfg.a}]")
    return x


def _check_instant(t) -> None:
    """Reject an array t, a non-finite one or one that is no real number
    (`_real`), where a function evaluates one instant."""
    if np.ndim(t) != 0:
        raise ValueError(f"t must be one instant, got an array of shape {np.shape(t)}")
    if not isinstance(t, (float, int)):
        _real(t)
    try:
        finite = math.isfinite(t)
    except OverflowError:  # a Python int past the float range
        raise ValueError("need finite t, got a number past the float range") from None
    if not finite:
        raise ValueError(f"need finite t, got {t}")


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
    comes back as np.complex128. t is one instant: an array t raises
    ValueError.
    """
    _check_instant(t)
    xa = _check_position(cfg, x)
    levels = spec.levels().astype(float)
    k = levels * math.pi / cfg.a
    energies = (cfg.hbar * k) ** 2 / (2.0 * cfg.mu)
    phases = np.exp(-1j * energies * t / cfg.hbar)
    modes = math.sqrt(2.0 / cfg.a) * np.sin(np.multiply.outer(k, xa))
    psi = np.tensordot(phases, modes, axes=(0, 0)) / math.sqrt(spec.size)
    return psi[()]


# --- blocks, exact time reduction and the reduced spread, shared by both layers

_PI_LO = 1.2246467991473532e-16  # pi - math.pi
_CHUNK = 1 << 13  # max elements per (instants x columns) block: 64 KiB of float64
_PANELS = 8  # the dense forms serve packets whose matrix fills at most this many _CHUNK blocks


def _block_rows(width: int) -> int:
    """Instants per block of at most _CHUNK instants x width elements, at least one."""
    return max(1, _CHUNK // max(width, 1))


class _LastInstants:
    """One layer's work on its last array of instants.

    A layer keeps, for its last array t, what a later call on the same
    instants would compute again: the classical series keep the exact
    reduction f of t, and the moments the three brackets of their fused
    pass, into which no scale of the well enters. It keeps them in one
    entry, (key, tag, value), and a later call that finds its own t there
    reads the kept arrays instead of forming them again, the same arrays
    bit for bit. The tag is t's dtype, shape and bytes: an array is
    mutable, so its identity says nothing of its contents, and an array
    changed in place, or another array with other values, never matches
    while an equal copy does. Only arrays of a numeric kind (bool, int,
    float) are looked up, since the bytes of any other kind, an object
    array's element pointers among them, need not say what its values
    are. The key, compared with ==, names everything else the value
    depends on. The entry is replaced whole by one rebinding and never
    changed, so a thread reads the old entry or the new one, never a mix;
    threads that alternate arrays only miss. An array whose widest array
    of a call would pass _PANELS * _CHUNK elements is not kept: for the
    moments that is a pass's 2N + 1 level phases per instant, and the
    entry then holds 3 floats per instant, at most 1.5 MiB / (2N + 1).
    DECISIONS.md, "One entry of instants per layer" and "The entry keeps
    the fused brackets", has the reasons.
    """

    __slots__ = ("entry",)

    def __init__(self) -> None:
        self.entry = None

    def find(self, key, t: np.ndarray, width: int):
        """(tag, value): t's tag and the value kept for it under key, or None.

        width is the number of elements per instant of the widest array
        that forming the value takes. Where t.size * width passes the
        budget, or t is not of a numeric kind, the tag is None, and then
        nothing is kept for t.
        """
        if t.size * width > _PANELS * _CHUNK or t.dtype.kind not in "biuf":
            return None, None
        tag = (t.dtype, t.shape, t.tobytes())
        entry = self.entry  # read once: another thread may rebind it meanwhile
        if entry is not None and entry[0] == key and entry[1] == tag:
            return tag, entry[2]
        return tag, None

    def keep(self, key, tag, value) -> None:
        """Rebind the entry to value under (key, tag); a None tag keeps nothing.

        The caller makes value's arrays read-only first: later calls read them.
        """
        if tag is not None:
            self.entry = (key, tag, value)


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
    periods); a non-finite t or one past that raises ValueError, a Python
    int too large for a float included, and a t that is no real number
    raises TypeError (`_real`). |t| is compared with the bound
    before any product, so the check cannot overflow. A scalar t (Python,
    numpy or 0-d) is reduced in Python floats and comes back as floats:
    the same IEEE operations as on an array element, at about half the
    cost of the same steps on numpy scalars (1.4 against 2.3 us).
    """
    c_hi, c_lo, ch, cl, limit = rate
    try:
        if not isinstance(t, (float, int)):
            t = _real(t).astype(float, copy=False)
        if isinstance(t, np.ndarray) and t.ndim:
            inside, rint = np.count_nonzero(abs(t) < limit) == t.size, np.rint
        else:
            t = float(t)
            inside, rint = abs(t) < limit, _rint
    except OverflowError:  # a Python int past the float range
        inside = False
    if not inside:  # nan and inf are outside
        raise ValueError(
            f"need finite t with |t| < {limit:.6g} (2^52 periods) for an exact phase"
        )
    p = t * c_hi
    th, tl = _split(t, 27)
    e = ((th * ch - p) + th * cl + tl * ch) + tl * cl
    return p - rint(p), e + t * c_lo


def _real(t) -> np.ndarray:
    """t as an array, or TypeError where its kind holds no real numbers.

    Bool, integer, float and object arrays pass (an object element is cast
    by float() later); complex, string, datetime and timedelta kinds raise,
    where a cast to float would take the real part, parse the text or count
    the time units.
    """
    t = np.asarray(t)
    if t.dtype.kind not in "biufO":
        raise TypeError(f"t must hold real numbers, got dtype {t.dtype}")
    return t


def _rint(x: float) -> float:
    """np.rint of a Python float, signed zero included: ties to even, and
    -0.0 for x in [-1/2, 0], so that x - _rint(x) matches the array path."""
    r = float(round(x))
    return r if r else math.copysign(0.0, x)


def _half_angle(half, cos=None, sin=None, weights=(2.0, 1.0)) -> None:
    """w cos(2 half) and w sin(2 half) from the one tangent t = tan(half).

    With weights = (2w, w), w cos(2 half) = 2w/(1 + t^2) - w and
    w sin(2 half) = 2w t/(1 + t^2) go into the arrays cos and sin, term by
    term; None skips one. The default w = 1 gives the cosine and sine
    themselves, and an array w weights each column. One of cos and sin may
    be half itself, which is overwritten in any case, and a cos apart from
    half is also the workspace, so no temporary is allocated then.

    numpy runs float64 tan on a SIMD (SVML) loop and sin and cos on scalar
    libm, 4-10x slower per element (DECISIONS.md), so every phase trig of
    the package goes through here: the width scan's half phases pi r / M
    of exact residues |r| <= M/2; the moments' pi c with |c| <= 1/2, both
    the kernel's psi = 2n theta_d columns and the level phases m_j tau of
    either engine (quasi_exp's series take the dense forms' at every
    packet), all in [-pi/2, pi/2]; and the classical pi h f. At a pole of tan the
    rounded half is never exactly pi/2 + k pi, so t stays finite (about
    +-1.6e16 at +-pi/2): cos comes out -w and sin about +-1e-16 w, as
    np.sin(+-np.pi) gives, with no warning.
    """
    twice, w = weights
    t = np.tan(half, out=half)
    q = np.multiply(t, t, out=None if cos is None or cos is half else cos)
    q += 1.0
    np.divide(twice, q, out=q)
    if sin is not None:
        np.multiply(q, t, out=sin)
    if cos is not None:
        np.subtract(q, w, out=cos)


def _reduced_spread(mean, second):
    """sqrt(1 - mean^2 / second), clamped to [0, 1]; np.float64 for a scalar mean."""
    return np.sqrt(np.clip(1.0 - np.asarray(mean) ** 2 / second, 0.0, 1.0))[()]
