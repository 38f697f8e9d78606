"""Selection of the packet half-width N that best matches the classical orbit.

For each central level n there is a narrow range of half-widths that makes
the packet behave classically: too few superposed states and the packet
mean is a poor (truncated-average) rendering of the bounce trajectory; too
many and the unequal level spacing dephases the packet within a period.
The selection minimizes the RMS deviation of the position mean
from the classical sawtooth over one period. On the 10..500 grid that
lands within floor(sqrt(n)) +- 1 (N = 23 at n = 500), but it grows faster
than sqrt(n) beyond: N = 54 at n = 2000 and N = 144 at n = 10^4, against
floor(sqrt(n)) = 44 and 100. The 144 is the value of the default
1024-point rectangle rule over the period; with 4096 points or more the
same objective gives N = 142 at n = 10^4.

The error is assumed to have a single local minimum in N over the search
window, so optimal_N walks N upward and stops at the first N whose error
rises above the running minimum. That assumption held on every window
checked (DECISIONS.md, "optimal_N stops at the first rise"). Half-width N
adds the 2N pairs of span N to the running sum, each with about
2 sqrt(P) tangents and 2P multiply-adds in the span's one matrix product
over the P-point grid, so the search costs O(N_opt^2 P) against
O(N_max^2 P) for scoring the whole window. The default window ends at
about 4 N_opt, and the stop takes 8-9x less time than the whole window at
n = 500 to 10^4.

The uncertainty product Delta-x Delta-p at the initial turning (t = 0) is
reported for the selected packet but is no selection criterion: it falls
monotonically with N, so it has no interior minimum.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .classical import ClassicalOrbit, sawtooth_position
from .core import PacketSpec, WellConfig, spectral_data
from .quantum import uncertainty_product

__all__ = [
    "ScanRow",
    "ScanFit",
    "ScanResult",
    "default_n_grid",
    "tracking_error",
    "optimal_N",
    "scan_n",
]

_TRACK_POINTS = 1024


@dataclass(frozen=True)
class ScanRow:
    """Optimal half-width for one central level.

    product_min is the uncertainty product of the selected packet at the
    initial turning t = 0, where the momentum mean vanishes.
    """

    n: int
    N_opt: int
    product_min: float
    sqrt_n: float


@dataclass(frozen=True)
class ScanFit:
    """Power-law fit N_opt ~ prefactor * n**m_exp over a scan."""

    m_exp: float
    prefactor: float
    residual: float


@dataclass(frozen=True)
class ScanResult:
    rows: list[ScanRow]
    fit: ScanFit | None


def default_n_grid(n_min: int = 10, n_max: int = 500, points: int = 12) -> list[int]:
    """Geometric grid of integer levels, deduplicated, endpoints included."""
    if points < 2 or n_min < 1 or n_max <= n_min:
        raise ValueError("need points >= 2 and 1 <= n_min < n_max")
    ratio = (n_max / n_min) ** (1.0 / (points - 1))
    return sorted({int(round(n_min * ratio**i)) for i in range(points)})


def _half_angle_pair(r: np.ndarray, M: int) -> np.ndarray:
    """cos and sin of 2 pi r / M for integer residues 0 <= r < M, stacked by rows.

    Both come from one tangent of the half angle, t = tan(pi r / M), as
    cos = 2 / (1 + t^2) - 1 and sin = 2 t / (1 + t^2): numpy's float64 tan
    has a SIMD loop where its sin and cos may not. At r = M/2 the rounded
    pi/2 gives a finite t of about 1.6e16, so cos is -1 and sin rounds to
    about 1e-16, as np.sin(np.pi) does.
    """
    t = np.tan(r * (math.pi / M))
    w = t * t
    w += 1.0
    np.divide(2.0, w, out=w)
    pair = np.empty((2 * len(r),) + r.shape[1:])
    np.subtract(w, 1.0, out=pair[: len(r)])
    np.multiply(w, t, out=pair[len(r) :])
    return pair


def _tracking_errors(cfg: WellConfig, n: int, t_points: int) -> Iterator[float]:
    """RMS tracking error for the half-widths N = 0, 1, ..., n - 1 in turn.

    Half-width N holds the level pairs of span max(|j|, |k|) <= N, so the
    position means for all N are running sums over spans v = 1, 2, ...
    (only the 1/(2N+1) weight changes). A span-v pair has odd difference
    d and sum offset s = +-(2v - d), and on the grid t_i = i T/P its phase
    is exactly 2 pi m i / (2nP) with the integer m = d (2n + s). Writing
    i = h B + l with B = ceil(sqrt(P)), the phase splits into integer
    residues of m h B and m l modulo 2nP, so a span's partial curve is
    (amp cos A)^T cos L - (amp sin A)^T sin L. Stacked as
    [amp cos A; -amp sin A]^T [cos L; sin L] it is one small matrix
    product, over about P/B + B tangents per pair (`_half_angle_pair`)
    instead of P cosines, and the RMS of the error e is sqrt(e.e / P).
    Each value costs only its own span, so a caller may stop early.
    """
    if t_points < 1:
        raise ValueError(f"need t_points >= 1, got {t_points}")
    sd = spectral_data(cfg, n)
    ts = np.arange(t_points) * (sd.period / t_points)
    orbit = ClassicalOrbit(a=cfg.a, p_c=sd.p_n, mu=cfg.mu)
    saw = sawtooth_position(orbit, ts)
    B = math.isqrt(t_points - 1) + 1
    H = -(-t_points // B)
    M = 2 * n * t_points
    steps = np.concatenate([np.arange(H) * B, np.arange(B)])
    scale = 4.0 * cfg.a / math.pi**2
    base = cfg.a / 2.0 - saw
    cum = np.zeros(t_points)
    yield math.sqrt(base @ base / t_points)
    for v in range(1, n):
        d = np.tile(np.arange(1, 2 * v, 2), 2)
        s = 2 * v - d
        s[v:] *= -1
        q = 2 * n + s
        r = np.multiply.outer(d * q % M, steps) % M
        pair = _half_angle_pair(r, M)
        amp = scale * (1.0 / q**2 - 1.0 / d**2)
        pair[:, :H] *= np.concatenate([amp, -amp])[:, None]
        cum += (pair[:, :H].T @ pair[:, H:]).reshape(-1)[:t_points]
        err = cum / (2 * v + 1)
        err += base
        yield math.sqrt(err @ err / t_points)


def _tracking_curve(
    cfg: WellConfig, n: int, N_max: int, t_points: int
) -> np.ndarray:
    """RMS tracking error for every half-width 0..N_max (N_max < n)."""
    errors = islice(_tracking_errors(cfg, n, t_points), N_max + 1)
    return np.fromiter(errors, dtype=float, count=N_max + 1)


def tracking_error(
    cfg: WellConfig, n: int, N: int, t_points: int = _TRACK_POINTS
) -> float:
    """RMS of (position mean - classical sawtooth) over one period.

    The period grid has t_points uniform samples on [0, T), endpoint
    excluded (a periodic mean).
    """
    if N < 0 or N >= n:
        raise ValueError(f"need 0 <= N < n, got n={n}, N={N}")
    return float(_tracking_curve(cfg, n, N, t_points)[N])


def optimal_N(
    cfg: WellConfig,
    n: int,
    N_min: int = 1,
    N_max: int | None = None,
    t_points: int = _TRACK_POINTS,
) -> ScanRow:
    """The half-width with the least tracking error, by a first-rise stop.

    The search window defaults to [1, min(n-1, ceil(4*sqrt(n)))]. N walks
    up from N_min and the search stops at the first N whose error exceeds
    the least error so far, which is the window's minimum when the error
    has a single local minimum there (see the module docstring). Ties
    break toward the smaller N (the more monochromatic packet).
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got n={n}")
    if N_max is None:
        N_max = min(n - 1, math.ceil(4.0 * math.sqrt(n)))
    if not (1 <= N_min <= N_max < n):
        raise ValueError(f"empty or invalid search range [{N_min}, {N_max}] for n={n}")
    errors = islice(_tracking_errors(cfg, n, t_points), N_min, N_max + 1)
    best, least = N_min, math.inf
    for N, err in enumerate(errors, N_min):
        if err < least:
            best, least = N, err
        elif err > least:
            break
    return ScanRow(
        n=n,
        N_opt=best,
        product_min=uncertainty_product(cfg, PacketSpec(n=n, N=best), 0.0),
        sqrt_n=math.sqrt(n),
    )


def scan_n(
    cfg: WellConfig,
    n_values: list[int] | None = None,
    t_points: int = _TRACK_POINTS,
) -> ScanResult:
    """optimal_N over a list of levels plus a log-log fit of N_opt vs n.

    n_values must be ascending (repeats allowed); defaults to the
    12-point geometric grid on [10, 500]. With fewer than 3 distinct
    levels the fit is skipped (fit=None).
    """
    if n_values is None:
        n_values = default_n_grid()
    if any(b < a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be ascending")
    rows = [optimal_N(cfg, n, t_points=t_points) for n in n_values]

    fit = None
    if len(set(n_values)) >= 3:
        log_n = np.log([r.n for r in rows])
        log_N = np.log([r.N_opt for r in rows])
        slope, intercept = np.polyfit(log_n, log_N, 1)
        resid = log_N - (slope * log_n + intercept)
        fit = ScanFit(
            m_exp=float(slope),
            prefactor=float(np.exp(intercept)),
            residual=float(np.sqrt(np.mean(resid**2))),
        )
    return ScanResult(rows=rows, fit=fit)
