"""Selection of the packet half-width N that best matches the classical orbit.

For each central level n there is a narrow range of half-widths that makes
the packet behave classically: too few superposed states and the packet
mean is a poor (truncated-average) rendering of the bounce trajectory; too
many and the unequal level spacing dephases the packet within a period.
The selection minimizes the RMS deviation of the position mean
from the classical sawtooth over one period, sampled at t_i = i T/P.
Both halves of that objective are exact on the index grid: every level
pair's phase is an integer residue modulo 2nP, and the sawtooth is
2a min(i, P - i)/P. The objective is therefore a function of n and P
alone times the well width a, and N_opt cannot depend on mu or hbar.
On the 10..500 grid N_opt lands within floor(sqrt(n)) +- 1 (N = 23 at
n = 500), but it grows faster than sqrt(n) beyond: N = 54 at n = 2000
and N = 144 at n = 10^4, against floor(sqrt(n)) = 44 and 100. The 144 is
the value of the default 1024-point rectangle rule over the period; with
4096 points or more the same objective gives N = 142 at n = 10^4.

The error is assumed to have a single local minimum in N over the search
window, so optimal_N walks N upward and stops at the first N whose error
rises above the running minimum. That assumption held on every window
checked (DECISIONS.md, "optimal_N stops at the first rise"). Half-width N
adds the 2N pairs of span N to the running sum, each with about
2 sqrt(P) exact float residues, as many tangents, and 2P multiply-adds in
the span's one matrix product over the P-point grid, so the search costs
O(N_opt^2 P) against O(N_max^2 P) for scoring the whole window. The
default window ends at about 4 N_opt, and the stop takes 8-9x less time
than the whole window at n = 500 to 10^4. The pairs' residues and
amplitudes come from tables of about 1024 pairs that serve consecutive
spans, so a span pays only for its residues, tangents and product, not
for rebuilding its pair list. The float residues are exact while
2 n P^2 < 2^53, which admits n = 10^6 at P = 65536; a larger n P^2
raises ValueError.

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

from .core import _CHUNK, PacketSpec, WellConfig, _half_angle
from .quantum import uncertainty_product

__all__ = [
    "ScanRow",
    "ScanFit",
    "ScanResult",
    "default_n_grid",
    "optimal_N",
    "scan_n",
]

_TRACK_POINTS = 1024
_TABLE_PAIRS = 1024  # level pairs per table of consecutive spans (`_span_pairs`)


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


def _span_pairs(n: int, M: int, scale: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(residues, amplitudes) of the 2v level pairs of span v, for v = 1, 2, ..., n - 1.

    A span-v pair has odd difference d = 1, 3, ..., 2v - 1 and sum offset
    s = +-(2v - d), the v pairs with s > 0 first. Its residue is
    d (2n + s) mod M, an exact integer held as a float, and its amplitude
    scale (1/(2n + s)^2 - 1/d^2). Consecutive spans are built together in
    one table of at most _TABLE_PAIRS pairs (or one span, if larger),
    span-major, so that a span costs two slices; a table spans v = 1..31
    first and fewer spans as v grows.
    """
    v0 = 1
    while v0 < n:
        # the last v1 with v1 (v1 - 1) - v0 (v0 - 1) <= _TABLE_PAIRS pairs
        v1 = (1 + math.isqrt(1 + 4 * (_TABLE_PAIRS + v0 * (v0 - 1)))) // 2
        v1 = min(n, max(v0 + 1, v1))
        spans = np.arange(v0, v1)
        span = np.repeat(spans, 2 * spans)
        k = np.arange(len(span)) - np.repeat(spans * (spans - 1) - v0 * (v0 - 1), 2 * spans)
        upper = k >= span
        d = 2 * (k - span * upper) + 1
        q = 2 * span - d
        q[upper] *= -1
        q += 2 * n
        res = (d * q % M).astype(float)
        amp = np.empty((2, len(res)))
        amp[0] = scale * (1.0 / q**2 - 1.0 / d**2)
        np.negative(amp[0], out=amp[1])
        lo = 0
        for v in range(v0, v1):
            yield res[lo : lo + 2 * v], amp[:, lo : lo + 2 * v, None]
            lo += 2 * v
        v0 = v1


def _residues(res, steps, M: int, out, work) -> None:
    """r = x - M rint(x / M) for x = res (x) steps, into out; work is overwritten.

    For integers res in [0, M) and steps in [0, P) with 2 n P^2 < 2^53
    (M = 2nP), x is exact, x / M is rounded by less than 1/M, and r is the
    exact integer congruent to x modulo M with |r| <= M/2.
    """
    np.multiply.outer(res, steps, out=out)
    np.divide(out, M, out=work)
    np.rint(work, out=work)
    work *= M
    out -= work


def _tracking_errors(cfg: WellConfig, n: int, t_points: int) -> Iterator[float]:
    """RMS tracking error for the half-widths N = 0, 1, ..., n - 1 in turn.

    Half-width N holds the level pairs of span max(|j|, |k|) <= N, so the
    position means for all N are running sums over spans v = 1, 2, ...
    (only the 1/(2N+1) weight changes). A span-v pair has odd difference
    d and sum offset s = +-(2v - d), and on the grid t_i = i T/P its phase
    is exactly 2 pi m i / M, M = 2nP, with the integer m = d (2n + s).
    Writing i = h B + l with B = ceil(sqrt(P)), the phase splits into
    residues of m h B and m l modulo M, so a span's partial curve is
    (amp cos A)^T cos L - (amp sin A)^T sin L. Stacked as
    [amp cos A; -amp sin A]^T [cos L; sin L] it is one small matrix
    product, over about P/B + B tangents per pair (`core._half_angle`:
    cos and sin of 2 pi r / M from t = tan(pi r / M)) instead of P
    cosines, and the RMS of the error e is sqrt(e.e / P). Each value costs
    only its own span, so a caller may stop early.

    The residues are exact floats. With res = m mod M (`_span_pairs`) and
    a grid step below P, x = res step is an integer below 2 n P^2, exact
    in float64 while 2 n P^2 < 2^53 (n = 10^6 at P = 65536 is 0.95 of
    that; past it ValueError is raised). r = x - M rint(x / M) is then
    exact too, congruent to x modulo M, and |r| <= M/2, because x / M is
    rounded by less than 1/M (`_residues`); so the half phase is r pi / M
    in [-pi/2, pi/2]. The residues and amplitudes of consecutive spans
    come from one table of about 1024 pairs, so a span costs no
    small-array calls of its own. A span's pairs go in blocks of
    fewer than core._CHUNK residues (127 pairs at P = 1024, so every span
    to v = 63 is one block), which keeps every array of a span below
    glibc's 128 KiB mmap threshold, and the products of the blocks add
    into the running sum.

    Both halves of e are exact on the index grid: the phases are integer
    residues and the sawtooth at t_i is 2a min(i, P - i)/P, so no time is
    formed, the values depend on n and P alone, scaled by a, and N_opt
    cannot depend on mu or hbar.
    """
    if t_points < 1:
        raise ValueError(f"need t_points >= 1, got {t_points}")
    if 2 * n * t_points**2 >= 2**53:
        raise ValueError(
            f"need 2 n P^2 < 2^53 for exact float residues, got n={n}, P={t_points}"
        )
    i = np.arange(t_points)
    saw = (2.0 * cfg.a / t_points) * np.minimum(i, t_points - i)
    B = math.isqrt(t_points - 1) + 1
    H = -(-t_points // B)
    M = 2 * n * t_points
    steps = np.concatenate([np.arange(H) * B, np.arange(B)]).astype(float)
    base = cfg.a / 2.0 - saw
    cum = np.zeros(t_points)
    yield math.sqrt(base @ base / t_points)
    # pairs per block: fewer than _CHUNK residues, so that the stacked cos
    # and sin rows stay below 2 _CHUNK elements, glibc's 128 KiB threshold
    rows = max(1, (_CHUNK - 1) // len(steps))
    for v, (res, amp) in enumerate(_span_pairs(n, M, 4.0 * cfg.a / math.pi**2), 1):
        for lo in range(0, 2 * v, rows):
            k = min(rows, 2 * v - lo)
            pair = np.empty((2, k, len(steps)))
            cos, x = pair
            _residues(res[lo : lo + k], steps, M, x, cos)
            x *= math.pi / M
            _half_angle(x, cos, x)
            pair[:, :, :H] *= amp[:, lo : lo + k]
            pair = pair.reshape(2 * k, -1)
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
