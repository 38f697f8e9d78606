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
the span's matrix product over the P-point grid, so the search costs
O(N_opt^2 P) against O(N_max^2 P) for scoring the whole window. The
default window ends at about 4 N_opt, and the stop takes 8-9x less time
than the whole window at n = 500 to 10^4. The residues and tangents are
formed in blocks of up to 127 pairs (at P = 1024) that hold whole spans
while spans are short, cut from tables of about 1024 pairs, and at most
one block ahead of the span being summed. A span pays only for its
product and its error update: one product up to v = 63 and one per 127
pairs beyond. The scan to the first rise at n = 500 forms 6 blocks where
one block per span made 24, since there the fixed cost of a block's ~15
numpy calls outweighed its arithmetic. The float residues are exact
while 2 n P^2 < 2^53, which admits n = 10^6 at P = 65536; a larger
n P^2 raises ValueError.

The uncertainty product Delta-x Delta-p at the initial turning (t = 0) is
reported for the selected packet but is no selection criterion: it falls
monotonically with N, so it has no interior minimum.
"""

from __future__ import annotations

import math
import operator
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
_TABLE_PAIRS = 1024  # level pairs per table of consecutive spans (`_pair_blocks`)


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


def _pair_blocks(
    n: int, M: int, scale: float, size: int
) -> Iterator[tuple[np.ndarray, np.ndarray, list[tuple[int, int, bool]]]]:
    """The level pairs of spans 1..n-1 in blocks of at most size pairs.

    Each block is (residues, amplitudes, groups). A span-v pair has odd
    difference d = 1, 3, ..., 2v - 1 and sum offset s = +-(2v - d), the
    v pairs with s > 0 first. Its residue is d (2n + s) mod M, an exact
    integer held as a float, and its amplitudes +-scale (1/(2n + s)^2 -
    1/d^2), shape (2, pairs). A span's 2v pairs split into product groups
    of size pairs, the last one shorter, and a block holds as many
    consecutive groups as fit in size pairs: while 2v <= size it runs
    across span boundaries, and a longer span's groups fill a block each.
    groups lists the block's groups as (lo, hi, whether it ends its
    span). Consecutive spans are built together in one table of at most
    _TABLE_PAIRS pairs (or one span, if larger), span-major, so that a
    block costs two slices; a table spans v = 1..31 first and fewer spans
    as v grows.
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
        lo = hi = 0
        groups: list[tuple[int, int, bool]] = []
        for v in range(v0, v1):
            for g in range(0, 2 * v, size):
                count = min(size, 2 * v - g)
                if hi + count - lo > size:
                    yield res[lo:hi], amp[:, lo:hi], groups
                    lo, groups = hi, []
                groups.append((hi - lo, hi - lo + count, g + count == 2 * v))
                hi += count
        yield res[lo:], amp[:, lo:], groups
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
    only its own span, and at most one block of tangents ahead, so a
    caller may stop early.

    The residues are exact floats. With res = m mod M (`_pair_blocks`) and
    a grid step below P, x = res step is an integer below 2 n P^2, exact
    in float64 while 2 n P^2 < 2^53 (n = 10^6 at P = 65536 is 0.95 of
    that; past it ValueError is raised). r = x - M rint(x / M) is then
    exact too, congruent to x modulo M, and |r| <= M/2, because x / M is
    rounded by less than 1/M (`_residues`); so the half phase is r pi / M
    in [-pi/2, pi/2].

    The residues, tangents and amplitude scaling run in blocks of fewer
    than core._CHUNK residues (127 pairs at P = 1024) that hold whole
    product groups (`_pair_blocks`): every span up to v = 63 is one group,
    so a block runs across span boundaries, and a longer span's groups of
    127 pairs fill a block each. A block is formed when the first span in
    it is summed, so the values drawn run at most one block ahead. A span
    copies its cos rows over its sin rows out of its block into one
    operand, unless they are the whole block, and pays only for that
    copy, its product and its error update. Every product sees the rows,
    order and layout that a block per group gave, so every value is the
    same bit for bit. Every array stays below glibc's 128 KiB mmap
    threshold.

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
    flat = np.empty(2 * rows * len(steps))
    v = 0
    for res, amp, groups in _pair_blocks(n, M, 4.0 * cfg.a / math.pi**2, rows):
        k = len(res)
        pair = flat[: 2 * k * len(steps)].reshape(2, k, -1)
        cos, x = pair
        _residues(res, steps, M, x, cos)
        x *= math.pi / M
        _half_angle(x, cos, x)
        pair[:, :, :H] *= amp[:, :, None]
        for lo, hi, ends_span in groups:
            # cos rows over sin rows: a view of a whole block, else a copy
            group = pair[:, lo:hi].reshape(2 * (hi - lo), -1)
            cum += (group[:, :H].T @ group[:, H:]).reshape(-1)[:t_points]
            if ends_span:
                v += 1
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
    n = operator.index(n)
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

    n_values, in any order (the rows keep it; `fig1` emits them), defaults
    to the 12-point geometric grid on [10, 500]. With fewer than 3 distinct
    levels the fit is skipped (fit=None).
    """
    if n_values is None:
        n_values = default_n_grid()
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
