"""Constrained classical limit: packet means against the averaged classical series.

Large n alone does not make the packet classical; the limit that does is
joint: n -> infinity and N -> infinity with N^2/n -> 0 while the action
n*hbar is held at the classical p_c*a/pi. The largest detuning phase over
one period is about pi N^2/n, so the "sqrt" rule N = floor(sqrt(n)),
with N^2/n near 1, stays outside that limit. This module probes it
numerically by shrinking hbar as 1/n so the packet frequency and momentum
match the classical orbit exactly for every row, then measuring the sup
deviation between the packet means and the matching averaged series over
one period. The position's deviation splits into an amplitude part
A = <x> - quasi, with |A| <= (4a/pi^2) N(N+1)/((2N+1)(2n-2N+1)^2), about
a N/(2 pi^2 n^2), and a detuning part D = quasi - F<x> from the O(1/n)
Bohr-frequency detuning of the level pairs. At whole periods t = kT,
`limits._detuning` gives D in closed form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .classical import _matched_orbit, fejer_momentum, fejer_position, fejer_position_sq
from .core import PacketSpec, WellConfig
from .quantum import packet_moments

__all__ = ["LimitRow", "limit_sequence"]

_LIMIT_POINTS = 2048  # grid points over one period per row; the last row takes twice as many


@dataclass(frozen=True)
class LimitRow:
    """Sup deviations between packet means and averaged series for one n.

    hbar_eff = p_c * a / (n * pi), so p_n = p_c and omega_n = omega hold
    exactly by construction.
    """

    n: int
    hbar_eff: float
    N: int
    sup_err_x: float
    sup_err_p: float
    sup_err_x2: float


def limit_sequence(
    a: float,
    mu: float,
    p_c: float,
    n_values: list[int],
    N_rule: int | str = "sqrt",
) -> list[LimitRow]:
    """Deviation rows along an ascending sequence of levels at fixed action.

    N_rule is either a fixed integer half-width or "sqrt" for
    N = floor(sqrt(n)). The sup norms are taken over a fixed uniform grid
    of 2048 samples spanning one period (`limits._LIMIT_POINTS`); the
    final row uses 4096 so that the reported (smallest) deviation is not
    an artifact of grid resolution.
    """
    if any(b <= a_ for a_, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly ascending")
    if isinstance(N_rule, str):
        if N_rule != "sqrt":
            raise ValueError(f"N_rule must be an integer or 'sqrt', got {N_rule!r}")
    else:
        N_rule = operator.index(N_rule)  # 2.5 raises TypeError, not truncated to 2

    rows = []
    for i, n in enumerate(n_values):
        n = operator.index(n)
        N = math.isqrt(n) if N_rule == "sqrt" else N_rule
        if N >= n:
            raise ValueError(f"half-width N={N} not below n={n}")
        hbar_eff = p_c * a / (n * math.pi)
        cfg = WellConfig(a=a, mu=mu, hbar=hbar_eff)
        spec = PacketSpec(n=n, N=N)
        orbit = _matched_orbit(cfg, n)
        points = _LIMIT_POINTS * 2 if i == len(n_values) - 1 else _LIMIT_POINTS
        ts = np.linspace(0.0, orbit.period, points)
        x, x2, p = packet_moments(cfg, spec, ts)
        err_x = np.abs(x - fejer_position(orbit, N, ts))
        err_p = np.abs(p - fejer_momentum(orbit, N, ts))
        err_x2 = np.abs(x2 - fejer_position_sq(orbit, N, ts))
        rows.append(
            LimitRow(
                n=n,
                hbar_eff=hbar_eff,
                N=N,
                sup_err_x=float(err_x.max()),
                sup_err_p=float(err_p.max()),
                sup_err_x2=float(err_x2.max()),
            )
        )
    return rows


def _detuning(a: float, n: int, N: int, k: int) -> float:
    """D(kT) = quasi_exp(position) - fejer_position at t = kT on the matched orbit.

    At whole periods every classical phase is a multiple of 2 pi, so D is
    one sum over the odd d-columns, in O(N):

        D(kT) = -(4a/pi^2)/(2N+1) * sum_{d odd <= 2N} [R_K(dk pi/n) - K]/d^2,

    with K = 2N + 1 - d and R_K(phi) = sin(K phi)/sin(phi). D is 2n-periodic
    in k, and each phase is reduced exactly in integers modulo 2n before its
    sine; where sin(phi) = 0, R_K is its limit, K or -K (K is even).
    """
    n2 = 2 * n
    k %= n2

    def sinpi(m):  # sin(pi m/n) on an argument folded into [0, pi/2]
        sign = -1.0 if m % n2 >= n else 1.0
        m %= n
        return sign * math.sin(math.pi * min(m, n - m) / n)

    terms = []
    for d in range(1, 2 * N + 1, 2):
        K, r = 2 * N + 1 - d, d * k % n2
        R = K if r == 0 else -K if r == n else sinpi(K * r) / sinpi(r)
        terms.append((R - K) / (d * d))
    return -4.0 * a / math.pi**2 / (2 * N + 1) * math.fsum(terms)
