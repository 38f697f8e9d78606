"""Constrained classical limit: packet means against the averaged classical series.

Large n alone does not make the packet classical; the limit that does is
joint: n -> infinity and N -> infinity with N^2/n -> 0 while the action
n*hbar is held at the classical p_c*a/pi. The largest detuning phase over
one period is about pi N^2/n, so the "sqrt" rule N = floor(sqrt(n)),
with N^2/n near 1, stays outside that limit. This module probes it
numerically by shrinking hbar as 1/n so the packet frequency and momentum
match the classical orbit exactly for every row, then measuring the sup
deviation between the packet means and the matching averaged series over
one period. The residual deviation comes entirely from the O(1/n)
frequency detuning of the level pairs, which detuning_report exposes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .classical import _matched_orbit, fejer_momentum, fejer_position, fejer_position_sq
from .core import PacketSpec, WellConfig, spectral_data
from .quantum import packet_moments

__all__ = ["LimitRow", "DetuningReport", "limit_sequence", "detuning_report"]

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


@dataclass(frozen=True)
class DetuningReport:
    """Leading quantum frequencies of one harmonic against the classical one.

    The packet terms of harmonic r oscillate at r*(1 + s/(2n))*omega_n for
    a family of offsets s; the two largest offsets are s = 2N - r and
    2N - r - 2. The classical series has the single frequency r*omega.
    The ratios expose the O(1/n) detuning responsible for the residual
    quantum-classical deviation.
    """

    harmonic: int
    quantum: tuple[float, float]
    classical: float
    ratios: tuple[float, float]


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


def detuning_report(cfg: WellConfig, spec: PacketSpec, r: int) -> DetuningReport:
    """Quantum frequency branches of harmonic r against the classical value."""
    if not (1 <= r <= 2 * spec.N):
        raise ValueError(f"harmonic must satisfy 1 <= r <= 2N={2 * spec.N}, got {r}")
    omega_n = spectral_data(cfg, spec.n).omega_n
    s_edge = 2 * spec.N - r
    s1 = s_edge
    s2 = max(s_edge - 2, -s_edge)
    ratios = (1.0 + s1 / (2.0 * spec.n), 1.0 + s2 / (2.0 * spec.n))
    classical = r * omega_n
    return DetuningReport(
        harmonic=r,
        quantum=(classical * ratios[0], classical * ratios[1]),
        classical=classical,
        ratios=ratios,
    )
