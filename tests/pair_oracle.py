"""Exhaustive O(N^2) level-pair sums, kept as references for the tests.

The library sums packet moments as Dirichlet kernels and the width scan
on a factored time grid; these helpers enumerate every level pair
directly, with float phases, so the tests can compare the two.
"""

import math

import numpy as np

from fejerwell.classical import ClassicalOrbit, sawtooth_position
from fejerwell.core import WellConfig, spectral_data


def pair_terms(cfg: WellConfig, n: int, N: int, kind: str):
    """Off-diagonal term arrays (amp, freq, span) for a packet observable.

    One entry per unordered level pair; amp excludes the 1/(2N+1) packet
    weight and already contains the factor 2 from combining the pair with
    its conjugate. span[i] = max(|j|, |k|) is the smallest half-width
    whose packet contains the pair.

    kind: "position" (odd differences only) or "position_sq" (all
    differences).
    """
    if kind not in ("position", "position_sq"):
        raise ValueError(f"kind must be 'position' or 'position_sq', got {kind!r}")
    omega_base = math.pi**2 * cfg.hbar / (2.0 * cfg.mu * cfg.a**2)  # omega_n / (2n)
    js, ks = np.meshgrid(np.arange(-N, N + 1), np.arange(-N, N + 1), indexing="ij")
    upper = js > ks
    if kind == "position":
        upper &= (js - ks) % 2 == 1
    j = js[upper].astype(float)
    k = ks[upper].astype(float)
    d = j - k
    s = j + k
    if kind == "position":
        amp = (4.0 * cfg.a / math.pi**2) * (1.0 / (2 * n + s) ** 2 - 1.0 / d**2)
    else:
        amp = (
            (4.0 * cfg.a**2 / math.pi**2)
            * (-1.0) ** d
            * (1.0 / d**2 - 1.0 / (2 * n + s) ** 2)
        )
    freq = d * (2 * n + s) * omega_base
    span = np.maximum(np.abs(j), np.abs(k)).astype(int)
    return amp, freq, span


def tracking_curve(cfg: WellConfig, n: int, N_max: int, t_points: int) -> np.ndarray:
    """RMS tracking error for every half-width 0..N_max, O(N_max^2 t_points).

    Every pair's cosine is evaluated at every grid instant from its float
    frequency, and the sums for all half-widths are assembled cumulatively
    over the pairs' spans.
    """
    sd = spectral_data(cfg, n)
    ts = np.arange(t_points) * (sd.period / t_points)
    orbit = ClassicalOrbit(a=cfg.a, p_c=sd.p_n, mu=cfg.mu)
    saw = sawtooth_position(orbit, ts)
    amp, freq, span = pair_terms(cfg, n, N_max, "position")
    partial = np.zeros((N_max + 1, t_points))
    for v in range(1, N_max + 1):
        sel = span == v
        if np.any(sel):
            partial[v] = np.cos(np.multiply.outer(ts, freq[sel])) @ amp[sel]
    cum = np.cumsum(partial, axis=0)
    weights = 1.0 / (2.0 * np.arange(N_max + 1) + 1.0)
    means = cfg.a / 2.0 + cum * weights[:, None]
    return np.sqrt(np.mean((means - saw[None, :]) ** 2, axis=1))
