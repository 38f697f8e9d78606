"""Tests for the closed-form packet expectation values against first principles."""

import functools
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fejerwell import (
    ClassicalOrbit,
    PacketSpec,
    WellConfig,
    exp_p,
    exp_p2,
    exp_x,
    exp_x2,
    energy,
    expectation_sample,
    fejer_position,
    oracle_expectation,
    packet_moments,
    quasi_exp,
    reduced_uncertainty,
    uncertainty_product,
)
from fejerwell.core import classical_period
from fejerwell import quantum
from fejerwell.core import _CHUNK, _block_rows
from fejerwell.quantum import VarianceError, _dirichlet, _kernel, _variance
from pair_oracle import pair_terms

NATURAL = WellConfig()

# (n, N) validation cases with per-observable relative tolerances;
# scales are the natural magnitudes a, a^2, p_n, p_n^2
ORACLE_CASES = [(10, 3), (50, 7)]
TOLS = {"position": 1e-8, "position_sq": 1e-8, "momentum": 1e-6}


@pytest.mark.parametrize("n,N", ORACLE_CASES)
def test_closed_forms_match_grid_oracle(n, N):
    spec = PacketSpec(n=n, N=N)
    T = classical_period(NATURAL, n)
    p_n = n * math.pi
    for t in np.linspace(0.0, T, 32):
        t = float(t)
        assert abs(
            exp_x(NATURAL, spec, t) - oracle_expectation(NATURAL, spec, t, "position")
        ) < TOLS["position"]
        assert abs(
            exp_x2(NATURAL, spec, t)
            - oracle_expectation(NATURAL, spec, t, "position_sq")
        ) < TOLS["position_sq"]
        assert abs(
            exp_p(NATURAL, spec, t) - oracle_expectation(NATURAL, spec, t, "momentum")
        ) < TOLS["momentum"] * p_n


def test_closed_forms_match_grid_oracle_large_n():
    # spot-check the heaviest case; the acceptance suite runs the full grid
    spec = PacketSpec(n=200, N=14)
    T = classical_period(NATURAL, 200)
    p_n = 200 * math.pi
    for t in np.linspace(0.0, T, 8):
        t = float(t)
        assert abs(
            exp_x(NATURAL, spec, t) - oracle_expectation(NATURAL, spec, t, "position")
        ) < 1e-8
        assert abs(
            exp_p(NATURAL, spec, t) - oracle_expectation(NATURAL, spec, t, "momentum")
        ) < 1e-6 * p_n


def test_grid_and_spectral_oracles_cross_validate():
    spec = PacketSpec(n=50, N=7)
    for t in (0.0, 0.0041, 0.009):
        g = oracle_expectation(NATURAL, spec, t, "position", method="grid")
        s = oracle_expectation(NATURAL, spec, t, "position", method="spectral")
        assert abs(g - s) < 1e-8


def test_brute_force_matrix_elements_small_packet():
    # fully independent oracle: numerically integrated matrix elements
    # x_uv = int x psi_u psi_v dx over all 25 level pairs of (n=5, N=2)
    n, N = 5, 2
    spec = PacketSpec(n=n, N=N)
    levels = range(n - N, n + N + 1)

    def x_elem(u, v):
        val, _ = quad(
            lambda x: x * math.sqrt(2) * math.sin(u * math.pi * x)
            * math.sqrt(2) * math.sin(v * math.pi * x),
            0.0,
            1.0,
            limit=200,
        )
        return val

    for t in (0.0, 0.05):
        total = 0.0
        for u in levels:
            for v in levels:
                w_uv = ((u * math.pi) ** 2 - (v * math.pi) ** 2) / 2.0
                total += x_elem(u, v) * math.cos(w_uv * t)
        brute = total / (2 * N + 1)
        assert math.isclose(exp_x(NATURAL, spec, t), brute, rel_tol=0, abs_tol=1e-9)


def test_exp_x_single_state():
    spec = PacketSpec(n=9, N=0)
    for t in (0.0, 0.4, 12.0):
        assert exp_x(NATURAL, spec, t) == 0.5


def test_exp_x2_single_state():
    for n in (1, 9, 200):
        spec = PacketSpec(n=n, N=0)
        expected = 1 / 3 - 1 / (2 * math.pi**2 * n**2)
        assert math.isclose(exp_x2(NATURAL, spec, 0.7), expected, rel_tol=1e-14)


def test_packet_localized_at_wall_initially():
    spec = PacketSpec(n=500, N=23)
    assert exp_x2(NATURAL, spec, 0.0) < 0.25
    v = oracle_expectation(NATURAL, spec, 0.0, "position_sq")
    assert math.isclose(exp_x2(NATURAL, spec, 0.0), v, rel_tol=0, abs_tol=1e-8)


def test_exp_p_zero_at_start():
    assert exp_p(NATURAL, PacketSpec(n=50, N=7), 0.0) == 0.0
    assert exp_p(NATURAL, PacketSpec(n=500, N=23), 0.0) == 0.0


@pytest.mark.parametrize("n,N", [(50, 7), (500, 23)])
def test_exp_p_is_time_derivative_of_exp_x(n, N):
    spec = PacketSpec(n=n, N=N)
    T = classical_period(NATURAL, n)
    h = T * 1e-6
    p_n = n * math.pi
    for t in (0.13 * T, 0.57 * T):
        fd = (exp_x(NATURAL, spec, t + h) - exp_x(NATURAL, spec, t - h)) / (2 * h)
        assert abs(exp_p(NATURAL, spec, t) - fd) < 1e-6 * p_n


def test_exp_x_is_even_in_time():
    spec = PacketSpec(n=50, N=7)
    for t in (1e-4, 0.003):
        assert math.isclose(
            exp_x(NATURAL, spec, t), exp_x(NATURAL, spec, -t), rel_tol=0, abs_tol=1e-12
        )


def test_exp_p2_values():
    assert math.isclose(exp_p2(NATURAL, PacketSpec(n=9, N=0)), (9 * math.pi) ** 2, rel_tol=1e-15)
    expected = (500 * math.pi) ** 2 * (1 + 552 / 750000)
    assert math.isclose(exp_p2(NATURAL, PacketSpec(n=500, N=23)), expected, rel_tol=1e-15)


def test_exp_p2_equals_level_average():
    # the two closed forms of the same diagonal sum
    for n, N in [(10, 3), (500, 23)]:
        levels = np.arange(n - N, n + N + 1, dtype=float)
        avg = float(np.mean((levels * math.pi) ** 2))
        assert math.isclose(exp_p2(NATURAL, PacketSpec(n=n, N=N)), avg, rel_tol=1e-14)


def test_exp_p2_matches_spectral_oracle():
    spec = PacketSpec(n=50, N=7)
    for t in (0.0, 0.002, 0.011):
        v = oracle_expectation(NATURAL, spec, t, "momentum_sq", method="spectral")
        assert abs(v - exp_p2(NATURAL, spec)) < 1e-10 * exp_p2(NATURAL, spec)


def test_grid_oracle_p2_constant_over_period():
    spec = PacketSpec(n=50, N=7)
    T = classical_period(NATURAL, 50)
    vals = [
        oracle_expectation(NATURAL, spec, float(t), "momentum_sq", method="grid")
        for t in np.linspace(0.0, T, 16)
    ]
    spread = (max(vals) - min(vals)) / exp_p2(NATURAL, spec)
    assert spread < 1e-10


def test_oracle_rejects_bad_input():
    spec = PacketSpec(n=10, N=3)
    with pytest.raises(ValueError):
        oracle_expectation(NATURAL, spec, 0.0, "energy")
    with pytest.raises(ValueError):
        oracle_expectation(NATURAL, spec, 0.0, "position", grid_points=128)
    with pytest.raises(ValueError):
        oracle_expectation(NATURAL, spec, 0.0, "position", method="magic")


def test_oracle_warns_on_coarse_grid():
    spec = PacketSpec(n=10, N=3)
    with pytest.warns(UserWarning):
        oracle_expectation(NATURAL, spec, 0.0, "position", grid_points=1024)


def test_quasi_position_close_at_large_n():
    # classical amplitudes with the exact pair frequencies track the true
    # mean to O(1/n^2) uniformly in time
    spec = PacketSpec(n=500, N=23)
    ts = np.linspace(0.0, 0.0025, 400)
    dev = np.max(np.abs(quasi_exp(NATURAL, spec, ts, "position") - exp_x(NATURAL, spec, ts)))
    assert dev < 1e-2
    assert dev < 1e-4


def test_quasi_momentum_zero_at_start():
    assert quasi_exp(NATURAL, PacketSpec(n=50, N=7), 0.0, "momentum") == 0.0


@pytest.mark.parametrize("n,N", [(50, 7), (500, 23)])
def test_quasi_splits_spacing_from_amplitudes(n, N):
    # <x> - fejer = (<x> - quasi) + (quasi - fejer): quasi_exp keeps every
    # pair's exact Bohr frequency with classical amplitudes, so the first
    # term is the amplitude effect and the second the level-spacing effect.
    # Over three periods the spacing term dephases and grows more than
    # tenfold, while the amplitude term does not grow.
    spec = PacketSpec(n=n, N=N)
    T = classical_period(NATURAL, n)
    orbit = ClassicalOrbit(a=1.0, p_c=n * math.pi, mu=1.0)

    def terms(ts):
        x, quasi = exp_x(NATURAL, spec, ts), quasi_exp(NATURAL, spec, ts, "position")
        return np.max(np.abs(quasi - fejer_position(orbit, N, ts))), np.max(np.abs(x - quasi))

    spacing_early, amplitude_early = terms(np.linspace(0.0, T / 4, 300))
    spacing_late, amplitude_late = terms(np.linspace(2.75 * T, 3.25 * T, 300))
    assert spacing_late > 10 * spacing_early
    assert amplitude_late <= amplitude_early


def test_quasi_rejects_bad_arguments():
    spec = PacketSpec(n=50, N=7)
    with pytest.raises(ValueError):
        quasi_exp(NATURAL, spec, 0.0, "position_sq")


def test_variance_guard():
    # a variance below -1e-12 scale is an error; above it, round-off clamped to 0
    assert _variance(1.0, 1.0 - 0.5e-12, 1.0) == 0.0
    with pytest.raises(VarianceError):
        _variance(1.0, 1.0 - 2e-12, 1.0)
    with pytest.raises(VarianceError):
        _variance(np.array([1.0, 0.0]), np.array([1.0 - 2e-12, 0.0]), 1.0)


def test_reduced_uncertainty_rejects_unknown_kind():
    with pytest.raises(ValueError):
        reduced_uncertainty(NATURAL, PacketSpec(n=50, N=7), 0.0, "energy")


def test_reduced_uncertainty_momentum_starts_at_one():
    assert reduced_uncertainty(NATURAL, PacketSpec(n=500, N=23), 0.0, "momentum") == 1.0


def test_reduced_uncertainty_bounds():
    spec = PacketSpec(n=500, N=23)
    T = classical_period(NATURAL, 500)
    ts = np.linspace(0.0, 2 * T, 256)
    dx = reduced_uncertainty(NATURAL, spec, ts, "position")
    assert np.all(dx >= 0.0) and np.all(dx <= 1.0)
    v = reduced_uncertainty(NATURAL, spec, T / 4, "momentum")
    assert 0.0 < v < 1.0


def test_uncertainty_product_ground_state():
    expected = math.pi * math.sqrt(1 / 12 - 1 / (2 * math.pi**2))
    assert math.isclose(expected, 0.5678, rel_tol=2e-4)
    for t in (0.0, 0.3):
        assert math.isclose(
            uncertainty_product(NATURAL, PacketSpec(n=1, N=0), t), expected, rel_tol=1e-12
        )


def test_uncertainty_product_heisenberg_floor():
    spec = PacketSpec(n=500, N=23)
    assert uncertainty_product(NATURAL, spec, 0.0) >= 0.5


def test_uncertainty_product_decreases_with_width_at_start():
    # at t = 0 no dephasing has occurred, so wider packets are sharper:
    # the product falls monotonically with N there
    products = [
        uncertainty_product(NATURAL, PacketSpec(n=500, N=N), 0.0) for N in (3, 23, 100)
    ]
    assert products[0] > products[1] > products[2]


def test_expectation_sample_invariants():
    spec = PacketSpec(n=50, N=7)
    T = classical_period(NATURAL, 50)
    p2_ref = None
    for t in np.linspace(0.0, T, 9):
        s = expectation_sample(NATURAL, spec, float(t))
        assert s.x2_mean >= s.x_mean**2 - 1e-12
        assert s.p2_mean >= s.p_mean**2 - 1e-12 * s.p2_mean
        assert s.product == s.dx * s.dp
        assert s.product >= 0.5 * (1 - 1e-9)
        if p2_ref is None:
            p2_ref = s.p2_mean
        assert s.p2_mean == p2_ref


def test_variance_positivity_on_grid():
    spec = PacketSpec(n=200, N=14)
    T = classical_period(NATURAL, 200)
    ts = np.linspace(0.0, T, 64)
    var_x = exp_x2(NATURAL, spec, ts) - exp_x(NATURAL, spec, ts) ** 2
    var_p = exp_p2(NATURAL, spec) - exp_p(NATURAL, spec, ts) ** 2
    assert np.all(var_x > 0.0)
    assert np.all(var_p >= 0.0)


# --- Dirichlet kernels: singular phases, long times, the pair-sum reference ---


def _scales(n):
    return {"position": 1.0, "position_sq": 1.0, "momentum": n * math.pi}


CLOSED_FORMS = {"position": exp_x, "position_sq": exp_x2, "momentum": exp_p}


def _singular_instants(n):
    T = classical_period(NATURAL, n)
    t_rev = 2 * n * T
    exact = [k * T / 2 for k in range(9)] + [t_rev / 2, t_rev, 3 * t_rev]
    return exact + [t + 1e-9 * T for t in exact]


@pytest.mark.parametrize("n", [500, 10_000])
def test_singular_phases_match_spectral_oracle(n):
    # at k*T/2 and k*T_rev every kernel phase sits on or next to a
    # removable singularity sin(phi) = 0 of R_K; the oracle forms each
    # phase as an exact integer u^2 - v^2 <= 4nN times w_b t, so its own
    # phase error is below eps * 4nN * w_b t
    spec = PacketSpec(n=n, N=math.isqrt(n))
    w_b = 2 * math.pi / (2 * n * classical_period(NATURAL, n))
    scales = _scales(n)
    for t in _singular_instants(n):
        tol = 1e-10 + 4 * np.finfo(float).eps * (4 * n * spec.N) * w_b * t
        for kind, fn in CLOSED_FORMS.items():
            oracle = oracle_expectation(NATURAL, spec, t, kind, method="spectral")
            assert abs(fn(NATURAL, spec, t) - oracle) <= tol * scales[kind], (kind, t)


@functools.cache
def _mp_moments(n, N, t):
    """<x>, <x^2>, <p> summed over level pairs in 40-digit arithmetic at the float t."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        w_b = mpmath.pi**2 / 2
        c = 4 / mpmath.pi**2
        size = 2 * N + 1
        x, p = mpmath.mpf(size) / 2, mpmath.mpf(0)
        x2 = sum(mpmath.mpf(1) / 3 - 1 / (2 * mpmath.pi**2 * u**2) for u in range(n - N, n + N + 1))
        # c / k^2 for every difference d and every sum u + v of two levels
        inv = {k: c / k**2 for k in [*range(1, 2 * N + 1), *range(2 * (n - N) + 1, 2 * (n + N))]}
        for u in range(n - N, n + N + 1):
            for v in range(n - N, u):
                d, sm = u - v, u + v
                cos, sin = mpmath.cos_sin(w_b * (d * sm) * t)
                if d % 2:
                    amp = inv[sm] - inv[d]
                    x += amp * cos
                    x2 += amp * cos  # (-1)^d (c/d^2 - c/sm^2) with d odd
                    p -= amp * (d * sm) * sin
                else:
                    x2 += (inv[d] - inv[sm]) * cos
        return {"position": float(x / size), "position_sq": float(x2 / size), "momentum": float(p * w_b / size)}


@pytest.mark.parametrize("n", [500, 10_000])
@pytest.mark.parametrize("k", [1, 1000, 10**6])
def test_long_times_exact_to_rounding(n, k):
    # t = t0 + k T_rev is a float whose fraction of T_rev the kernels form
    # in double-double; the reference sums the pairs at that same float t
    spec = PacketSpec(n=n, N=math.isqrt(n))
    T = classical_period(NATURAL, n)
    t = 0.3 * T + k * (2 * n * T)
    ref = _mp_moments(n, spec.N, t)
    scales = _scales(n)
    for kind, fn in CLOSED_FORMS.items():
        assert abs(fn(NATURAL, spec, t) - ref[kind]) <= 1e-13 * scales[kind], kind


def test_moments_reject_times_past_the_exact_range():
    # frac(t / T_rev) is exact only while |t| / T_rev < 2^52; past it exp_x
    # read -2.7 at t = 1e17, and at 1e305 the moments came back nan
    spec = PacketSpec(n=500, N=23)
    t_rev = 2 * spec.n * classical_period(NATURAL, spec.n)
    calls = [
        exp_x, exp_x2, exp_p, packet_moments, uncertainty_product,
        lambda cfg, spec, t: quasi_exp(cfg, spec, t, "position"),
    ]
    for t in (1e17 * t_rev, -1e17 * t_rev, 1e305, math.inf, -math.inf, math.nan, np.array([0.0, 1e305])):
        for fn in calls:
            with pytest.raises(ValueError, match="2\\^52"):
                fn(NATURAL, spec, t)
    assert 0.0 <= exp_x(NATURAL, spec, 2.0**51 * t_rev) <= NATURAL.a


def test_spectral_oracle_exact_at_long_times():
    # the oracle's phases are the integer u^2 - v^2 times w_b t; formed as
    # differences of float energies they were off by 1.5e-10 a here
    n, N = 10_000, 100
    T = classical_period(NATURAL, n)
    t = 0.3 * T + 3 * (2 * n * T)
    ref = _mp_moments(n, N, t)
    for kind, scale in _scales(n).items():
        oracle = oracle_expectation(NATURAL, PacketSpec(n=n, N=N), t, kind, method="spectral")
        assert abs(oracle - ref[kind]) <= 5e-11 * scale, kind


def _near_singular_instants(n):
    """A seeded instant, T/2, T, T_rev/2, T_rev and 3 T_rev, each also 1e-9 T, 1e-6 T and -3e-5 T later."""
    T = classical_period(NATURAL, n)
    t_rev = 2 * n * T
    exact = [np.random.default_rng(n).uniform(0.0, 2.0 * T), T / 2, T, t_rev / 2, t_rev, 3 * t_rev]
    return [t + offset * T for t in exact for offset in (0.0, 1e-9, 1e-6, -3e-5)]


def _taylor_edge_instants(n):
    """20 geometric t/T in [1e-5, 3e-2] after 0, 1 and 3 T_rev, where |K x| of
    the kernel columns crosses its Taylor threshold and the direct R_K' cancels."""
    T = classical_period(NATURAL, n)
    return [(k * 2 * n + f) * T for k in (0, 1, 3) for f in np.geomspace(1e-5, 3e-2, 20)]


@pytest.mark.parametrize("n,N", [(500, 23), (2000, 44)])
def test_kernels_exact_to_rounding_near_singular_phases(n, N):
    # at and next to k T/2 and k T_rev the kernel phases sit on or next to
    # multiples of pi, where R_K = sin(K x)/sin(x) is a removable 0/0 and
    # tan(x/2) has a pole unless x is first reduced by j pi; both packets
    # take the dense forms, and at (500, 23) the Dirichlet kernel's <p> was
    # 44 eps off just above its Taylor threshold
    spec = PacketSpec(n=n, N=N)
    eps = np.finfo(float).eps
    bounds = {"position": 4 * eps, "position_sq": 4 * eps, "momentum": 16 * eps * n * math.pi}
    for t in _near_singular_instants(n) + (_taylor_edge_instants(n) if n == 500 else []):
        ref = _mp_moments(n, N, t)
        for kind, fn in CLOSED_FORMS.items():
            assert abs(fn(NATURAL, spec, t) - ref[kind]) <= bounds[kind], (kind, t)


def _force_path(monkeypatch, dense):
    """Send every packet down one path: `_moments` compares (2N+1)^2 with
    quantum._PANELS * quantum._CHUNK."""
    monkeypatch.setattr(quantum, "_CHUNK", 1 << 62 if dense else 0)


def _checked_instants(n):
    """The near-singular instants and three long times 0.3 T + k T_rev."""
    T = classical_period(NATURAL, n)
    return _near_singular_instants(n) + [0.3 * T + k * (2 * n * T) for k in (1, 1000, 10**6)]


def test_dense_forms_serve_packets_up_to_the_block_limit(monkeypatch):
    # the dense path runs wherever the (2N+1)^2 matrix fits eight blocks of
    # core._CHUNK elements: N = 127 (65025 elements) and not N = 128
    # (66049). Each read-only matrix equals one fill of all its rows, and a
    # cold build, which fills at most _CHUNK elements at a time, holds no
    # more than 8 blocks besides the matrix (a build in one piece held
    # 1.1-3.2 MB)
    blocks = []
    dense_block = quantum._dense_block
    monkeypatch.setattr(quantum, "_dense_block", lambda *args: blocks.append(args) or dense_block(*args))
    for N, dense in ((127, True), (128, False)):
        blocks.clear()
        packet_moments(NATURAL, PacketSpec(n=16384, N=N), np.linspace(0.0, 1e-3, 300))
        assert bool(blocks) == dense, N
        # the stacked [a; b] of a block, and each product with a matrix
        assert all(2 * out.shape[1] * len(plan.m) <= _CHUNK for plan, _, _, out in blocks)
    j = np.arange(-127, 128.0)
    assert -(-len(j) // _block_rows(len(j))) <= 8  # fills of at most _CHUNK elements
    for kind in ("position", "position_sq", "momentum", "quasi_position", "quasi_momentum"):
        X = quantum._form(16384, 127, kind)
        assert not X.flags.writeable
        whole = np.zeros(X.shape)
        quantum._fill(whole, 16384, j, j, kind)
        assert np.array_equal(X, whole)
        tracemalloc.start()
        try:
            cold = quantum._form.__wrapped__(16384, 127, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - cold.nbytes <= 8 * 8 * _CHUNK


_FAULT_PROBE = """
import json, resource
import numpy as np
from fejerwell import PacketSpec, WellConfig, packet_moments
from fejerwell.core import classical_period

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

cfg = WellConfig()
per_call = {}
for n, N, size in ((500, 23, 256), (10_000, 100, 64), (16_383, 127, 64), (100_000, 316, 16)):
    spec = PacketSpec(n=n, N=N)
    t = np.random.default_rng(n).uniform(0.0, 2.0 * classical_period(cfg, n), size)
    for _ in range(2):  # builds the cached forms or kernel
        packet_moments(cfg, spec, t)
    start = faults()
    for _ in range(50):
        packet_moments(cfg, spec, t)
    per_call[f"{n}-{N}"] = (faults() - start) / 50
print(json.dumps(per_call))
"""


@functools.cache
def _fault_probe():
    """Minor faults per warm packet_moments call, packet by packet in one fresh process."""
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = {**os.environ, **threads, "PYTHONPATH": str(Path(quantum.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return json.loads(run.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold")
@pytest.mark.parametrize(
    "packet",
    [
        "500-23",
        "10000-100",
        "16383-127",
        "100000-316",
    ],
)
def test_warm_moments_fault_about_never(packet):
    # every array a moments call allocates is at most core._CHUNK float64
    # = 64 KiB, below glibc's 128 KiB mmap threshold, so a warm call reuses
    # heap memory, where an array mapped afresh faults once per 4 KiB page;
    # a cached dense matrix is mapped once, by the warm-up. A fresh process
    # keeps the count blind to what earlier tests freed. (10^5, 316) runs
    # the Dirichlet kernel, whose block temporaries glibc has trimmed from
    # the top of the heap and faulted back in other processes (DECISIONS.md)
    assert _fault_probe()[packet] <= 1.0


@pytest.mark.parametrize("n,N", [(2000, 44), (61, 60), (10_000, 100), (16_384, 127)])
def test_dense_and_kernel_paths_agree(monkeypatch, n, N):
    # each path forced in turn: <x> and <x^2> agree to 4 eps, and the dense
    # forms equal the reference to 4 eps of a, a^2 and p_n. Past N = 60 the
    # reference is the 60-digit closed form: the 40-digit pair sum takes
    # seconds there, and 30 digits are too few next to multiples of pi
    spec = PacketSpec(n=n, N=N)
    eps = np.finfo(float).eps
    scales = _scales(n)
    kinds = tuple(CLOSED_FORMS)
    for t in _checked_instants(n):
        _force_path(monkeypatch, dense=True)
        dense = dict(zip(kinds, packet_moments(NATURAL, spec, t, kinds)))
        _force_path(monkeypatch, dense=False)
        kernel = dict(zip(kinds, packet_moments(NATURAL, spec, t, kinds)))
        ref = _mp_moments(n, N, t) if N <= 60 else _mp_closed_form(n, N, t, dps=60)
        for kind in kinds:
            assert abs(dense[kind] - ref[kind]) <= 4 * eps * scales[kind], (kind, t)
        for kind in ("position", "position_sq"):
            assert abs(dense[kind] - kernel[kind]) <= 4 * eps * scales[kind], (kind, t)


@pytest.mark.parametrize(
    "n,N",
    [
        (2000, 44),
        pytest.param(61, 60, marks=pytest.mark.xfail(
            strict=True, reason="the kernel's <p> is 13-108 eps of p_n off at and next to k T_rev / 2"
        )),
    ],
)
def test_kernel_momentum_near_singular_phases(monkeypatch, n, N):
    # the Dirichlet kernel's <p> on the instants of the dense test above,
    # with the 16 eps bound it met at (2000, 44) before that packet went dense
    spec = PacketSpec(n=n, N=N)
    _force_path(monkeypatch, dense=False)
    bound = 16 * np.finfo(float).eps * n * math.pi
    for t in _checked_instants(n):
        assert abs(exp_p(NATURAL, spec, t) - _mp_moments(n, N, t)["momentum"]) <= bound, t


def _mp_closed_form(n, N, t, dps=30):
    """<x>, <x^2>, <p> from the d- and s-grouped Dirichlet closed forms of the
    `quantum` docstring, in dps-digit arithmetic at the float t: O(N) terms,
    so it reaches packets that the O(N^2) pair sum cannot."""
    with mpmath.workdps(dps):
        tau = mpmath.pi**2 / 2 * mpmath.mpf(t)

        def kernel(K, m):  # R_K(m tau) and its tau-derivative
            sin, cos = mpmath.sin(m * tau), mpmath.cos(m * tau)
            sin_k, cos_k = mpmath.sin(K * m * tau), mpmath.cos(K * m * tau)
            return sin_k / sin, m * (K * cos_k * sin - sin_k * cos) / sin**2

        x = x2 = p = mpmath.mpf(0)
        for d in range(1, 2 * N + 1):  # the d-groups, at psi = 2n d tau
            r, dr = kernel(2 * N + 1 - d, d)
            cos, sin = mpmath.cos(2 * n * d * tau), mpmath.sin(2 * n * d * tau)
            x2 += (-1) ** d * r * cos / d**2
            if d % 2:
                x -= r * cos / d**2
                p -= (dr * cos - 2 * n * d * r * sin) / d**2
        for s in range(1 - 2 * N, 2 * N):  # the s-groups
            r, dr = kernel(2 * N + 1 - abs(s), 2 * n + s)
            w = mpmath.mpf(1) / (2 * n + s) ** 2
            if s % 2:
                x += w * r / 2
                x2 += w * r / 2
                p += w * dr / 2
            else:
                x2 -= w * (r - 1) / 2
        size, c = 2 * N + 1, 4 / mpmath.pi**2
        diag = sum(mpmath.mpf(1) / u**2 for u in range(n - N, n + N + 1)) / (2 * mpmath.pi**2)
        return {
            "position": float(mpmath.mpf(1) / 2 + c * x / size),
            "position_sq": float(mpmath.mpf(1) / 3 + (c * x2 - diag) / size),
            "momentum": float(2 * p / size),  # mu w_b (4a/pi^2) = 2 hbar / a
        }


@pytest.mark.parametrize("n,N", [(50, 7), (500, 23), (61, 60)])
def test_closed_form_reference_equals_pair_sum(n, N):
    T = classical_period(NATURAL, n)
    eps = np.finfo(float).eps
    scales = _scales(n)
    for t in (0.3 * T, 1.7 * T, 0.3 * T + 1000 * (2 * n * T)):
        closed, pairs = _mp_closed_form(n, N, t), _mp_moments(n, N, t)
        for kind, scale in scales.items():
            assert abs(closed[kind] - pairs[kind]) <= eps * scale, (kind, t)


@pytest.mark.parametrize(
    "n,N,fractions,p_eps",
    [
        (100_000, 316, (0.25, 0.49, 0.4999), 64),
        (300_000, 1101, (0.05, 0.2, 0.4, 0.5), 64),
        (1_000_000, 2277, (0.05, 0.2, 0.4, 0.5), 2048),
    ],
    ids=["100000-316", "300000-1101", "1000000-2277"],
)
def test_kernel_exact_to_rounding_at_large_n(n, N, fractions, p_eps):
    # far past the pair sum's reach, against the 60-digit closed form at
    # 0.3 T and the revival fractions. 4nN is 2^26.9, 2^30.3 and 2^33.1:
    # past 2^27 the rounded m * l of `_phases` can pass 1/2 and reach
    # thousands, and left unreduced it put (10^6, 2277) 8.3e5 eps of a off.
    # <p> keeps the rounding of m * l, which grows with 4nN: 400 eps of p_n
    # at (10^6, 2277), 2.5 eps at (10^5, 316)
    spec = PacketSpec(n=n, N=N)
    T = classical_period(NATURAL, n)
    t_rev = 2 * n * T
    eps = np.finfo(float).eps
    bounds = {"position": 16 * eps, "position_sq": 16 * eps, "momentum": p_eps * eps * n * math.pi}
    for t in [0.3 * T] + [f * t_rev for f in fractions]:
        ref = _mp_closed_form(n, N, t, dps=60)
        for kind, fn in CLOSED_FORMS.items():
            assert abs(fn(NATURAL, spec, t) - ref[kind]) <= bounds[kind], (kind, t)


_KERNEL_COLUMNS = _kernel(317, 316, ("position_sq",))  # one column for each K = 1..633


_SERIES_CAP = quantum._SERIES_CAP


def _force_hankel(monkeypatch, levels):
    """Send every kernel packet's Hankel part down one path: level sums
    (with twice the series cap) or the s-columns. A fresh `_kernel` cache
    keeps the forced plans out of the module's own."""
    monkeypatch.setattr(quantum, "_SERIES_CAP", 2 * _SERIES_CAP if levels else -1)
    monkeypatch.setattr(quantum, "_kernel", functools.lru_cache(maxsize=16)(quantum._kernel.__wrapped__))


# (n, N) and whether the rule gives level sums: N = isqrt(n) packets and
# both sides of the edge n = 2.05 N at N = 60 and N = 128
_RULE_SIDES = [(16_384, 128, True), (100_000, 316, True), (122, 60, False), (123, 60, True),
               (261, 128, False), (262, 128, True)]


@pytest.mark.parametrize("n,N,levels", _RULE_SIDES)
def test_level_sums_equal_s_columns(monkeypatch, n, N, levels):
    # the Hankel part from the level sums and from the s-columns, each
    # forced in turn on the Dirichlet kernel, at scalar instants, so that
    # both paths sum the same d-columns in the same product
    assert (quantum._series_terms(n, N) is not None) == levels
    spec = PacketSpec(n=n, N=N)
    eps = np.finfo(float).eps
    scales = _scales(n)
    kinds = tuple(CLOSED_FORMS)
    _force_path(monkeypatch, dense=False)
    for t in _checked_instants(n):
        got = {}
        for side in (True, False):
            _force_hankel(monkeypatch, side)
            assert (quantum._series_terms(n, N) is not None) == side
            got[side] = packet_moments(NATURAL, spec, t, kinds)
        for kind, lv, sc in zip(kinds, *got.values()):
            assert abs(lv - sc) <= 4 * eps * scales[kind], (kind, t)


@pytest.mark.parametrize("n,N", [(16_384, 128), (100_000, 316), (123, 60), (2, 0)])
def test_level_forms_reproduce_the_hankel_weights(n, N):
    # each cached (left, right, w) rebuilds the output's (2N+1)^2 Hankel
    # weights within the per-pair tail that `_series_terms` bounds
    K = quantum._series_terms(n, N)
    j = np.arange(-N, N + 1.0)
    d, s = np.subtract.outer(j, j), np.add.outer(j, j)
    odd = s % 2 != 0
    w = 2 * n + s
    u = (N / (2 * n - N)) ** 2
    tail = u ** (K + 1) / (1 - u)
    first = 1 / np.add.outer(2 * n + j, 0 * j) / np.add.outer(0 * j, 2 * n + j)  # 1/((2n+j)(2n+k))
    bounds = {
        "position": 0.5 * (2 * n * first) ** 2 * tail * (K + 2 - (K + 1) * u) / (1 - u),
        "momentum": np.abs(d) * 2 * n * first * tail,
    }
    bounds["position_sq"] = bounds["position"]
    exact = {
        "position": np.where(odd, 0.5 / w**2, 0.0),
        "position_sq": -0.5 * np.where(odd, -1.0, 1.0) / w**2,
        "momentum": np.where(odd, -d / w, 0.0),
    }
    for kind, H in exact.items():
        sine, left, right, weights = quantum._level_form(n, N, kind, K)
        assert sine == (kind == "momentum")
        assert not (left.flags.writeable or right.flags.writeable or weights.flags.writeable)
        rebuilt = (left * weights) @ right.T
        assert np.all(np.abs(rebuilt - H) <= bounds[kind] + 8 * np.finfo(float).eps * np.abs(H).max()), kind


def test_series_lengths_on_the_sqrt_regime():
    # K for N = isqrt(n) from the first kernel packet up: one to three
    # terms, fewer as N/n falls; and none near n = N, where u -> 1
    lengths = [quantum._series_terms(n, math.isqrt(n)) for n in (16_384, 10**5, 10**6, 10**7)]
    assert lengths == [2, 2, 1, 1]
    assert quantum._series_terms(61, 60) is None and quantum._series_terms(2, 1) is None


def _whole_block_taylor(ker, c):
    """R_K and R_K' from their Taylor series on every element of c, in the
    operations of `_dirichlet`, and the elements where it takes them."""
    u = 2.0 * c
    j = np.rint(u)
    u -= j
    u *= 0.5 * math.pi
    sign = j * j
    sign *= ker.flip
    sign += 1.0
    x = 2.0 * u
    x2 = x * x
    taylor = sign * (ker.K + x2 * (ker.a2 + x2 * ker.a4))
    rate = sign * (x * (2.0 * ker.a2 + 4.0 * x2 * ker.a4))
    return taylor, rate, np.abs(u * ker.K) < 0.5 * quantum._TAYLOR


@pytest.mark.parametrize("flagged", ["none", "one", "all"])
def test_dirichlet_taylor_branch_on_flagged_elements_only(flagged):
    # the series runs on the gathered elements with |K x| < _TAYLOR alone:
    # there it equals the series over the whole block bit for bit, and
    # every other element is the tangent formula, whatever is flagged
    ker = _KERNEL_COLUMNS
    rng = np.random.default_rng(7)
    c = rng.uniform(0.1, 0.4, (3, len(ker.K))) * rng.choice([-1.0, 1.0], (3, len(ker.K)))
    if flagged == "one":
        c[1, 200] = 0.5 - 3e-8
    elif flagged == "all":
        c = rng.choice([-0.5, 0.0, 0.5], c.shape) + rng.uniform(-1e-7, 1e-7, c.shape)
    taylor, rate, small = _whole_block_taylor(ker, c)
    assert np.count_nonzero(small) == {"none": 0, "one": 1, "all": c.size}[flagged]
    R, dR = _dirichlet(ker, c, True)
    assert np.array_equal(R[small], taylor[small]) and np.array_equal(dR[small], rate[small])
    off = c.copy()
    off[small] = 0.25  # no element flagged: the tangent formula everywhere
    R_off, dR_off = _dirichlet(ker, off, True)
    assert np.array_equal(R[~small], R_off[~small]) and np.array_equal(dR[~small], dR_off[~small])




@st.composite
def _near_poles(draw):
    """K and a phase fraction c whose K x/2 lies within 1e-12 of a pole pi/2 + m pi of tan."""
    K = draw(st.integers(2, 2 * 316 + 1))
    m = draw(st.integers(0, (K - 2) // 4))  # |x| = |2 pi c - j pi| <= pi/2
    half_kx = draw(st.sampled_from([-1, 1])) * (math.pi / 2 + m * math.pi + draw(st.floats(-1e-12, 1e-12)))
    j = draw(st.integers(-1, 1))
    c = (2 * half_kx / (K * math.pi) + j) / 2
    assume(abs(c) <= 0.5)
    return K, c


@settings(max_examples=300, deadline=None)
@given(_near_poles())
@example((2, 0.25))
@example((633, (1 / 633 + 1) / 2))
def test_tangent_kernels_near_poles_match_mpmath(case):
    # R_K and R_K' from tan(x/2) and tan(K x/2) where the second is 1e12
    # or more; against sin(K phi)/sin(phi) and its derivative at phi = 2 pi c
    K, c = case
    col = int(np.flatnonzero(_KERNEL_COLUMNS.K == K)[0])
    R, dR = _dirichlet(_KERNEL_COLUMNS, np.full((1, len(_KERNEL_COLUMNS.K)), c), True)
    with mpmath.workdps(40):
        phi = 2 * mpmath.pi * mpmath.mpf(c)
        sin, cos = mpmath.sin(phi), mpmath.cos(phi)
        sin_k, cos_k = mpmath.sin(K * phi), mpmath.cos(K * phi)
        ref = float(sin_k / sin)
        ref_rate = float((K * cos_k * sin - sin_k * cos) / sin**2)
    eps = np.finfo(float).eps
    assert abs(R[0, col] - ref) <= 4 * eps * K, (R[0, col], ref)
    assert abs(dR[0, col] - ref_rate) <= 4 * eps * K**2, (dR[0, col], ref_rate)


def _pair_sums(spec, t):
    """<x>, <x^2>, <p> from the O(N^2) term arrays of pair_terms."""
    n, N = spec.n, spec.N
    amp, freq, _ = pair_terms(NATURAL, n, N, "position")
    amp2, freq2, _ = pair_terms(NATURAL, n, N, "position_sq")
    levels = spec.levels().astype(float)
    diag = 1 / 3 - float(np.sum(1 / levels**2)) / (2 * math.pi**2 * spec.size)
    return {
        "position": 0.5 + float(amp @ np.cos(freq * t)) / spec.size,
        "position_sq": diag + float(amp2 @ np.cos(freq2 * t)) / spec.size,
        "momentum": -float((amp * freq) @ np.sin(freq * t)) / spec.size,
    }


@st.composite
def _packets_and_instants(draw):
    n = draw(st.integers(2, 3000))
    N = draw(st.integers(0, min(n - 1, 60)))
    return n, N, draw(st.floats(0.0, 4.0))


@settings(max_examples=150, deadline=None)
@given(_packets_and_instants())
@example((2, 0, 0.7))
@example((2, 1, 1.3))
@example((61, 60, 3.9))
@example((3000, 1, 2.5))
@example((500, 0, 0.0))
@example((16384, 127, 1.7))  # the largest dense packet
@example((16384, 128, 2.3))  # the smallest Dirichlet-kernel packet
@example((122, 60, 1.1))  # forced onto the kernel: the s-columns, the last packet before the edge
@example((123, 60, 1.1))  # and the level sums, the first packet past it
def test_kernels_equal_pair_sum(case):
    # each packet on the path of the rule, and on the Dirichlet kernel forced;
    # the draws reach both sides of the kernel's level-sum rule, n = 2.05 N
    n, N, periods = case
    spec = PacketSpec(n=n, N=N)
    t = periods * classical_period(NATURAL, n)
    ref = _pair_sums(spec, t)
    scales = _scales(n)
    for kernel in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if kernel:
                _force_path(mp, dense=False)
            for kind, fn in CLOSED_FORMS.items():
                assert abs(fn(NATURAL, spec, t) - ref[kind]) <= 1e-12 * scales[kind], (kind, kernel)


# --- one kernel pass for every moment at an instant ---


def _composed(spec, t):
    """Every fused quantity, composed from standalone exp_x, exp_x2 and exp_p."""
    x, x2, p = exp_x(NATURAL, spec, t), exp_x2(NATURAL, spec, t), exp_p(NATURAL, spec, t)
    p2 = exp_p2(NATURAL, spec)
    dx, dp = math.sqrt(max(x2 - x * x, 0.0)), math.sqrt(max(p2 - p * p, 0.0))
    return {
        "position": x, "position_sq": x2, "momentum": p, "dx": dx, "dp": dp, "product": dx * dp,
        "reduced_position": math.sqrt(min(max(1.0 - x * x / x2, 0.0), 1.0)),
        "reduced_momentum": math.sqrt(min(max(1.0 - p * p / p2, 0.0), 1.0)),
    }


def _fused(spec, t, kinds):
    sample = expectation_sample(NATURAL, spec, t)
    got = dict(zip(kinds, packet_moments(NATURAL, spec, t, kinds)))
    return got, {
        "position": sample.x_mean, "position_sq": sample.x2_mean, "momentum": sample.p_mean,
        "dx": sample.dx, "dp": sample.dp, "product": sample.product,
        "uncertainty_product": uncertainty_product(NATURAL, spec, t),
        "reduced_position": reduced_uncertainty(NATURAL, spec, t, "position"),
        "reduced_momentum": reduced_uncertainty(NATURAL, spec, t, "momentum"),
    }


@st.composite
def _fused_cases(draw):
    n = draw(st.integers(2, 3000))
    N = draw(st.integers(0, min(n - 1, 60)))
    where = draw(st.sampled_from(["half_periods", "revivals", "long"]))
    if where == "half_periods":  # k T/2: every phase on a singularity of R_K
        instant = (draw(st.integers(0, 64)) / 2, 0)
    elif where == "revivals":  # k T_rev, where every phase is a multiple of 2 pi
        instant = (0.0, draw(st.integers(0, 16)))
    else:  # up to 10^6 revivals plus a point inside two periods
        instant = (draw(st.floats(0.0, 2.0)), draw(st.integers(0, 10**6)))
    kinds = draw(st.permutations(["position", "position_sq", "momentum"]))
    return n, N, instant, tuple(kinds[: draw(st.integers(1, 3))])


@settings(max_examples=150, deadline=None)
@given(_fused_cases())
@example((2, 0, (0.0, 0), ("momentum",)))
@example((2, 1, (1.5, 0), ("position", "momentum")))
@example((61, 60, (0.0, 7), ("position_sq", "position", "momentum")))
@example((3000, 1, (0.3, 10**6), ("momentum", "position_sq")))
@example((3000, 60, (16.0, 0), ("position", "position_sq", "momentum")))
@example((500, 0, (0.0, 0), ("position_sq",)))
@example((16384, 127, (0.3, 1000), ("momentum", "position", "position_sq")))
@example((16384, 128, (0.3, 1000), ("momentum", "position", "position_sq")))
@example((122, 60, (0.5, 3), ("position_sq", "momentum", "position")))
@example((123, 60, (0.5, 3), ("position_sq", "momentum", "position")))
def test_fused_pass_equals_standalone_moments(case):
    # packet_moments, expectation_sample, uncertainty_product and
    # reduced_uncertainty read one pass over the union of the columns;
    # each must agree with the standalone closed forms to 4 eps of its
    # scale, on the path of the rule and on the Dirichlet kernel forced
    for kernel in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if kernel:
                _force_path(mp, dense=False)
            _check_fused_pass(case)


def _check_fused_pass(case):
    n, N, (periods, revivals), kinds = case
    spec = PacketSpec(n=n, N=N)
    T = classical_period(NATURAL, n)
    t = periods * T + revivals * (2 * n * T)
    ref = _composed(spec, t)
    got, derived = _fused(spec, t, kinds)
    p_n = n * math.pi
    scale = {"position": 1.0, "position_sq": 1.0, "momentum": p_n, "dx": 1.0, "dp": p_n,
             "product": p_n, "reduced_position": 1.0, "reduced_momentum": 1.0}
    eps = np.finfo(float).eps
    for kind, value in got.items():
        assert abs(value - ref[kind]) <= 4 * eps * scale[kind], (kind, value, ref[kind])
    derived_ref = {**ref, "uncertainty_product": ref["product"]}
    scale["uncertainty_product"] = p_n
    for name, value in derived.items():
        assert abs(value - derived_ref[name]) <= 4 * eps * scale[name], (name, value, derived_ref[name])
    if t == 0.0:
        assert got.get("momentum", 0.0) == 0.0 and derived["momentum"] == 0.0


@pytest.mark.parametrize("n,N", [(2000, 45), (10_000, 100), (61, 60), (100_000, 316), (16_384, 128)])
def test_fused_kernel_pass_equals_standalone_bitwise(monkeypatch, n, N):
    # for a scalar t each output of a kernel pass sums its own columns in
    # the order of its standalone kernel, and its own level sum, so the
    # values are the same floats; the kernel is forced, since the first
    # three packets take the dense forms. (61, 60) keeps the s-columns
    _force_path(monkeypatch, dense=False)
    spec = PacketSpec(n=n, N=N)
    standalone = {"position": exp_x, "position_sq": exp_x2, "momentum": exp_p}
    subsets = (("position", "position_sq", "momentum"), ("momentum", "position"), ("position_sq", "momentum"))
    for t in _checked_instants(n):
        ref = {kind: fn(NATURAL, spec, t) for kind, fn in standalone.items()}
        for kinds in subsets:
            for kind, value in zip(kinds, packet_moments(NATURAL, spec, t, kinds)):
                assert value == ref[kind], (kinds, kind, t, value - ref[kind])


@pytest.mark.parametrize("n,N", [(500, 23), (10_000, 100), (16_384, 127)])
def test_fused_dense_pass_equals_standalone_bitwise(n, N):
    # every output of a dense pass multiplies the same [a; b] blocks by its
    # own matrix, so scalars and arrays equal the standalone calls exactly
    spec = PacketSpec(n=n, N=N)
    instants = _checked_instants(n)
    for t in instants + [np.array(instants * 12)]:
        ref = {kind: fn(NATURAL, spec, t) for kind, fn in CLOSED_FORMS.items()}
        for kinds in (tuple(CLOSED_FORMS), ("momentum", "position"), ("position_sq", "momentum")):
            for kind, value in zip(kinds, packet_moments(NATURAL, spec, t, kinds)):
                assert np.array_equal(value, ref[kind]), (kinds, kind, t)


@pytest.mark.parametrize(
    "n,N", [(2, 0), (2, 1), (50, 7), (500, 23), (3000, 60), (61, 60), (16_384, 128), (100_000, 316)]
)
def test_fused_momentum_exactly_zero_at_start(n, N):
    # the last two packets take the Dirichlet kernel, the others the dense forms
    spec = PacketSpec(n=n, N=N)
    assert packet_moments(NATURAL, spec, 0.0)[2] == 0.0
    assert packet_moments(NATURAL, spec, np.zeros(3), ("momentum",))[0].tolist() == [0.0] * 3
    assert expectation_sample(NATURAL, spec, 0.0).p_mean == 0.0


def test_packet_moments_rejects_bad_kinds():
    spec = PacketSpec(n=50, N=7)
    for kinds in ((), ("momentum_sq",), ("position", "energy")):
        with pytest.raises(ValueError):
            packet_moments(NATURAL, spec, 0.0, kinds)
